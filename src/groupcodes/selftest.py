"""Self-test corpus: fixture checks and randomized theorem verification.

Each check re-derives an expected value by an independent route (brute
force, enumeration, or a closed formula) and compares it against the
library computation. The CLI `selftest` verb prints one line per check.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, cast

from .catalog import (binary_repetition, even_weight_code, hamming_7_4_code,
                      repetition_code, sum_zero_code, z4_example_code)
from .classify import (DEFAULT_ENUMERATION_GATE, is_mds, is_perfect, is_trivial,
                       perfect_by_enumeration)
from .codes import (Code, GroupCode, all_words, direct_sum, direct_sum_all, full_space,
                    hamming_distance, min_distance, min_weight_nonidentity, parameters,
                    projection)
from .cyclic import cyclic_structure, gcd_certificate, interleave, interleave_permutation, is_cyclic
from .decompose import decompose, is_decomposable, indecomposability_certificate
from .groups import FiniteGroup, automorphisms, cyclic_group, klein_four_group
from .isometry import (Configuration, Equivalence, Isometry, apply_to_code,
                       enumerate_isometries, isometry_group_order)
from .isomorphy import aut_group, gc_isomorphic, verify_block_preservation

# the worked interleaving table for D = {000,110,011,101}, two copies
INTERLEAVE_DEMO_PAIRS: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = (
    ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    ((0, 0, 0, 1, 1, 0), (0, 1, 0, 1, 0, 0)),
    ((0, 0, 0, 0, 1, 1), (0, 0, 0, 1, 0, 1)),
    ((0, 0, 0, 1, 0, 1), (0, 1, 0, 0, 0, 1)),
    ((1, 1, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0)),
    ((1, 1, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0)),
    ((1, 1, 0, 0, 1, 1), (1, 0, 1, 1, 0, 1)),
    ((1, 1, 0, 1, 0, 1), (1, 1, 1, 0, 0, 1)),
    ((0, 1, 1, 0, 0, 0), (0, 0, 1, 0, 1, 0)),
    ((0, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0)),
    ((0, 1, 1, 0, 1, 1), (0, 0, 1, 1, 1, 1)),
    ((0, 1, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1)),
    ((1, 0, 1, 0, 0, 0), (1, 0, 0, 0, 1, 0)),
    ((1, 0, 1, 1, 1, 0), (1, 1, 0, 1, 1, 0)),
    ((1, 0, 1, 0, 1, 1), (1, 0, 0, 1, 1, 1)),
    ((1, 0, 1, 1, 0, 1), (1, 1, 0, 0, 1, 1)),
)


def small_groups() -> list[FiniteGroup]:
    return [cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four_group()]


def indecomposable_pool(G: FiniteGroup) -> list[GroupCode]:
    """Pairwise non-isomorphic indecomposable group codes over G."""
    pool = [full_space(G, 1), repetition_code(G, 2), repetition_code(G, 3)]
    if G.is_abelian():
        pool.append(sum_zero_code(G, 3))
    return pool


def random_sum_construction(rng: random.Random, G: FiniteGroup, *,
                            max_length: int = 12, max_size: int = 2048
                            ) -> tuple[GroupCode, list[tuple[GroupCode, int]]]:
    """A random direct sum of pool components with multiplicities.

    Returns the sum and its isotype multiset [(component, alpha)].
    """
    pool = indecomposable_pool(G)
    rng.shuffle(pool)
    picked: list[tuple[GroupCode, int]] = []
    length = 0
    size = 1
    for comp in pool:
        if not picked:
            alpha_max = (max_length - length) // comp.length
        else:
            alpha_max = min(3, (max_length - length) // comp.length)
        alphas = [a for a in range(1, alpha_max + 1) if size * comp.size**a <= max_size]
        if not alphas:
            continue
        alpha = rng.choice(alphas)
        picked.append((comp, alpha))
        length += alpha * comp.length
        size *= comp.size**alpha
        if length >= max_length - 1 or len(picked) == 3:
            break
    if not picked:
        picked = [(pool[0], 2)]
    parts: list[Code] = []
    for comp, alpha in picked:
        parts.extend([comp] * alpha)
    return cast(GroupCode, direct_sum_all(parts)), picked


def random_group_isometry(rng: random.Random, G: FiniteGroup, n: int) -> Isometry:
    """Random isometry whose configuration maps are group automorphisms.

    Such maps send subgroups of G^n to subgroups, so scrambled sums stay
    group codes.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    auts = automorphisms(G)
    maps = tuple(rng.choice(auts).mapping for _ in range(n))
    return Isometry(Configuration(maps), Equivalence(tuple(perm)))


def scramble(rng: random.Random, C: GroupCode) -> GroupCode:
    iso = random_group_isometry(rng, C.alphabet, C.length)
    image = apply_to_code(iso, C)
    return GroupCode.from_words(C.alphabet, C.length, image.words)


def recover_isotypes(scrambled: GroupCode,
                     expected: list[tuple[GroupCode, int]]) -> bool:
    """Decompose and match the isotype multiset against the construction."""
    dec = decompose(scrambled)
    got = [(dec.components[rep], alpha) for rep, alpha in dec.isotypes]
    if len(got) != len(expected):
        return False
    remaining = list(got)
    for comp, alpha in expected:
        hit = None
        for k, (rcomp, ralpha) in enumerate(remaining):
            if ralpha == alpha and isinstance(rcomp, GroupCode) \
                    and gc_isomorphic(comp, rcomp) is not None:
                hit = k
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return not remaining


def distance_preserving_bijections(q: int, n: int) -> list[tuple]:
    """Brute force over all bijections of A^n; keeps the distance-preserving ones.

    Each map is returned extensionally as the image tuple over lex-ordered
    words. Deliberately independent of the (f, sigma) normal forms.
    """
    words = list(all_words(q, n))
    m = len(words)
    dist = [[hamming_distance(words[i], words[j]) for j in range(m)] for i in range(m)]
    out = []
    for perm in itertools.permutations(range(m)):
        if all(dist[perm[i]][perm[j]] == dist[i][j]
               for i in range(m) for j in range(i + 1, m)):
            out.append(tuple(words[perm[i]] for i in range(m)))
    return out


def constant_weight_corpus(rng: random.Random, *, max_n: int = 8,
                           samples_per_shape: int = 6,
                           max_size: int = 512) -> list[GroupCode]:
    """Nondegenerate constant-weight group codes found by random subgroup sampling."""
    from .classify import constant_weight_group, is_degenerate
    found: dict[tuple, GroupCode] = {}
    for G in small_groups():
        for n in range(2, max_n + 1):
            found.setdefault((G.label, n, "rep"), repetition_code(G, n))
            for _ in range(samples_per_shape):
                gens = [tuple(rng.randrange(G.order) for _ in range(n))
                        for _ in range(rng.choice([1, 2]))]
                C = GroupCode.generate(G, n, gens)
                if C.size > max_size or C.size < 2:
                    continue
                degenerate, _ = is_degenerate(C)
                if degenerate or constant_weight_group(C) is None:
                    continue
                found.setdefault((G.label, n, C.words), C)
    out = list(found.values())
    out.sort(key=lambda c: (c.alphabet.label, c.length, c.words))
    return out


def cyclic_corpus() -> list[GroupCode]:
    """Cyclic group codes: interleavings, full spaces, repetitions, joins."""
    from .cyclic import join
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    D = even_weight_code(3)
    rep2 = binary_repetition(2)
    out: list[GroupCode] = [
        D,
        interleave(D, 2),
        interleave(D, 3),
        interleave(rep2, 2),
        interleave(rep2, 3),
        interleave(repetition_code(Z3, 2), 2),
        join([binary_repetition(2), repetition_code(Z3, 2)]),
        join([D, D]),
    ]
    for G in small_groups():
        for n in (1, 2, 3):
            out.append(full_space(G, n))
    for n in (2, 3, 5):
        out.append(binary_repetition(n))
    out.append(sum_zero_code(Z3, 3))
    return out


def mixed_corpus(rng: random.Random) -> list[Code]:
    """Codes of all stripes for the classification biconditionals."""
    Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    corpus: list[Code] = [
        z4_example_code(), even_weight_code(3), hamming_7_4_code(),
        binary_repetition(3), binary_repetition(5), repetition_code(Z3, 3),
        repetition_code(Z4, 2), sum_zero_code(Z3, 3), sum_zero_code(Z4, 3),
        full_space(Z2, 2), full_space(Z2, 3), full_space(Z3, 2), full_space(Z4, 1),
        Code.from_words(Z2, 2, [(0, 1), (1, 0)]),
        Code.from_words(Z2, 3, [(0, 0, 0)]),
        Code.from_words(Z4, 2, [(0, 0), (1, 1), (2, 3)]),
    ]
    for _ in range(12):
        G = rng.choice([Z2, Z3, Z4])
        n = rng.randrange(2, 5)
        count = rng.randrange(2, min(9, G.order**n))
        words = rng.sample(sorted(all_words(G.order, n)), count)
        corpus.append(Code.from_words(G, n, words))
    return corpus


# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def run_selftest(*, seed: int = 0, trials: int = 100, oracle: bool = False) -> bool:
    """Run every check, print a pass table to stdout, and return overall success."""
    rng = random.Random(seed)
    checks: list[tuple[str, Callable[[], CheckResult]]] = [
        ("isometry-factorization", lambda: check_isometry_factorization(oracle)),
        ("semidirect-order", check_semidirect_order),
        ("projection-products", check_projection_products),
        ("interleaving-table", check_interleaving_table),
        ("metric-and-sums", lambda: check_metric_and_sums(random.Random(rng.randrange(2**32)))),
        ("certificates-sound", lambda: check_certificates(random.Random(rng.randrange(2**32)))),
        ("unique-decomposition", lambda: check_unique_decomposition(random.Random(rng.randrange(2**32)), trials)),
        ("automorphism-structure", check_automorphism_structure),
        ("classification-biconditionals", lambda: check_prop2(random.Random(rng.randrange(2**32)))),
        ("cyclic-structure", check_cyclic_structure),
    ]
    if oracle:
        checks.append(("perfect-covering-oracle", lambda: check_perfect_oracle(random.Random(rng.randrange(2**32)))))
    all_ok = True
    for name, fn in checks:
        result = fn()
        all_ok &= result.ok
        status = "PASS" if result.ok else "FAIL"
        print(f"{status:4s}  {name:32s} {result.detail}")
    return all_ok


def check_isometry_factorization(deep: bool) -> CheckResult:
    sizes = [2, 3] if deep else [2]
    for n in sizes:
        brute = set(distance_preserving_bijections(2, n))
        normal = {iso.as_map(2) for iso in enumerate_isometries(2, n)}
        if brute != normal:
            return CheckResult("isometry-factorization", False,
                               f"q=2 n={n}: brute {len(brute)} != normal-form {len(normal)}")
        if len(normal) != isometry_group_order(2, n):
            return CheckResult("isometry-factorization", False, f"count mismatch at n={n}")
    return CheckResult("isometry-factorization", True,
                       f"q=2, n in {sizes}: every distance-preserving bijection factors")


def check_semidirect_order() -> CheckResult:
    cases = [(2, 2, 8), (2, 3, 48), (3, 1, 6), (1, 4, 1)]
    for q, n, want in cases:
        if isometry_group_order(q, n) != want:
            return CheckResult("semidirect-order", False, f"({q},{n}) != {want}")
    return CheckResult("semidirect-order", True, "orders 8, 48, 6, 1 as expected")


def check_projection_products() -> CheckResult:
    C = z4_example_code()
    prods = []
    for J in ((0,), (1,), (2,)):
        K = tuple(i for i in range(3) if i not in J)
        prods.append(projection(C, J).size * projection(C, K).size)
    witness = is_decomposable(C)
    ok = prods == [16, 16, 16] and witness is None and C.size == 8
    return CheckResult("projection-products", ok,
                       f"products {prods}, split witness {witness}")


def check_interleaving_table() -> CheckResult:
    D = even_weight_code(3)
    sigma = interleave_permutation(3, 2)
    if sigma != (1, 3, 5, 2, 4, 6):
        return CheckResult("interleaving-table", False, f"sigma {sigma}")
    C = interleave(D, 2)
    equiv = Equivalence(tuple(s - 1 for s in sigma))
    pairs = {(src, equiv.push(src))
             for src in (a + b for a in D.words for b in D.words)}
    if pairs != set(INTERLEAVE_DEMO_PAIRS):
        return CheckResult("interleaving-table", False, "row mismatch against the stored table")
    if set(C.words) != {dst for _, dst in INTERLEAVE_DEMO_PAIRS}:
        return CheckResult("interleaving-table", False, "code differs from table image")
    if not is_cyclic(C):
        return CheckResult("interleaving-table", False, "output not cyclic")
    return CheckResult("interleaving-table", True, "16 rows bit-exact, sigma (1,3,5,2,4,6), cyclic")


def check_metric_and_sums(rng: random.Random) -> CheckResult:
    for _ in range(200):
        q = rng.choice([2, 3, 4])
        n = rng.randrange(1, 6)
        x, y, z = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(3))
        if hamming_distance(x, y) != hamming_distance(y, x):
            return CheckResult("metric-and-sums", False, "symmetry broke")
        if hamming_distance(x, z) > hamming_distance(x, y) + hamming_distance(y, z):
            return CheckResult("metric-and-sums", False, "triangle inequality broke")
    corpus = [c for c in mixed_corpus(rng) if isinstance(c, GroupCode)]
    for C in corpus:
        if C.size >= 2 and min_distance(C) != min_weight_nonidentity(C):
            return CheckResult("metric-and-sums", False, f"weight shortcut mismatch on {C}")
    for _ in range(20):
        G = cyclic_group(rng.choice([2, 3]))
        n1, n2 = rng.randrange(1, 4), rng.randrange(1, 4)
        w1 = rng.sample(sorted(all_words(G.order, n1)), rng.randrange(1, min(5, G.order**n1) + 1))
        w2 = rng.sample(sorted(all_words(G.order, n2)), rng.randrange(1, min(5, G.order**n2) + 1))
        A = Code.from_words(G, n1, w1)
        B = Code.from_words(G, n2, w2)
        S = direct_sum(A, B)
        if S.length != n1 + n2 or S.size != A.size * B.size:
            return CheckResult("metric-and-sums", False, "sum cardinality or length broke")
        if A.size >= 2 and B.size >= 2:
            if min_distance(S) != min(min_distance(A), min_distance(B)):
                return CheckResult("metric-and-sums", False, "sum distance broke")
        swap = direct_sum(B, A)
        perm = tuple(range(n1, n1 + n2)) + tuple(range(n1))
        ident = tuple(range(G.order))
        swap_iso = Isometry(Configuration((ident,) * (n1 + n2)), Equivalence(perm))
        if set(apply_to_code(swap_iso, S).words) != set(swap.words):
            return CheckResult("metric-and-sums", False, "block swap is not an isomorphism witness")
    return CheckResult("metric-and-sums", True,
                       "metric axioms, weight shortcut, and sum properties hold")


def check_certificates(rng: random.Random) -> CheckResult:
    cases: list[GroupCode] = [binary_repetition(n) for n in (3, 5, 7, 9)]
    cases.append(hamming_7_4_code())
    cases.extend(constant_weight_corpus(rng, samples_per_shape=3))
    checked = 0
    for C in cases:
        tag = indecomposability_certificate(C)
        if tag is None:
            return CheckResult("certificates-sound", False, f"uncertified corpus member {C}")
        if is_decomposable(C) is not None:
            return CheckResult("certificates-sound", False, f"certificate {tag} contradicted on {C}")
        checked += 1
    return CheckResult("certificates-sound", True,
                       f"{checked} certified codes agree with exhaustive search")


def check_unique_decomposition(rng: random.Random, trials: int) -> CheckResult:
    groups = small_groups()
    done = 0
    for t in range(trials):
        G = groups[t % len(groups)]
        total, picked = random_sum_construction(rng, G)
        scrambled = scramble(rng, total)
        if not recover_isotypes(scrambled, picked):
            shape = [(c.length, c.size, a) for c, a in picked]
            return CheckResult("unique-decomposition", False,
                               f"trial {t} over {G.label} failed ({shape})")
        done += 1
    return CheckResult("unique-decomposition", True,
                       f"{done}/{trials} scrambled sums recovered their isotypes")


def check_automorphism_structure() -> CheckResult:
    auts = {"Z/2": 1, "Z/3": 2, "Z/4": 2, "V4": 6}
    for G in small_groups():
        for n in (1, 2, 3):
            want = auts[G.label]**n * math.factorial(n)
            got = aut_group(full_space(G, n)).order
            if got != want:
                return CheckResult("automorphism-structure", False,
                                   f"Aut({G.label}^{n}) = {got}, expected {want}")
    D = even_weight_code(3)
    R3 = binary_repetition(3)
    sums = [
        [D, D],
        [R3, R3, R3],
        [D, R3],
        [repetition_code(cyclic_group(3), 2), repetition_code(cyclic_group(3), 2)],
    ]
    for parts in sums:
        total = cast(GroupCode, direct_sum_all(parts))
        counts: dict[int, int] = {}
        reps: list[GroupCode] = []
        for p in parts:
            for i, r in enumerate(reps):
                if gc_isomorphic(r, p) is not None:
                    counts[i] += 1
                    break
            else:
                reps.append(p)
                counts[len(reps) - 1] = 1
        predicted = 1
        for i, r in enumerate(reps):
            predicted *= aut_group(r).order ** counts[i] * math.factorial(counts[i])
        # max_bits=0 caps aut's own decomposition, so the whole code is
        # searched as one block: independent of the assembly from components
        got = aut_group(total, max_bits=0).order
        if got != predicted:
            return CheckResult("automorphism-structure", False,
                               f"sum order {got} != predicted {predicted}")
        report = aut_group(total)
        if report.elements is not None:
            for el in report.elements[:8]:
                if not verify_block_preservation(parts, el):
                    return CheckResult("automorphism-structure", False,
                                       "an automorphism violates block preservation")
    return CheckResult("automorphism-structure", True,
                       "full-space and direct-sum orders match the product formulas")


def check_prop2(rng: random.Random) -> CheckResult:
    mds = perfect = 0
    for C in mixed_corpus(rng):
        if C.size < 2:
            continue
        p = parameters(C)
        if is_mds(C):
            mds += 1
            if is_trivial(C) != (p.min_distance == 1):
                return CheckResult("classification-biconditionals", False,
                                   f"MDS biconditional broke on {C}")
        if is_perfect(C):
            perfect += 1
            if is_trivial(C) != (p.correction_capacity == 0):
                return CheckResult("classification-biconditionals", False,
                                   f"perfect biconditional broke on {C}")
    return CheckResult("classification-biconditionals", True,
                       f"{mds} MDS and {perfect} perfect codes pass both biconditionals")


def check_cyclic_structure() -> CheckResult:
    Z2 = cyclic_group(2)
    decomposable = 0
    for C in cyclic_corpus():
        if not is_cyclic(C):
            return CheckResult("cyclic-structure", False, f"corpus member not cyclic: {C}")
        cert = gcd_certificate(C)
        witness = is_decomposable(C)
        if cert is not None and witness is not None:
            return CheckResult("cyclic-structure", False, f"gcd certificate contradicted on {C}")
        if witness is not None:
            structure = cyclic_structure(C)  # raises on a theorem violation
            decomposable += 1
            if structure.multiplicity < 2:
                return CheckResult("cyclic-structure", False, f"bad multiplicity on {C}")
    full = full_space(Z2, 3)
    if is_decomposable(full) is None or gcd_certificate(full) is not None:
        return CheckResult("cyclic-structure", False, "full-space converse exhibit failed")
    return CheckResult("cyclic-structure", True,
                       f"{decomposable} decomposable cyclic codes have isomorphic cyclic components")


def check_perfect_oracle(rng: random.Random) -> CheckResult:
    count = 0
    for C in mixed_corpus(rng):
        if C.alphabet.order ** C.length > DEFAULT_ENUMERATION_GATE:
            continue
        if is_perfect(C) != perfect_by_enumeration(C):
            return CheckResult("perfect-covering-oracle", False, f"disagreement on {C}")
        count += 1
    return CheckResult("perfect-covering-oracle", True,
                       f"sphere packing matches covering enumeration on {count} codes")
