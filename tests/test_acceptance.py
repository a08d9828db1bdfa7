"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass line (run with -s to see them); a failed
assertion is the corresponding fail line. Expected values are frozen from
independent derivations: brute-force enumeration, hand-checkable
arithmetic, and the reference tables.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import groupcodes as gc
from groupcodes.catalog import binary_repetition, even_weight_code, hamming_7_4_code, repetition_code
from groupcodes.selftest import (constant_weight_corpus, cyclic_corpus,
                                 mixed_corpus, random_sum_construction,
                                 scramble, small_groups)


def _finish(criterion: int, t0: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {criterion}: PASS ({detail}; {elapsed:.2f}s)")


def test_criterion_1_z4_projection_products():
    t0 = time.perf_counter()
    C = gc.GroupCode.generate(gc.cyclic_group(4), 3, [(2, 0, 0), (1, 2, 1)])
    assert C.size == 8
    factors = []
    for J in ((0,), (1,), (2,)):
        K = tuple(i for i in range(3) if i not in J)
        factors.append((gc.projection(C, J).size, gc.projection(C, K).size))
    assert factors == [(4, 4), (2, 8), (4, 4)]
    assert all(a * b == 16 for a, b in factors)
    assert gc.is_decomposable(C) is None
    _finish(1, t0, 1.0, "projection products 4*4, 2*8, 4*4 = 16; no split exists")


# the sixteen reference rows, frozen independently of the library
CRITERION_2_TABLE = {
    (0, 0, 0, 0, 0, 0): (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 1, 0): (0, 1, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 1): (0, 0, 0, 1, 0, 1),
    (0, 0, 0, 1, 0, 1): (0, 1, 0, 0, 0, 1),
    (1, 1, 0, 0, 0, 0): (1, 0, 1, 0, 0, 0),
    (1, 1, 0, 1, 1, 0): (1, 1, 1, 1, 0, 0),
    (1, 1, 0, 0, 1, 1): (1, 0, 1, 1, 0, 1),
    (1, 1, 0, 1, 0, 1): (1, 1, 1, 0, 0, 1),
    (0, 1, 1, 0, 0, 0): (0, 0, 1, 0, 1, 0),
    (0, 1, 1, 1, 1, 0): (0, 1, 1, 1, 1, 0),
    (0, 1, 1, 0, 1, 1): (0, 0, 1, 1, 1, 1),
    (0, 1, 1, 1, 0, 1): (0, 1, 1, 0, 1, 1),
    (1, 0, 1, 0, 0, 0): (1, 0, 0, 0, 1, 0),
    (1, 0, 1, 1, 1, 0): (1, 1, 0, 1, 1, 0),
    (1, 0, 1, 0, 1, 1): (1, 0, 0, 1, 1, 1),
    (1, 0, 1, 1, 0, 1): (1, 1, 0, 0, 1, 1),
}


def test_criterion_2_interleaving_table():
    t0 = time.perf_counter()
    D = even_weight_code(3)
    assert set(D.words) == {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
    sigma = gc.interleave_permutation(3, 2)
    assert list(sigma) == [1, 3, 5, 2, 4, 6]
    equiv = gc.Equivalence(tuple(s - 1 for s in sigma))
    produced = {src: gc.apply_push(equiv, src)
                for src in (a + b for a in D.words for b in D.words)}
    assert produced == CRITERION_2_TABLE  # bit-exact, all 16 pairs
    C = gc.interleave(D, 2)
    assert set(C.words) == set(CRITERION_2_TABLE.values())
    assert gc.is_cyclic(C)
    _finish(2, t0, 1.0, "all 16 rows bit-exact, sigma = [1,3,5,2,4,6], output cyclic")


def test_criterion_3_isometry_factorization():
    t0 = time.perf_counter()
    counts = {}
    for n in (2, 3):
        words = list(itertools.product(range(2), repeat=n))
        m = len(words)
        dist = [[sum(a != b for a, b in zip(words[i], words[j])) for j in range(m)]
                for i in range(m)]
        brute = set()
        for perm in itertools.permutations(range(m)):
            if all(dist[perm[i]][perm[j]] == dist[i][j]
                   for i in range(m) for j in range(i + 1, m)):
                brute.add(tuple(words[perm[i]] for i in range(m)))
        normal = {iso.as_map(2) for iso in gc.enumerate_isometries(2, n)}
        assert brute == normal  # every distance-preserving bijection is some f∘σ̄
        counts[n] = len(brute)
    assert counts == {2: 8, 3: 48}
    assert gc.isometry_group_order(2, 2) == 8 and gc.isometry_group_order(2, 3) == 48
    _finish(3, t0, 10.0, "8 maps for n=2 and 48 for n=3, all in normal form")


def test_criterion_4_indecomposability_certificates():
    t0 = time.perf_counter()
    rng = random.Random(404)
    cases: list[gc.GroupCode] = [binary_repetition(n) for n in (3, 5, 7, 9)]
    cases.append(hamming_7_4_code())
    cw = constant_weight_corpus(rng, max_n=8)
    assert len(cw) >= 20  # the generated corpus is non-trivial
    cases.extend(cw)
    disagreements = 0
    for C in cases:
        assert gc.indecomposability_certificate(C) is not None, f"uncertified: {C}"
        if gc.is_decomposable(C) is not None:
            disagreements += 1
    assert disagreements == 0
    _finish(4, t0, 60.0,
            f"{len(cases)} certified codes, exhaustive search agrees on every one")


def test_criterion_5_unique_decomposition_recovery():
    t0 = time.perf_counter()
    rng = random.Random(505)
    groups = small_groups()
    trials = 100
    recovered = 0
    for t in range(trials):
        G = groups[t % len(groups)]
        total, picked = random_sum_construction(rng, G)
        assert total.length <= 12
        scrambled = scramble(rng, total)
        dec = gc.decompose(scrambled)
        got = [(dec.components[rep], alpha) for rep, alpha in dec.isotypes]
        assert len(got) == len(picked)
        remaining = list(got)
        for comp, alpha in picked:
            hit = None
            for k, (rcomp, ralpha) in enumerate(remaining):
                assert isinstance(rcomp, gc.GroupCode)
                if ralpha == alpha and gc.gc_isomorphic(comp, rcomp) is not None:
                    hit = k
                    break
            assert hit is not None, f"trial {t}: isotype not recovered"
            remaining.pop(hit)
        assert not remaining
        recovered += 1
    assert recovered == trials  # 100% recovery
    _finish(5, t0, 300.0, f"{recovered}/{trials} scrambled sums recovered exactly")


def brute_group_aut_order(G: gc.FiniteGroup) -> int:
    return sum(
        1 for perm in itertools.permutations(range(G.order))
        if all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in range(G.order) for b in range(G.order)))


def test_criterion_6_automorphism_structure():
    t0 = time.perf_counter()
    for G in small_groups():
        aut_g = brute_group_aut_order(G)
        for n in (1, 2, 3):
            got = gc.aut_group(gc.full_space(G, n)).order
            assert got == aut_g**n * math.factorial(n), (G.label, n)
    D = even_weight_code(3)
    R3 = binary_repetition(3)
    Z3, V4 = gc.cyclic_group(3), gc.klein_four_group()
    sums = [
        [D, D],
        [R3, R3, R3],
        [D, R3],
        [D, D, R3],
        [repetition_code(Z3, 2), repetition_code(Z3, 2)],
        [repetition_code(V4, 2), repetition_code(V4, 2)],
        [gc.full_space(Z3, 1), repetition_code(Z3, 2)],
    ]
    for parts in sums:
        total = gc.direct_sum_all(list(parts))
        assert isinstance(total, gc.GroupCode)
        reps: list[gc.GroupCode] = []
        alphas: list[int] = []
        for p in parts:
            for i, r in enumerate(reps):
                if gc.gc_isomorphic(r, p) is not None:
                    alphas[i] += 1
                    break
            else:
                reps.append(p)
                alphas.append(1)
        predicted = 1
        for r, a in zip(reps, alphas):
            predicted *= gc.aut_group(r).order ** a * math.factorial(a)
        assert gc.aut_group(total).order == predicted
    _finish(6, t0, 300.0,
            "orders |Aut(G)|^n * n! on full spaces and the product formula on sums")


def test_criterion_7_cyclic_structure():
    t0 = time.perf_counter()
    violations = 0
    decomposable_seen = 0
    for C in cyclic_corpus():
        assert gc.is_cyclic(C)
        cert = gc.gcd_certificate(C)
        witness = gc.is_decomposable(C)
        if cert is not None and witness is not None:
            violations += 1  # a present certificate may never contradict the search
        if witness is not None:
            s = gc.cyclic_structure(C)  # raises if components misbehave
            if not (s.components_pairwise_isomorphic and s.components_cyclic
                    and s.multiplicity >= 2):
                violations += 1
            decomposable_seen += 1
    assert decomposable_seen >= 8
    # converse exhibit: (Z/2)^3 is decomposable although the exponent gcd of
    # the alphabet order is coprime to n, so no converse of the gcd test holds
    full = gc.full_space(gc.cyclic_group(2), 3)
    assert gc.is_decomposable(full) is not None
    assert gc.gcd_certificate(full) is None
    alphabet_exponent_gcd = 1  # |Z/2| = 2^1
    assert math.gcd(alphabet_exponent_gcd, 3) == 1
    assert violations == 0
    _finish(7, t0, 120.0,
            f"{decomposable_seen} decomposable cyclic codes structured; zero violations")


def test_criterion_8_mds_perfect_biconditionals():
    t0 = time.perf_counter()
    rng = random.Random(808)
    corpus = mixed_corpus(rng)
    corpus.extend([binary_repetition(7), gc.full_space(gc.klein_four_group(), 2)])
    mds_cases = perfect_cases = 0
    violations = 0
    branch = {("mds", True): 0, ("mds", False): 0,
              ("perfect", True): 0, ("perfect", False): 0}
    for C in corpus:
        if C.size < 2:
            continue
        p = gc.parameters(C)
        if gc.is_mds(C):
            mds_cases += 1
            branch[("mds", gc.is_trivial(C))] += 1
            if gc.is_trivial(C) != (p.min_distance == 1):
                violations += 1
        if gc.is_perfect(C):
            perfect_cases += 1
            branch[("perfect", gc.is_trivial(C))] += 1
            if gc.is_trivial(C) != (p.correction_capacity == 0):
                violations += 1
    assert violations == 0
    assert all(count > 0 for count in branch.values())  # both sides exercised
    _finish(8, t0, 60.0,
            f"{mds_cases} MDS and {perfect_cases} perfect codes, zero violations")
