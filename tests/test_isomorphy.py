"""Group-code isomorphism search and automorphism groups, with brute oracles."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import groupcodes as gc
from groupcodes.catalog import repetition_code
from groupcodes.errors import ClosureError, IncompatibleError, ResourceLimitError
from groupcodes.autgroup import _large_order_generators, _symmetric_generators
from groupcodes.isomorphy import GroupCodeIso, _IsoSearch
from oracles import (expand_leaf, find_all_leaves, greedy_generators, mul_closure,
                     pair_product_holds)
from test_aut_assembly import ALPHABETS as SUM_ALPHABETS, scrambled_sums


def brute_force_gc_automorphism_count(C: gc.GroupCode) -> int:
    """Oracle: filter the full isometry group of G^n for code automorphisms."""
    G = C.alphabet
    count = 0
    for iso in gc.enumerate_isometries(G.order, C.length):
        if {iso.apply(w) for w in C.words} != C.word_set:
            continue
        hom = all(iso.apply(gc.word_mul(G, x, y)) ==
                  gc.word_mul(G, iso.apply(x), iso.apply(y))
                  for x in C.words for y in C.words)
        if hom:
            count += 1
    return count


def brute_force_group_aut_count(G: gc.FiniteGroup) -> int:
    count = 0
    for perm in itertools.permutations(range(G.order)):
        if all(perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
               for a in range(G.order) for b in range(G.order)):
            count += 1
    return count


def test_gc_isomorphic_reflexive_identity(code_d):
    witness = gc.gc_isomorphic(code_d, code_d)
    assert witness is not None
    assert witness.iso == gc.identity_isometry(2, 3)
    assert witness.verify()


def test_gc_isomorphic_swapped_sums(code_d, rep3):
    left = gc.direct_sum(code_d, rep3)
    right = gc.direct_sum(rep3, code_d)
    witness = gc.gc_isomorphic(left, right)
    assert witness is not None and witness.verify()
    # the explicit block swap is itself a valid witness
    perm = tuple(range(3, 6)) + tuple(range(3))
    swap = gc.from_permutation(perm, 2)
    assert {swap.apply(w) for w in left.words} == right.word_set


def test_gc_isomorphic_weight_distribution_precheck(code_d, rep3):
    assert gc.gc_isomorphic(code_d, rep3) is None  # weights {2,2,2} vs {3}


def test_gc_isomorphic_requires_same_alphabet(code_d, z3):
    other = repetition_code(z3, 3)
    with pytest.raises(IncompatibleError):
        gc.gc_isomorphic(code_d, other)


def test_gc_isomorphic_symmetry_and_transitivity(z3):
    rng = random.Random(31)
    base = repetition_code(z3, 2)
    auts = gc.automorphisms(z3)

    def scramble():
        perm = list(range(2))
        rng.shuffle(perm)
        maps = tuple(rng.choice(auts).mapping for _ in range(2))
        iso = gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))
        return gc.GroupCode.from_words(z3, 2, gc.apply_to_code(iso, base).words)

    A, B, C = scramble(), scramble(), scramble()
    ab = gc.gc_isomorphic(A, B)
    bc = gc.gc_isomorphic(B, C)
    assert ab is not None and bc is not None
    # inverse witness maps B onto A
    back = gc.inverse(ab.iso)
    assert {back.apply(w) for w in B.words} == A.word_set
    # composite witness maps A onto C
    through = gc.compose(bc.iso, ab.iso)
    assert {through.apply(w) for w in A.words} == C.word_set


def test_gc_isomorphic_witness_preserves_weights(code_d):
    scrambled = gc.GroupCode.from_words(
        code_d.alphabet, 3,
        gc.apply_to_code(gc.from_permutation((2, 0, 1), 2), code_d).words)
    witness = gc.gc_isomorphic(code_d, scrambled)
    assert witness is not None
    e = (0, 0, 0)
    for w in code_d.words:
        assert gc.weight(witness.iso.apply(w), e) == gc.weight(w, e)


def test_gc_isomorphic_search_cap(z3):
    base = repetition_code(z3, 2)
    relabel = gc.Isometry(gc.Configuration(((0, 2, 1), (0, 1, 2))),
                          gc.Equivalence((0, 1)))
    other = gc.GroupCode.from_words(z3, 2, gc.apply_to_code(relabel, base).words)
    assert other.words != base.words  # the equality fast path must not trigger
    with pytest.raises(ResourceLimitError):
        gc.gc_isomorphic(base, other, max_nodes=1)
    assert gc.gc_isomorphic(base, other) is not None


def test_aut_group_orders_small_planes(z2, z3):
    assert gc.aut_group(gc.full_space(z2, 2)).order == 2
    assert gc.aut_group(gc.full_space(z3, 2)).order == 8


def test_aut_group_matches_brute_force_on_d(code_d):
    report = gc.aut_group(code_d)
    assert report.order == brute_force_gc_automorphism_count(code_d) == 6


def test_aut_group_square_structure(code_d):
    square = gc.direct_sum(code_d, code_d)
    report = gc.aut_group(square)
    assert report.order == 6**2 * 2 == brute_force_gc_automorphism_count(square)


def test_aut_group_full_space_formula():
    for G in (gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4),
              gc.klein_four_group()):
        aut_g = brute_force_group_aut_count(G)
        for n in (1, 2, 3):
            got = gc.aut_group(gc.full_space(G, n)).order
            assert got == aut_g**n * math.factorial(n)


def test_aut_group_generators_close(code_d):
    report = gc.aut_group(code_d)
    assert report.elements is not None
    closure = mul_closure([g.iso for g in report.generators])
    assert len(closure) == report.order
    assert set(report.elements) == closure


def test_aut_group_with_structure_assertion(code_d):
    square = gc.direct_sum(code_d, code_d)
    dec = gc.decompose(square)
    report = gc.aut_group(square, dec)
    assert report.structure == ((0, 6, 2),)
    assert report.order == 6**2 * 2


def test_aut_group_mixed_sum_structure(code_d, rep3):
    total = gc.direct_sum(code_d, rep3)
    dec = gc.decompose(total)
    report = gc.aut_group(total, dec)
    assert report.order == gc.aut_group(code_d).order * gc.aut_group(rep3).order
    assert report.structure is not None and len(report.structure) == 2


def test_aut_group_identity_subcode_counts_extensions(z4):
    # {e}^2 over Z/4: every identity-fixing relabeling and coordinate swap
    trivial = gc.GroupCode.from_words(z4, 2, [(0, 0)])
    report = gc.aut_group(trivial)
    assert report.order == math.factorial(3) ** 2 * 2


def test_aut_group_large_order_generators_path(z4):
    trivial4 = gc.GroupCode.from_words(z4, 4, [(0, 0, 0, 0)])
    report = gc.aut_group(trivial4)
    assert report.order == math.factorial(3) ** 4 * math.factorial(4) == 31104
    assert report.elements is None  # above the explicit cap
    closure = mul_closure([g.iso for g in report.generators], cap=40000)
    assert len(closure) == 31104


def test_aut_group_resource_cap(code_d):
    with pytest.raises(ResourceLimitError):
        gc.aut_group(gc.direct_sum(code_d, code_d), max_nodes=5)


def test_verify_block_preservation_identity_and_swap(code_d):
    parts = [code_d, code_d]
    ident = gc.identity_isometry(2, 6)
    assert gc.verify_block_preservation(parts, ident)
    swap = gc.from_permutation((3, 4, 5, 0, 1, 2), 2)
    assert gc.verify_block_preservation(parts, swap)


def test_verify_block_preservation_all_automorphisms(code_d, rep3):
    parts = [code_d, rep3]
    report = gc.aut_group(gc.direct_sum(code_d, rep3))
    assert report.elements is not None
    for el in report.elements:
        assert gc.verify_block_preservation(parts, el)


def test_verify_block_preservation_rejects_non_automorphism(code_d, rep3):
    parts = [code_d, rep3]
    bad = gc.from_permutation((1, 0, 2, 3, 4, 5), 2)  # swaps inside D, fine
    # a permutation moving a D coordinate into the repetition block is not
    # an automorphism of the sum
    really_bad = gc.from_permutation((3, 1, 2, 0, 4, 5), 2)
    assert gc.verify_block_preservation(parts, bad)
    with pytest.raises(Exception):
        gc.verify_block_preservation(parts, really_bad)


def random_subgroups(rng, G, n, tries):
    seen = {}
    for _ in range(tries):
        gens = [tuple(rng.randrange(G.order) for _ in range(n))
                for _ in range(rng.choice([1, 2]))]
        C = gc.generate_group_code(G, n, gens)
        seen[C.words] = C
    return list(seen.values())


def brute_iso_exists(C, D):
    G = C.alphabet
    for iso in gc.enumerate_isometries(G.order, C.length):
        if {iso.apply(w) for w in C.words} != D.word_set:
            continue
        if all(iso.apply(gc.word_mul(G, x, y)) == gc.word_mul(G, iso.apply(x), iso.apply(y))
               for x in C.words for y in C.words):
            return True
    return False


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2)])
def test_search_matches_isometry_space_brute_force(q, n):
    # verdicts and automorphism counts against a filter over all of Iso(G^n)
    rng = random.Random(1000 + 10 * q + n)
    G = gc.cyclic_group(q)
    subs = random_subgroups(rng, G, n, tries=25)
    for C in subs[:6]:
        assert gc.aut_group(C).order == brute_force_gc_automorphism_count(C)
    for C, D in itertools.combinations(subs[:8], 2):
        assert (gc.gc_isomorphic(C, D) is not None) == brute_iso_exists(C, D)


def test_search_matches_brute_force_klein_alphabet(v4):
    rng = random.Random(77)
    subs = random_subgroups(rng, v4, 2, tries=20)
    for C in subs[:5]:
        assert gc.aut_group(C).order == brute_force_gc_automorphism_count(C)
    for C, D in itertools.combinations(subs[:6], 2):
        assert (gc.gc_isomorphic(C, D) is not None) == brute_iso_exists(C, D)


def test_verify_block_preservation_accepts_witness_wrapper(code_d, rep3):
    total = gc.direct_sum(code_d, rep3)
    w = gc.gc_isomorphic(total, total)
    assert gc.verify_block_preservation([code_d, rep3], w)


def test_code_equivalent_plain(z2):
    pair = gc.Code.from_words(z2, 2, [(0, 1), (1, 0)])
    flipped = gc.Code.from_words(z2, 2, [(0, 0), (1, 1)])
    iso = gc.code_equivalent(pair, flipped)
    assert iso is not None
    assert {iso.apply(w) for w in pair.words} == flipped.word_set
    assert gc.code_equivalent(pair, gc.Code.from_words(z2, 2, [(0, 0), (0, 1), (1, 0)])) is None


# differential tests of the fast paths against from-scratch oracles ---------

ALPHABETS = (gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4), gc.klein_four_group())
# longest length per alphabet whose isometry group (q!)^n n! stays enumerable
MAX_LENGTH = {2: 4, 3: 3, 4: 2}


@st.composite
def small_spaces(draw):
    G = draw(st.sampled_from(ALPHABETS))
    return G, draw(st.integers(1, MAX_LENGTH[G.order]))


def words_of(G, n):
    return st.tuples(*[st.integers(0, G.order - 1)] * n)


@st.composite
def small_group_codes(draw, space=None):
    G, n = space if space is not None else draw(small_spaces())
    gens = draw(st.lists(words_of(G, n), max_size=2))
    return gc.generate_group_code(G, n, gens)


@st.composite
def group_isometries(draw, G, n):
    """Coordinate permutation plus one group automorphism per coordinate:
    maps subgroups of G^n onto subgroups."""
    perm = draw(st.permutations(range(n)))
    auts = gc.automorphisms(G)
    maps = tuple(draw(st.sampled_from(auts)).mapping for _ in range(n))
    return gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))


@st.composite
def isometries(draw, q, n):
    perm = draw(st.permutations(range(n)))
    maps = tuple(tuple(draw(st.permutations(range(q)))) for _ in range(n))
    return gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))


def scratch_greedy_generators(elements):
    """The greedy choice re-closing the whole group after every pick."""
    ident = gc.identity_isometry(len(elements[0].config.maps[0]), elements[0].n)
    gens: list = []
    closed = {ident}
    for el in elements:
        if el not in closed:
            gens.append(el)
            closed = mul_closure(gens) | {ident}
    return tuple(gens)


def scratch_large_order_generators(search, leaves):
    """Quotient greedy re-closing the signature set after every pick."""
    q, n = search.q, search.n

    def signature(iso):
        sigma = iso.equiv.perm
        return (sigma, tuple(tuple(iso.config.maps[j][a] for a in search.proj_in[sigma[j]])
                             for j in range(n)))

    def signature_closure(gens):
        start = gc.identity_isometry(q, n)
        closed, frontier = {signature(start)}, [start]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = gc.compose(x, g)
                if signature(y) not in closed:
                    closed.add(signature(y))
                    frontier.append(y)
        return closed

    quotient_gens: list = []
    seen = signature_closure(quotient_gens)
    for leaf in leaves:
        w = search.witness_from_leaf(leaf)
        if signature(w) not in seen:
            quotient_gens.append(w)
            seen = signature_closure(quotient_gens)
    normal_gens = []
    for j in range(n):
        comp = tuple(x for x in range(q) if x not in set(search.proj_in[j]))
        if len(comp) >= 2:
            for cycle in _symmetric_generators(comp):
                f = list(range(q))
                for a, b in cycle.items():
                    f[a] = b
                maps = [tuple(range(q))] * n
                maps[j] = tuple(f)
                normal_gens.append(gc.Isometry(gc.Configuration(tuple(maps)),
                                               gc.Equivalence(tuple(range(n)))))
    return tuple(quotient_gens + normal_gens)


@settings(max_examples=40, deadline=None)
@given(small_group_codes(), st.randoms(use_true_random=False))
def test_coset_closure_greedy_matches_scratch_greedy(C, rnd):
    report = gc.aut_group(C)
    elements = list(report.elements)
    assert tuple(g.iso for g in report.generators) == scratch_greedy_generators(elements)
    rnd.shuffle(elements)  # any element order, not only the sorted one
    assert greedy_generators(elements) == scratch_greedy_generators(elements)


def z4_half_sum(z4, halves, reps, scramble_seed=None):
    """Direct sum of copies of {00, 22} and of the Z/4 repetition code of
    length 2, optionally scrambled by a coordinate permutation and
    automorphisms of Z/4."""
    half = gc.GroupCode.from_words(z4, 2, [(0, 0), (2, 2)])
    total = gc.direct_sum_all([half] * halves + [repetition_code(z4, 2)] * reps)
    if scramble_seed is None:
        return total
    rng = random.Random(scramble_seed)
    perm = list(range(total.length))
    rng.shuffle(perm)
    auts = gc.automorphisms(z4)
    maps = tuple(rng.choice(auts).mapping for _ in perm)
    iso = gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))
    return gc.GroupCode.from_words(z4, total.length, gc.apply_to_code(iso, total).words)


@pytest.mark.parametrize("halves,reps,seed,closes", [
    (2, 0, None, True), (3, 0, None, True), (3, 0, 5, True), (1, 2, None, True),
    (2, 1, 7, True), (4, 0, None, False), (4, 0, 3, False)])
def test_large_order_generators_match_scratch_quotient_greedy(z4, halves, reps, seed, closes):
    C = z4_half_sum(z4, halves, reps, seed)
    search = _IsoSearch(C, C, group_mode=True)
    leaves = find_all_leaves(search)
    order = len(leaves) * search.extension_count()
    gens = _large_order_generators(search, leaves, len(leaves))
    assert gens == scratch_large_order_generators(search, leaves)
    report = gc.aut_group(C, explicit_cap=1)  # force the generators-only path
    assert report.elements is None and report.order == order
    assert tuple(g.iso for g in report.generators) == gens
    if closes:  # small enough for the from-scratch closure
        assert len(mul_closure(gens, cap=order)) == order


def brute_equivalent(C, D):
    return any({iso.apply(w) for w in C.words} == D.word_set
               for iso in gc.enumerate_isometries(C.alphabet.order, C.length))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_group_search_matches_isometry_enumeration(data):
    # exercises the prefix_sets branch of the search
    G, n = data.draw(small_spaces())
    C = data.draw(small_group_codes((G, n)))
    assert gc.aut_group(C).order == brute_force_gc_automorphism_count(C)
    if data.draw(st.booleans()):
        phi = data.draw(group_isometries(G, n))
        D = gc.GroupCode.from_words(G, n, gc.apply_to_code(phi, C).words)
    else:
        D = data.draw(small_group_codes((G, n)))
    witness = gc.gc_isomorphic(C, D)
    assert (witness is not None) == brute_iso_exists(C, D)
    if witness is not None:
        assert pair_product_holds(witness)


# the alphabets of the scrambled sums over fewer coordinates, so that no
# code has more than 81 words and the oracle's |C|² product stays small
VERIFY_ALPHABETS = [(G, {2: 6, 3: 4, 4: 3, 6: 2}[G.order]) for G, _ in SUM_ALPHABETS]


@settings(max_examples=150, deadline=None)
@given(scrambled_sums(VERIFY_ALPHABETS), st.data())
def test_verify_matches_the_pair_product(C, data):
    # C has a constant coordinate for each trivial part, one part in four
    G, n = C.alphabet, C.length
    D = gc.GroupCode.from_words(G, n, gc.apply_to_code(data.draw(group_isometries(G, n)), C).words)
    witness = gc.gc_isomorphic(C, D)
    assert witness is not None and witness.verify() and pair_product_holds(witness)
    # a random (σ, maps) candidate: per coordinate an automorphism of G, a
    # bijection fixing e (mostly no homomorphism) or any bijection, onto
    # the image of C when that is a group code, else onto D, which it misses
    bijections = sorted(itertools.permutations(range(G.order)))
    maps = st.sampled_from([a.mapping for a in gc.automorphisms(G)]) | st.sampled_from(
        [f for f in bijections if f[G.identity] == G.identity]) | st.sampled_from(bijections)
    phi = gc.Isometry(gc.Configuration(tuple(data.draw(maps) for _ in range(n))),
                      gc.Equivalence(tuple(data.draw(st.permutations(range(n))))))
    try:
        image = gc.GroupCode.from_words(G, n, gc.apply_to_code(phi, C).words)
    except ClosureError:
        image = D
    candidate = GroupCodeIso(phi, C, data.draw(st.sampled_from([image, D])))
    assert candidate.verify() == pair_product_holds(candidate)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_plain_search_matches_isometry_enumeration(data):
    # exercises the prefix_counts branch of the search
    G, n = data.draw(small_spaces())
    space = sorted(gc.all_words(G.order, n))
    words = data.draw(st.lists(st.sampled_from(space), min_size=1, max_size=8, unique=True))
    C = gc.Code.from_words(G, n, words)
    if data.draw(st.booleans()):
        D = gc.apply_to_code(data.draw(isometries(G.order, n)), C)
    else:
        others = data.draw(st.lists(st.sampled_from(space), min_size=len(words),
                                    max_size=len(words), unique=True))
        D = gc.Code.from_words(G, n, others)
    iso = gc.code_equivalent(C, D)
    assert (iso is not None) == brute_equivalent(C, D)
    if iso is not None:
        assert {iso.apply(w) for w in C.words} == D.word_set


def test_canonical_witness_is_first_extension(z4):
    # the witness maps complements in sorted order: the least of a leaf's extensions
    search = _IsoSearch(*[z4_half_sum(z4, 1, 1, 7)] * 2, group_mode=True)
    for leaf in find_all_leaves(search):
        expanded = expand_leaf(search, leaf)
        assert len(expanded) == search.extension_count() == 4
        assert search.witness_from_leaf(leaf) == expanded[0] == min(
            expanded, key=lambda iso: iso.config.maps)
