"""Differential tests of the automorphism group built from coset
searches (``_IsoSearch.run(cosets=True)``) and the decomposition
(``isomorphy._aut_leaves``, ``_assemble``, ``_explicit_elements``) against
the find-all search over the whole code (``oracles.find_all_leaves``),
its oracle, of the explicit group against the element by element
route (``oracles.direct_elements``, ``pair_picks``, ``ElementText``), and
of the generators' chain walk (``isomorphy._chain_picks``) against the
closure greedies (``oracles.greedy_picks``, ``large_order_generators``)."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import assume, event, example, given, reject, settings, strategies as st

import groupcodes as gc
from groupcodes import serialize as ser
from groupcodes.catalog import binary_repetition, hamming_7_4_code
from groupcodes.errors import PreconditionError, ResourceLimitError, TheoremViolationError
from groupcodes.groups import CosetClosure
from groupcodes.isometry import Isometry
from groupcodes.isomorphy import (GroupCodeIso, _assemble, _aut_leaves, _chain_picks,
                                  _explicit_elements, _IsoSearch, _one_block, _pair_keys)
from groupcodes.phases import Phases
from oracles import (aut_group_from_leaves, aut_report_to_json, direct_elements,
                     element_report_text, find_all_leaves, greedy_picks, inverse_points,
                     large_order_generators, leaf_maps, mul_closure, pair_picks)

S3 = ser.alphabet_from_json({"kind": "table", "label": "S3", "table": [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]})
# total length per alphabet, small enough for the whole-code search
ALPHABETS = [(gc.cyclic_group(2), 6), (gc.cyclic_group(3), 5), (gc.cyclic_group(4), 4),
             (gc.klein_four_group(), 4), (S3, 4)]


@st.composite
def parts(draw, G, n, halves=False):
    """A small group code of length n, the trivial code (a zero coordinate)
    one time in four; with ``halves``, a Z/4 part is drawn over the
    subgroup {0, 2} one time in three."""
    if draw(st.integers(0, 3)) == 0:
        return gc.GroupCode.from_words(G, n, [(G.identity,) * n])
    step = 2 if halves and G.label == "Z/4" and draw(st.integers(0, 2)) == 0 else 1
    words = st.tuples(*[st.integers(0, G.order // step - 1).map(step.__mul__)] * n)
    return gc.generate_group_code(G, n, draw(st.lists(words, min_size=1, max_size=2)))


@st.composite
def scrambled_sums(draw, alphabets=ALPHABETS, halves=False):
    """A direct sum with repeated parts, its coordinates permuted and each
    relabelled by an automorphism of the alphabet."""
    G, budget = draw(st.sampled_from(alphabets))
    summands = []
    while budget > 0 and len(summands) < 4:
        n = draw(st.integers(1, min(2, budget)))
        part = draw(parts(G, n, halves))
        copies = draw(st.integers(1, budget // n))
        summands += [part] * copies
        budget -= n * copies
        if draw(st.booleans()):
            break
    total = gc.direct_sum_all(summands)
    perm = draw(st.permutations(range(total.length)))
    auts = gc.automorphisms(G)
    maps = tuple(draw(st.sampled_from(auts)).mapping for _ in perm)
    phi = gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))
    return gc.GroupCode.from_words(G, total.length, gc.apply_to_code(phi, total).words)


@st.composite
def group_codes(draw):
    """A random group code of up to the alphabet's budget of coordinates,
    from up to three generating words."""
    G, budget = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, budget))
    words = st.tuples(*[st.integers(0, G.order - 1)] * n)
    return gc.generate_group_code(G, n, draw(st.lists(words, min_size=1, max_size=3)))


def objects(leaves):
    """Leaves with each restriction dict by identity."""
    return [(sigma, tuple(map(id, restr))) for sigma, restr in leaves]


def report_text(report) -> str:
    return ser.aut_report_dumps(report)


def aut_parts(C, dec):
    """As ``aut_group`` runs them: C's decomposition (C as one block when
    it is indecomposable), the search over C, the representatives' leaves
    in DFS order and the structure rows."""
    if dec.indecomposable:
        dec = _one_block(C)
    search, searched, rows, _ = _aut_leaves(C, dec, max_nodes=10**6)
    return dec, search, [list(ks.dfs_leaves(*coset)) for ks, *coset in searched], rows


def expansion(search, leaves):
    """Every automorphism over the leaves as (σ, maps), sorted."""
    return sorted((leaf[0], maps) for leaf in leaves for maps in leaf_maps(search, leaf))


# The whole-code find-all searches of the tests below run within this
# many nodes. A find-all search visits every leaf of C, and on these codes
# rarely more than three nodes per leaf, so the tests keep the codes with
# at most a quarter of the budget in leaves, counted by the coset searches
# first. Unbounded, a drawn full space S3^4 (31,104 leaves, 36,745 nodes
# over 1,296 words) took 14 s of one example.
NODE_BUDGET = 20_000


@settings(max_examples=100, deadline=None)
@given(st.one_of(group_codes(), scrambled_sums()))
def test_coset_search_finds_the_find_all_leaves_within_its_nodes(C):
    search = _IsoSearch(C, C, group_mode=True)
    identity, found = search.run(cosets=True)
    nodes = search.nodes
    if math.prod(1 + len(reps) for reps in found) > NODE_BUDGET // 4:
        reject()
    leaves = list(search.dfs_leaves(identity, found))
    # the oracle shares the candidate lists, so the dicts are the same objects
    oracle = _IsoSearch(C, C, group_mode=True, maps=search._maps_by_projections,
                        max_nodes=NODE_BUDGET)
    try:
        expected = find_all_leaves(oracle)
    except ResourceLimitError:
        reject()
    event(f"find-all nodes < {10 ** len(str(oracle.nodes))}")
    assert nodes <= oracle.nodes
    assert len(leaves) == math.prod(1 + len(reps) for reps in found)
    assert objects(leaves) == objects(expected)  # same list, order and dict objects
    if len(expected) * search.extension_count() <= 10**4:
        assert _explicit_elements(search, _one_block(C), [leaves]) == expansion(search, expected)


def test_coset_search_of_the_hamming_code():
    H = hamming_7_4_code()
    search = _IsoSearch(H, H, group_mode=True)
    identity, found = search.run(cosets=True)
    assert search.nodes <= 400
    oracle = _IsoSearch(H, H, group_mode=True, maps=search._maps_by_projections)
    expected = find_all_leaves(oracle)
    assert (len(expected), oracle.nodes) == (168, 2108)
    assert objects(search.dfs_leaves(identity, found)) == objects(expected)


def leaf_count(C) -> int:
    """The number of leaves of C's find-all search, from the coset searches."""
    dec = gc.decompose(C)
    return _aut_leaves(C, _one_block(C) if dec.indecomposable else dec, max_nodes=10**6)[3]


@settings(max_examples=120, deadline=None)
@given(scrambled_sums().filter(lambda C: leaf_count(C) <= NODE_BUDGET // 4),
       st.sampled_from([1, 50, 10**4]))
def test_assembled_leaves_and_reports_match_the_whole_code_search(C, explicit_cap):
    dec = gc.decompose(C)
    parts, search, rep_leaves, rows = aut_parts(C, dec)
    leaves = _assemble(search, parts, rep_leaves)
    before = search.nodes  # a one-block C ran its coset search on it
    search.max_nodes = before + NODE_BUDGET
    try:
        expected = find_all_leaves(search)
    except ResourceLimitError:
        reject()
    event(f"find-all nodes < {10 ** len(str(search.nodes - before))}")
    assert objects(leaves) == objects(expected)  # same list, order and dict objects
    if len(expected) * search.extension_count() <= 10**4:
        assert _explicit_elements(search, parts, rep_leaves) == expansion(search, expected)
    report = gc.aut_group(C, explicit_cap=explicit_cap)
    oracle = aut_group_from_leaves(search, expected, explicit_cap=explicit_cap)
    assert report_text(report) == report_text(oracle)
    # max_bits=0 caps the decomposition, so C is searched as one block
    assert report_text(report) == report_text(gc.aut_group(C, explicit_cap=explicit_cap,
                                                           max_bits=0))
    structured = gc.aut_group(C, dec, explicit_cap=explicit_cap)
    assert structured.order == report.order
    assert structured.generators == report.generators
    assert structured.elements == report.elements
    for t, (rep, alpha) in enumerate(dec.isotypes):
        K = dec.components[rep]
        ksearch = _IsoSearch(K, K, group_mode=True)
        assert structured.structure[t] == (
            t, len(find_all_leaves(ksearch)) * ksearch.extension_count(), alpha)


# the explicit group against the element by element route ---------------

Z4 = ALPHABETS[2][0]


@settings(max_examples=150, deadline=None)
@given(scrambled_sums(ALPHABETS[:4], halves=True), st.booleans())
def test_explicit_group_matches_the_element_by_element_route(C, with_structure):
    dec = gc.decompose(C)
    report = gc.aut_group(C, dec if with_structure else None)
    assume(report.element_pairs is not None)
    event(f"blocks: {len(dec.partition.blocks)}, "
          f"alpha up to {max(alpha for _, alpha in dec.isotypes)}")
    parts, search, rep_leaves, _ = aut_parts(C, dec)
    elements = direct_elements(search, parts, rep_leaves)
    assert list(report.element_pairs) == elements
    picks = pair_picks(elements, C.alphabet.order)
    generators = tuple(GroupCodeIso(Isometry._build(elements[k][1], elements[k][0]), C, C)
                       for k in picks)
    assert report.generators == generators
    oracle = dataclasses.replace(report, generators=generators, element_pairs=tuple(elements))
    assert ser.aut_report_dumps(report) == element_report_text(oracle)
    # a representative witness other than the identity is conjugated, and
    # gives the same group
    twisted = twist(dec)
    if twisted is not None:
        event("twisted witness")
        assert ser.aut_report_dumps(gc.aut_group(C, twisted)) == ser.aut_report_dumps(
            gc.aut_group(C, dec))


def twist(dec):
    """The decomposition with each representative's witness replaced by a
    non-identity automorphism of the representative, or None if none has one."""
    witnesses = list(dec.isotype_witnesses)
    for rep, _ in dec.isotypes:
        K = dec.components[rep]
        gens = gc.aut_group(K).generators
        if gens:
            witnesses[rep] = gens[-1].iso
    if witnesses == list(dec.isotype_witnesses):
        return None
    return dataclasses.replace(dec, isotype_witnesses=tuple(witnesses))


def canonical_calls(monkeypatch) -> list:
    """Log each call of ``_IsoSearch._canonical``."""
    calls = []
    original = _IsoSearch._canonical
    monkeypatch.setattr(_IsoSearch, "_canonical",
                        lambda self, *args: calls.append(args) or original(self, *args))
    return calls


# rep(Z/4, 2) twice: α = 2, every witness of decompose the identity
REP_Z4 = gc.GroupCode.from_words(Z4, 2, [(a, a) for a in range(4)])


def with_witness(dec, maps):
    """The decomposition with the first block's witness set to the isometry
    with these maps and the identity coordinate permutation."""
    w = gc.Isometry(gc.Configuration(maps), gc.Equivalence((0, 1)))
    return dataclasses.replace(dec, isotype_witnesses=(w,) + dec.isotype_witnesses[1:])


def test_blocks_with_the_identity_witness_are_not_conjugated(monkeypatch):
    C = gc.direct_sum(REP_Z4, REP_Z4)
    dec = gc.decompose(C)
    assert dec.isotype_members == ((0, 1),)
    parts, search, rep_leaves, _ = aut_parts(C, dec)
    calls = canonical_calls(monkeypatch)
    elements = _explicit_elements(search, parts, rep_leaves)
    leaves = _assemble(search, parts, rep_leaves)
    assert calls == []
    # the same leaves, dicts and all, as the whole-code search's
    expected = find_all_leaves(search)
    assert objects(leaves) == objects(expected)
    assert elements == expansion(search, expected)
    # an automorphism of rep(Z/4, 2) as the representative's witness is
    # conjugated, and gives the same leaves and group
    calls.clear()
    twisted = with_witness(dec, ((0, 3, 2, 1), (0, 3, 2, 1)))
    assert objects(_assemble(search, twisted, rep_leaves)) == objects(expected)
    assert calls
    monkeypatch.undo()
    assert ser.aut_report_dumps(gc.aut_group(C, twisted)) == ser.aut_report_dumps(
        gc.aut_group(C, dec))


def test_a_misordered_candidate_list_raises(monkeypatch):
    # the coset search and the chain walk take the first candidate
    # restriction of a coordinate onto itself as the identity; over Z/4 the
    # list is the identity, then x -> 3x
    original = _IsoSearch._candidate_maps
    monkeypatch.setattr(_IsoSearch, "_candidate_maps",
                        lambda self, i, j: original(self, i, j)[::-1])
    with pytest.raises(TheoremViolationError, match="misordered"):
        gc.aut_group(REP_Z4)


def test_wrong_witnesses_raise():
    # swapping 1 and 2 is no automorphism of Z/4: it conjugates x -> 3x
    # into a map that sends 2 to 3, no candidate restriction
    C = gc.direct_sum(REP_Z4, REP_Z4)
    wrong = with_witness(gc.decompose(C), ((0, 2, 1, 3), (0, 2, 1, 3)))
    with pytest.raises(TheoremViolationError, match="assembly is buggy"):
        gc.aut_group(C, wrong)
    # over V4, {00, 11} and {00, 22} are one isotype, by relabelling 1 and
    # 2; given the identity as the second block's witness, that block has
    # other words than the representative, so it is conjugated, and no
    # restriction maps {0, 2} onto {0, 1}
    V4 = ALPHABETS[3][0]
    C = gc.direct_sum(*[gc.GroupCode.from_words(V4, 2, [(0, 0), (a, a)]) for a in (1, 2)])
    dec = gc.decompose(C)
    assert dec.isotype_members == ((0, 1),)
    wrong = dataclasses.replace(dec, isotype_witnesses=(dec.isotype_witnesses[0],) * 2)
    with pytest.raises(TheoremViolationError, match="assembly is buggy"):
        gc.aut_group(C, wrong)


S3_DIAG2 = [(a, a) for a in range(6)]
A3 = (0, 3, 4)


def conjugate(x: int) -> int:
    """x under the inner automorphism of S3 by the transposition 1."""
    return S3.table[S3.table[1][x]][1]


@pytest.mark.parametrize("words", [
    # two S3 diagonals, one with conjugated coordinates, interleaved
    [(conjugate(x[1]), y[0], x[0], conjugate(y[1])) for x in S3_DIAG2 for y in S3_DIAG2],
    # the S3 diagonal, A3 twice and a zero coordinate, interleaved
    [(x[0], a, 0, x[1], c) for x in S3_DIAG2 for a in A3 for c in A3],
], ids=["s3_diag2_twice", "s3_mixed"])
def test_s3_sums_match_the_whole_code_search(words):
    C = gc.GroupCode.from_words(S3, len(words[0]), words)
    dec = gc.decompose(C)
    assert len(dec.components) > 1
    parts, search, rep_leaves, _ = aut_parts(C, dec)
    leaves = _assemble(search, parts, rep_leaves)
    expected = find_all_leaves(search)
    assert objects(leaves) == objects(expected)
    assert _explicit_elements(search, parts, rep_leaves) == expansion(search, expected)


# candidate restrictions: list positions and identity hashing -------------

def assembled(C):
    """The search over C, and leaf lists, each with the search whose
    candidate lists hold its restrictions: each representative's
    (``dfs_leaves``) and C's (``_assemble``), for C's decomposition and
    for it with twisted witnesses (``twist``), whose conjugated leaves
    ``_canonical`` looks up."""
    dec = gc.decompose(C)
    if dec.indecomposable:
        dec = _one_block(C)
    search, searched, _, _ = _aut_leaves(C, dec, max_nodes=10**6)
    leaves = [(ks, ks.dfs_leaves(identity, found)) for ks, identity, found in searched]
    rep_leaves = [kleaves for _, kleaves in leaves]
    for d in [dec, twist(dec)]:
        if d is not None:
            leaves.append((search, _assemble(search, d, rep_leaves)))
    return search, leaves


@settings(max_examples=100, deadline=None)
@given(scrambled_sums().filter(lambda C: leaf_count(C) <= NODE_BUDGET // 4))
@example(gc.direct_sum(REP_Z4, REP_Z4))
def test_leaf_restrictions_are_listed_at_their_positions(C):
    for search, leaves in assembled(C)[1]:
        for sigma, restr in leaves:
            for j, (i, f) in enumerate(zip(sigma, restr)):
                assert search._candidate_maps(i, j)[f.pos][0] is f


@settings(max_examples=100, deadline=None)
@given(scrambled_sums().filter(lambda C: leaf_count(C) <= NODE_BUDGET // 4))
@example(gc.direct_sum(REP_Z4, REP_Z4))
def test_candidate_lists_never_hold_equal_restrictions(C):
    # the premise of hashing restrictions by identity: no two restrictions
    # of the lists a search shares are equal, within a list or across lists
    search = assembled(C)[0]
    restrictions = [f for cands in search._maps_by_projections.values() for f, _ in cands]
    event(f"{len(search._maps_by_projections)} candidate lists")
    assert len({frozenset(f.items()) for f in restrictions}) == len(restrictions)


def d_sum(code_d, copies):
    return gc.direct_sum_all([code_d] * copies)


def test_aut_of_d4_assembles_every_leaf(code_d):
    C = d_sum(code_d, 4)
    parts, search, rep_leaves, _ = aut_parts(C, gc.decompose(C))
    assert len(_assemble(search, parts, rep_leaves)) == 31104
    assert search.nodes == 0  # no whole-code search ran
    report = gc.aut_group(C)
    assert report.order == 31104 and report.elements is None


def test_one_block_aut_of_d4_builds_no_copy_per_leaf(code_d):
    # D^4 searched as one block: 31,104 leaves composed from the coset
    # search, whose restrictions are the candidate lists' own objects
    C = d_sum(code_d, 4)
    tracemalloc.start()
    try:
        report = gc.aut_group(C, max_bits=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.order == 31104 and report.elements is None
    assert peak < 13 * 2**20


def test_component_cap_reports_only_non_identity_automorphisms(code_d):
    C = d_sum(code_d, 2)
    # D's coset search walks its identity path in 4 nodes; the cap comes in
    # the first search below it, before any other leaf
    with pytest.raises(ResourceLimitError) as err:
        gc.aut_group(C, max_nodes=5)
    assert err.value.incomplete and err.value.partial_generators == ()
    assert "component 0 (isotype 0)" in str(err.value)
    assert "non-identity automorphisms found: 0" in str(err.value)


def test_assembly_cap_counts_leaves_before_building_them(code_d, monkeypatch):
    # each coset search of D visits 12 nodes and finds 2 coset representatives
    # at depth 0 and 1 at depth 1, so |L_D| = 3 * 2 = 6; D^3 has 6^3 * 3! = 1296
    C = d_sum(code_d, 3)
    monkeypatch.setattr(_IsoSearch, "_times", lambda *args: pytest.fail("composed a leaf"))
    with pytest.raises(ResourceLimitError) as err:
        gc.aut_group(C, max_nodes=1000)
    assert "assembling 1296 automorphism search leaves" in str(err.value)
    partial = err.value.partial_generators
    assert len(partial) == 3  # D's coset representatives, on the first block
    for witness in partial:
        assert witness.source is C and witness.verify()
        assert witness.iso.equiv.perm[3:] == tuple(range(3, 9))
    # they generate Aut(D) on that block
    assert len(mul_closure([w.iso for w in partial])) == 6
    # a leaf is a node, so the whole-code search hits the same cap
    oracle = _IsoSearch(C, C, group_mode=True, max_nodes=1000)
    with pytest.raises(ResourceLimitError):
        find_all_leaves(oracle)


def test_coset_cap_counts_leaves_before_composing_them(monkeypatch):
    # the repetition code of length 6 is indecomposable; its coset search
    # visits 77 nodes and finds 5 + 4 + 3 + 2 + 1 representatives of 6! leaves
    C = binary_repetition(6)
    monkeypatch.setattr(_IsoSearch, "_times", lambda *args: pytest.fail("composed a leaf"))
    with pytest.raises(ResourceLimitError) as err:
        gc.aut_group(C, max_nodes=100)
    assert "assembling 720 automorphism search leaves" in str(err.value)
    partial = err.value.partial_generators
    assert len(partial) == 15 and all(w.verify() for w in partial)
    # the find-all search hits the node cap there
    with pytest.raises(ResourceLimitError):
        find_all_leaves(_IsoSearch(C, C, group_mode=True, max_nodes=100))
    monkeypatch.undo()
    assert gc.aut_group(C, max_nodes=720).order == 720


def test_whole_code_cap_drops_the_identity(code_d):
    # D is indecomposable; its coset search walks the identity path (4 nodes)
    # and finds a representative at depth 1 and one at depth 0 within 10 of
    # its 12 nodes
    with pytest.raises(ResourceLimitError) as err:
        gc.aut_group(code_d, max_nodes=10)
    assert "the whole code" in str(err.value)
    partial = [w.iso for w in err.value.partial_generators]
    assert len(partial) == 2 and gc.identity_isometry(2, 3) not in partial


def test_partition_cap_falls_back_to_the_whole_code_search(code_d):
    C = d_sum(code_d, 2)
    capped = gc.aut_group(C, max_bits=2)
    assert report_text(capped) == report_text(gc.aut_group(C))


def test_foreign_decomposition_is_rejected(code_d, rep3, z2):
    dec = gc.decompose(gc.direct_sum(code_d, rep3))
    with pytest.raises(PreconditionError):
        gc.aut_group(gc.direct_sum(rep3, code_d), dec)
    # each coordinate of D projects onto Z/2, but D is no direct sum of them
    with pytest.raises(PreconditionError):
        gc.aut_group(code_d, gc.decompose(gc.full_space(z2, 3)))


# the aut report writer and the generator choice --------------------------

# the trivial Z/4 code of length 2: 72 automorphisms over 2 coordinate
# permutations, so elements share σ and differ in their maps
Z4_TRIVIAL2 = gc.GroupCode.from_words(gc.cyclic_group(4), 2, [(0, 0)])


def oracle_text(report) -> str:
    """The report through the element-dict document and the json module."""
    return json.dumps(aut_report_to_json(report), indent=2) + "\n"


@settings(max_examples=120, deadline=None)
@given(scrambled_sums(), st.booleans(), st.sampled_from([1, 10**4]))
@example(Z4_TRIVIAL2, False, 10**4)
def test_elements_writer_matches_the_element_dict_report(C, with_structure, explicit_cap):
    dec = gc.decompose(C) if with_structure else None
    report = gc.aut_group(C, dec, explicit_cap=explicit_cap)
    assert ser.aut_report_dumps(report) == oracle_text(report)


def test_elements_writer_on_elements_that_share_sigma():
    report = gc.aut_group(Z4_TRIVIAL2)
    perms = [el.equiv.perm for el in report.elements]
    assert report.order == 72 and len(set(perms)) == 2
    assert ser.aut_report_dumps(report) == oracle_text(report)


# the generator choice: the chain walk against the closure ----------------

@settings(max_examples=150, deadline=None)
@given(scrambled_sums(halves=True), st.booleans())
@example(Z4_TRIVIAL2, False)
def test_chain_walk_picks_the_closure_greedy_generators(C, with_structure):
    dec = gc.decompose(C)
    report = gc.aut_group(C, dec if with_structure else None)
    assume(report.element_pairs is not None)
    event(f"alphabet {C.alphabet.label}, alpha up to {max(a for _, a in dec.isotypes)}")
    pairs = report.element_pairs
    q = C.alphabet.order
    picks = pair_picks(pairs, q)
    # x is generated exactly when x^-1 is, so the inverse point forms pick the same
    assert picks == greedy_picks(map(inverse_points, pairs), q * C.length, len(pairs))
    assert tuple(g.iso for g in report.generators) == tuple(
        Isometry._build(pairs[k][1], pairs[k][0]) for k in picks)


@settings(max_examples=100, deadline=None)
@given(scrambled_sums(halves=True).filter(lambda C: leaf_count(C) <= NODE_BUDGET // 4),
       st.booleans())
def test_large_path_walk_picks_the_closure_greedy_generators(C, with_structure):
    dec = gc.decompose(C)
    report = gc.aut_group(C, dec if with_structure else None, explicit_cap=1)
    assume(report.element_pairs is None)  # order 1 is listed
    parts, search, rep_leaves, _ = aut_parts(C, dec)
    leaves = _assemble(search, parts, rep_leaves)
    event(f"alphabet {C.alphabet.label}, {len(parts.partition.blocks)} blocks")
    assert tuple(g.iso for g in report.generators) == large_order_generators(search, leaves)


class Reads(list):
    """A list that records the positions read from it."""

    def __init__(self, items) -> None:
        super().__init__(items)
        self.read: set[int] = set()

    def __getitem__(self, k):
        self.read.add(k)
        return super().__getitem__(k)


class Tracked(Phases):
    """Phases that keep the names of the phases running in ``running``."""

    def __init__(self) -> None:
        super().__init__()
        self.running: list[str] = []

    @contextmanager
    def __call__(self, name):
        self.running.append(name)
        try:
            with super().__call__(name):
                yield
        finally:
            self.running.pop()


def test_chain_walk_reads_few_elements_and_builds_no_closure(code_d, rep3, monkeypatch):
    C = gc.direct_sum_all([code_d, rep3, rep3])
    report = gc.aut_group(C)
    pairs = Reads(report.element_pairs)
    assert len(pairs) == 432
    n, q = C.length, C.alphabet.order
    picks = _chain_picks(pairs, (tuple(range(n)), (tuple(range(q)),) * n), *_pair_keys(n), 432)
    assert tuple(g.iso for g in report.generators) == tuple(
        Isometry._build(pairs[k][1], pairs[k][0]) for k in picks)
    assert len(pairs.read) < 60
    # the generator step builds no closure, on either path; the search does
    phases = Tracked()
    built = []
    original = CosetClosure.__init__

    def spy(self, *args, **kwargs):
        built.append(tuple(phases.running))
        original(self, *args, **kwargs)

    monkeypatch.setattr(CosetClosure, "__init__", spy)
    for explicit_cap in (10**4, 1):
        again = gc.aut_group(gc.GroupCode.from_words(C.alphabet, n, C.words),
                             explicit_cap=explicit_cap, phases=phases)
        assert again.generators[0].iso == report.generators[0].iso
    assert built and not any("generators" in running for running in built)


def test_chain_walk_raises_on_a_listing_that_is_no_group(code_d):
    report = gc.aut_group(code_d)
    pairs = report.element_pairs
    identity = (tuple(range(3)), ((0, 1),) * 3)
    keys, acts = _pair_keys(3)
    assert _chain_picks(pairs, identity, keys, acts, 6) == [1, 2]
    with pytest.raises(TheoremViolationError, match="not the identity"):
        _chain_picks(pairs[1:], identity, keys, acts, 5)
    with pytest.raises(TheoremViolationError, match="listed for a group of order 12"):
        _chain_picks(pairs, identity, keys, acts, 12)
    with pytest.raises(TheoremViolationError, match="do not divide"):
        _chain_picks(pairs[:5], identity, keys, acts, 5)
    # two entries at one position, and an action that moves neither
    with pytest.raises(TheoremViolationError, match="1 of 2 points"):
        _chain_picks([0, 1], 0, [lambda x: x], [lambda g, v: v], 2)
