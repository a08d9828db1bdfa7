"""Differential tests of the automorphism group built from coset
searches (``_IsoSearch.run(cosets=True)``) and the decomposition
(``isomorphy._aut_leaves``, ``_assemble``, ``_direct_elements``) against
the find-all search over the whole code (``oracles.find_all_leaves``),
its oracle."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import groupcodes as gc
from groupcodes import serialize as ser
from groupcodes.catalog import binary_repetition, hamming_7_4_code
from groupcodes.errors import PreconditionError, ResourceLimitError
from groupcodes.isometry import pair_points, to_points
from groupcodes.isomorphy import (_assemble, _aut_leaves, _direct_elements, _greedy_picks,
                                  _IsoSearch, _one_block)
from oracles import (aut_group_from_leaves, aut_report_to_json, find_all_leaves, leaf_maps,
                     mul_closure)

S3 = ser.alphabet_from_json({"kind": "table", "label": "S3", "table": [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]})
# total length per alphabet, small enough for the whole-code search
ALPHABETS = [(gc.cyclic_group(2), 6), (gc.cyclic_group(3), 5), (gc.cyclic_group(4), 4),
             (gc.klein_four_group(), 4), (S3, 4)]


@st.composite
def parts(draw, G, n):
    """A small group code of length n, the trivial code (a zero coordinate)
    one time in four."""
    if draw(st.integers(0, 3)) == 0:
        return gc.GroupCode.from_words(G, n, [(G.identity,) * n])
    words = st.tuples(*[st.integers(0, G.order - 1)] * n)
    return gc.generate_group_code(G, n, draw(st.lists(words, min_size=1, max_size=2)))


@st.composite
def scrambled_sums(draw):
    """A direct sum with repeated parts, its coordinates permuted and each
    relabelled by an automorphism of the alphabet."""
    G, budget = draw(st.sampled_from(ALPHABETS))
    summands = []
    while budget > 0 and len(summands) < 4:
        n = draw(st.integers(1, min(2, budget)))
        part = draw(parts(G, n))
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
    and the structure rows."""
    if dec.indecomposable:
        dec = _one_block(C)
    search, rep_leaves, rows, _ = _aut_leaves(C, dec, max_nodes=10**6)
    return dec, search, list(map(list, rep_leaves)), rows


def expansion(search, leaves):
    """Every automorphism over the leaves as (σ, maps), sorted."""
    return sorted((leaf[0], maps) for leaf in leaves for maps in leaf_maps(search, leaf))


@settings(max_examples=100, deadline=None)
@given(st.one_of(group_codes(), scrambled_sums()))
def test_coset_search_finds_the_find_all_leaves_within_its_nodes(C):
    search = _IsoSearch(C, C, group_mode=True)
    identity, found = search.run(cosets=True)
    nodes = search.nodes
    leaves = list(search.dfs_leaves(identity, found))
    # the oracle shares the candidate lists, so the dicts are the same objects
    oracle = _IsoSearch(C, C, group_mode=True, maps=search._maps_by_projections)
    expected = find_all_leaves(oracle)
    assert nodes <= oracle.nodes
    assert len(leaves) == math.prod(1 + len(reps) for reps in found)
    assert objects(leaves) == objects(expected)  # same list, order and dict objects
    if len(expected) * search.extension_count() <= 10**4:
        assert _direct_elements(search, _one_block(C), [leaves]) == expansion(search, expected)


def test_coset_search_of_the_hamming_code():
    H = hamming_7_4_code()
    search = _IsoSearch(H, H, group_mode=True)
    identity, found = search.run(cosets=True)
    assert search.nodes <= 400
    oracle = _IsoSearch(H, H, group_mode=True, maps=search._maps_by_projections)
    expected = find_all_leaves(oracle)
    assert (len(expected), oracle.nodes) == (168, 2108)
    assert objects(search.dfs_leaves(identity, found)) == objects(expected)


@settings(max_examples=120, deadline=None)
@given(scrambled_sums(), st.sampled_from([1, 50, 10**4]))
def test_assembled_leaves_and_reports_match_the_whole_code_search(C, explicit_cap):
    dec = gc.decompose(C)
    parts, search, rep_leaves, rows = aut_parts(C, dec)
    leaves = _assemble(search, parts, rep_leaves)
    expected = find_all_leaves(search)
    assert objects(leaves) == objects(expected)  # same list, order and dict objects
    if len(expected) * search.extension_count() <= 10**4:
        assert _direct_elements(search, parts, rep_leaves) == expansion(search, expected)
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
    assert _direct_elements(search, parts, rep_leaves) == expansion(search, expected)


def d_sum(code_d, copies):
    return gc.direct_sum_all([code_d] * copies)


def test_aut_of_d4_assembles_every_leaf(code_d):
    C = d_sum(code_d, 4)
    parts, search, rep_leaves, _ = aut_parts(C, gc.decompose(C))
    assert len(_assemble(search, parts, rep_leaves)) == 31104
    assert search.nodes == 0  # no whole-code search ran
    report = gc.aut_group(C)
    assert report.order == 31104 and report.elements is None


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


def eager_points(el) -> tuple[int, ...]:
    """The point form, built slice by slice: (σ(j), s) goes to (j, f_j(s))."""
    maps, perm = el.config.maps, el.equiv.perm
    q = len(maps[0])
    points = [0] * (q * len(perm))
    for j, (i, f) in enumerate(zip(perm, maps)):
        points[i * q:(i + 1) * q] = [j * q + t for t in f]
    return tuple(points)


@settings(max_examples=80, deadline=None)
@given(scrambled_sums())
@example(Z4_TRIVIAL2)
def test_point_forms_on_demand_give_the_eager_greedy_picks(C):
    report = gc.aut_group(C)
    assume(report.elements is not None)
    elements = report.elements
    degree, size = C.alphabet.order * C.length, len(elements)
    eager = [eager_points(el) for el in elements]
    assert eager == [to_points(el) for el in elements]
    assert eager == [pair_points(sigma, maps, C.alphabet.order)
                     for sigma, maps in report.element_pairs]
    read = []
    lazy = (read.append(el) or to_points(el) for el in elements)
    picks = _greedy_picks(lazy, degree, size)
    assert picks == _greedy_picks(eager, degree, size)
    assert tuple(g.iso for g in report.generators) == tuple(elements[k] for k in picks)
    assert read == list(elements[:len(read)])  # read in order, and only until generated
