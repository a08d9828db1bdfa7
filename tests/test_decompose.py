"""Split criterion, canonical decomposition, certificates."""

from __future__ import annotations

import importlib
import itertools
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

import groupcodes as gc
from groupcodes import serialize
from groupcodes.cli import main
from groupcodes.codes import PACKED_ABOVE_WORDS
from groupcodes.decompose import (CERT_CONSTANT_WEIGHT, CERT_MDS, CERT_PERFECT,
                                  CERT_PRIME, _ProjCounter)
from groupcodes.errors import ResourceLimitError
from groupcodes.catalog import (binary_repetition, hamming_7_4_code, repetition_code,
                                sum_zero_code)
from oracles import applicable_certificates as certificates_by_predicate, recursive_blocks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# the module, which the package's decompose function shadows as an attribute
dmod = importlib.import_module("groupcodes.decompose")
cmod = importlib.import_module("groupcodes.codes")
clmod = importlib.import_module("groupcodes.classify")


def exhaustive_split_search(C):
    """Oracle: scan every proper bipartition with plain set projections."""
    n = C.length
    for size in range(1, n):
        for rest in itertools.combinations(range(1, n), size - 1):
            J = (0,) + rest
            K = tuple(i for i in range(n) if i not in set(J))
            pj = len({tuple(w[i] for i in J) for w in C.words})
            pk = len({tuple(w[i] for i in K) for w in C.words})
            if pj * pk == C.size:
                return J
    return None


def splits(C, J):
    """The product criterion |C| = |pi_J(C)| * |pi_K(C)|, K the complement
    of J, by the split search's projection counter."""
    counter = _ProjCounter(C)
    K = tuple(i for i in range(C.length) if i not in J)
    return counter.card(J) * counter.card(K) == C.size


def test_split_criterion_z4_rows(z4_code):
    assert not splits(z4_code, (0,))   # 4 * 4 = 16 != 8
    assert not splits(z4_code, (1,))   # 2 * 8 = 16 != 8
    assert not splits(z4_code, (2,))   # 4 * 4 = 16 != 8


def test_split_criterion_on_manufactured_sum(code_d, rep3):
    total = gc.direct_sum(code_d, rep3)
    assert splits(total, (0, 1, 2))
    assert splits(total, (3, 4, 5))  # complement symmetric
    assert not splits(total, (0, 3))


def test_is_decomposable_z4_absent(z4_code):
    assert gc.is_decomposable(z4_code) is None


def test_is_decomposable_full_plane(z2):
    assert gc.is_decomposable(gc.full_space(z2, 2)) == (0,)


def test_is_decomposable_interleaved(code_d):
    C = gc.interleave(code_d, 2)
    assert gc.is_decomposable(C) == (0, 2, 4)


def test_is_decomposable_canonical_choice(code_d, z2):
    total = gc.direct_sum(code_d, gc.full_space(z2, 1))
    # witnesses containing coordinate 0 start at size 3; (0,1,2) is least
    assert gc.is_decomposable(total) == (0, 1, 2)


def test_is_decomposable_matches_oracle(corpus):
    for C in corpus:
        if C.length < 2 or C.length > 9:
            continue
        assert gc.is_decomposable(C) == exhaustive_split_search(C)


def test_is_decomposable_cap_carries_certificate():
    wide = binary_repetition(25)
    with pytest.raises(ResourceLimitError) as err:
        gc.is_decomposable(wide)
    assert err.value.certificate == CERT_MDS


def test_decompose_square_sum(code_d):
    dec = gc.decompose(gc.direct_sum(code_d, code_d))
    assert dec.partition.blocks == ((0, 1, 2), (3, 4, 5))
    assert dec.isotypes == ((0, 2),)
    assert dec.isotype_members == ((0, 1),)
    assert all(set(c.words) == set(code_d.words) for c in dec.components)


def test_decompose_indecomposable_single_block(z4_code):
    dec = gc.decompose(z4_code)
    assert dec.partition.blocks == ((0, 1, 2),)
    assert dec.indecomposable
    assert dec.isotypes == ((0, 1),)


def test_decompose_full_space_splits_to_letters(z2):
    dec = gc.decompose(gc.full_space(z2, 3))
    assert dec.partition.blocks == ((0,), (1,), (2,))
    assert dec.isotypes == ((0, 3),)


def test_decompose_peels_constant_coordinates(z4):
    C = gc.Code.from_words(z4, 3, [(2, 0, 0), (2, 1, 1), (2, 2, 2)])
    dec = gc.decompose(C)
    assert dec.partition.blocks == ((0,), (1, 2))
    assert dec.components[0].words == ((2,),)
    assert dec.certificates[1] == CERT_PRIME  # 3 words, nondegenerate block


def test_decompose_reconstruction_witness(corpus):
    for C in corpus:
        if C.length > 9:
            continue
        dec = gc.decompose(C)
        rebuilt = gc.apply_to_code(dec.witness, C)
        target = gc.direct_sum_all(list(dec.components))
        assert rebuilt.words == target.words
        sizes = 1
        for comp in dec.components:
            sizes *= comp.size
        assert sizes == C.size
        assert sum(len(b) for b in dec.partition.blocks) == C.length
        for comp in dec.components:
            assert gc.is_decomposable(comp) is None


def test_decompose_plain_code_with_scramble(z2):
    rng = random.Random(17)
    pair = gc.Code.from_words(z2, 2, [(0, 1), (1, 0)])
    total = gc.direct_sum(binary_repetition(3), pair)
    # scramble with an arbitrary isometry (configs need not fix identity)
    perm = list(range(5))
    rng.shuffle(perm)
    maps = []
    for _ in range(5):
        m = [0, 1]
        rng.shuffle(m)
        maps.append(tuple(m))
    iso = gc.Isometry(gc.Configuration(tuple(maps)), gc.Equivalence(tuple(perm)))
    scrambled = gc.apply_to_code(iso, total)
    dec = gc.decompose(scrambled)
    assert len(dec.components) == 2
    kinds = sorted((c.length, c.size) for c in dec.components)
    assert kinds == [(2, 2), (3, 2)]
    for comp in dec.components:
        original = binary_repetition(3) if comp.length == 3 else pair
        assert gc.code_equivalent(comp, original) is not None


def test_certificate_priority_and_examples(rep3, code_d, hamming, z2):
    assert gc.indecomposability_certificate(hamming) == CERT_PERFECT
    assert gc.indecomposability_certificate(rep3) == CERT_MDS
    assert gc.applicable_certificates(rep3)[:2] == (CERT_MDS, CERT_PERFECT)
    # D is MDS (4 = 2^(3-2+1)), so the priority order reports it before
    # its constant-weight certificate
    assert gc.indecomposability_certificate(code_d) == CERT_MDS
    assert CERT_CONSTANT_WEIGHT in gc.applicable_certificates(code_d)
    prime = gc.Code.from_words(z2, 2, [(0, 0), (1, 1), (0, 1)])
    assert gc.indecomposability_certificate(prime) == CERT_PRIME


def test_constant_weight_certificate_needs_nondegenerate(z2):
    degenerate = gc.GroupCode.from_words(z2, 2, [(0, 0), (1, 0)])
    assert CERT_CONSTANT_WEIGHT not in gc.applicable_certificates(degenerate)
    assert gc.indecomposability_certificate(degenerate) is None


def test_trivial_codes_earn_no_certificates(z2):
    assert gc.applicable_certificates(gc.full_space(z2, 2)) == ()


def test_certificate_soundness(corpus):
    for C in corpus:
        if C.length > 12:
            continue
        if gc.indecomposability_certificate(C) is not None:
            assert gc.is_decomposable(C) is None


def test_scramble_roundtrip_group_codes(z3):
    rng = random.Random(23)
    pool = [repetition_code(z3, 2), repetition_code(z3, 3), gc.full_space(z3, 1)]
    parts = [pool[0], pool[0], pool[2]]
    total = gc.direct_sum_all(parts)
    auts = gc.automorphisms(z3)
    for _ in range(5):
        perm = list(range(total.length))
        rng.shuffle(perm)
        maps = tuple(rng.choice(auts).mapping for _ in range(total.length))
        iso = gc.Isometry(gc.Configuration(maps), gc.Equivalence(tuple(perm)))
        scrambled = gc.GroupCode.from_words(z3, total.length,
                                            gc.apply_to_code(iso, total).words)
        dec = gc.decompose(scrambled)
        got = sorted((dec.components[rep].length, dec.components[rep].size, alpha)
                     for rep, alpha in dec.isotypes)
        assert got == [(1, 3, 1), (2, 3, 2)]
        rep2 = [dec.components[r] for r, a in dec.isotypes if a == 2][0]
        assert isinstance(rep2, gc.GroupCode)
        assert gc.gc_isomorphic(rep2, pool[0]) is not None


def test_decompose_length_cap():
    with pytest.raises(ResourceLimitError):
        gc.decompose(binary_repetition(25))
    dec = gc.decompose(binary_repetition(25), max_bits=25)
    assert dec.indecomposable


def test_decompose_evaluates_each_certificate_once(code_d, hamming, monkeypatch, tmp_path):
    # D+D+R2: the whole code, its D+R2 part and the three components are
    # each certified once (8 calls when the components were certified
    # again), and the components' certificates are the recursion's
    rep2 = binary_repetition(2)
    total = gc.direct_sum_all([code_d, code_d, rep2])
    calls = []
    original = dmod.indecomposability_certificate

    def counted(C):
        calls.append(C.words)
        return original(C)

    monkeypatch.setattr(dmod, "indecomposability_certificate", counted)
    dec = gc.decompose(total)
    expected = [total, code_d, gc.direct_sum(code_d, rep2), code_d, rep2]
    assert sorted(calls) == sorted(C.words for C in expected)
    assert dec.certificates == tuple(original(comp) for comp in dec.components)
    assert dec.certificates == (CERT_MDS, CERT_MDS, CERT_MDS)

    # each certificate evaluation reads MDS and perfect off one parameter
    # report, so it makes one distance evaluation (two when is_mds and
    # is_perfect evaluated separately); on group codes each is a weight
    # scan, and no pairwise scan runs
    evaluations, scans = [], []

    def counted(log, fn):
        return lambda C: log.append(C.words) or fn(C)

    for mod in (cmod, clmod):
        monkeypatch.setattr(mod, "code_distance", counted(evaluations, cmod.code_distance))
        monkeypatch.setattr(mod, "min_distance", counted(scans, cmod.min_distance))

    def count(run):
        evaluations.clear()
        scans.clear()
        run()
        assert scans == []
        return len(evaluations)

    path = tmp_path / "ddr2.json"
    path.write_text(json.dumps(serialize.code_to_json(total)), encoding="utf-8")
    assert count(lambda: gc.decompose(total)) == 5
    assert count(lambda: gc.aut_group(total)) == 5
    assert count(lambda: gc.decompose(gc.direct_sum(hamming, hamming))) == 3
    assert count(lambda: gc.decompose(gc.direct_sum_all([code_d] * 4))) == 7
    # analyze: its own parameters, classify's one report, the root's
    # certificates section and the decomposition's five
    assert count(lambda: main(["analyze", str(path)])) == 8


def test_decompose_keeps_the_components_of_its_recursion(code_d, monkeypatch):
    # D^6 splits five times, two projections each; the six components are
    # those projections, not six more projections of all 4096 words
    C = gc.direct_sum_all([code_d] * 6)
    calls = []
    original = dmod.projection
    monkeypatch.setattr(dmod, "projection", lambda code, coords: calls.append(coords)
                        or original(code, coords))
    dec = gc.decompose(C)
    assert len(calls) == 10
    assert dec.partition.blocks == tuple((i, i + 1, i + 2) for i in range(0, 18, 3))
    monkeypatch.undo()
    dec.check(C)
    assert all(isinstance(comp, gc.GroupCode) for comp in dec.components)


def test_uncertified_blocks_get_their_certificates_at_the_end(code_d, z2, monkeypatch):
    # a constant coordinate, peeled, and D + R3, which no certificate
    # covers: each block is certified once, when it is found, and so is
    # the rest D + R3 before its split
    zero = gc.GroupCode.from_words(z2, 1, [(0,)])
    rep3 = binary_repetition(3)
    total = gc.direct_sum_all([code_d, zero, rep3])
    calls = []
    original = dmod.indecomposability_certificate
    monkeypatch.setattr(dmod, "indecomposability_certificate",
                        lambda C: calls.append(C.words) or original(C))
    dec = gc.decompose(total)
    assert dec.partition.blocks == ((0, 1, 2), (3,), (4, 5, 6))
    assert dec.certificates == tuple(original(comp) for comp in dec.components)
    assert sorted(calls) == sorted([comp.words for comp in dec.components]
                                   + [gc.direct_sum(code_d, rep3).words])


def test_decompose_searches_each_block_once(monkeypatch):
    # two certificate-free [8, 5] codes: the whole code is searched, then
    # the rest; the least witness is a final block, not searched again
    z2 = gc.cyclic_group(2)
    a, b = (gc.GroupCode.from_words(z2, 8, gen.certificate_free_binary(random.Random(seed), 8))
            for seed in (1, 2))
    lengths = []
    original = dmod._canonical_split
    monkeypatch.setattr(dmod, "_canonical_split",
                        lambda C, counter: lengths.append(C.length) or original(C, counter))
    dec = gc.decompose(gc.direct_sum(a, b))
    assert dec.partition.blocks == (tuple(range(8)), tuple(range(8, 16)))
    assert dec.certificates == (None, None)
    assert lengths == [16, 8]


def test_split_search_keeps_no_projection_counts():
    # the whole 2^13-subset search on R14: each J containing 0 and each
    # complement is counted once, so kept counts would only grow the peak
    # (about 1.7 MiB when every count was cached)
    C = binary_repetition(14)
    tracemalloc.start()
    try:
        J = gc.is_decomposable(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J is None
    assert peak < 2**20


ALPHABETS = [gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4), gc.klein_four_group()]

S3 = gc.group_from_table([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                          [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]], "S3")


@st.composite
def counted_codes(draw):
    """A random group code or plain code over Z/2, Z/3, Z/4, V4 or S3, with
    up to a few hundred words, so on both sides of PACKED_ABOVE_WORDS."""
    G = draw(st.sampled_from(ALPHABETS + [S3]))
    # half the draws are codes from a space of over 128 words, most of
    # them above the threshold: a list strategy rarely draws that many
    above = draw(st.booleans())
    shortest = {2: 8, 3: 5, 4: 4, 6: 3}[G.order] if above else 1
    n = draw(st.integers(shortest, {2: 9, 3: 5, 4: 5, 6: 4}[G.order]))
    words = st.tuples(*[st.integers(0, G.order - 1)] * n)
    if draw(st.booleans()):
        gens = draw(st.lists(words, min_size=1, max_size=2 * n if above else 4))
        return gc.generate_group_code(G, n, gens)
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(100, 200) if above else st.integers(1, 64))
    return gc.Code.from_words(G, n, [tuple(rng.randrange(G.order) for _ in range(n))
                                     for _ in range(count)])


@settings(max_examples=150, deadline=None)
@given(counted_codes(), st.data())
def test_projection_counter_matches_a_tuple_set_count(C, data):
    event("packed words" if C.size > PACKED_ABOVE_WORDS else "word tuples")
    counter = _ProjCounter(C)
    for _ in range(4):
        coords = tuple(sorted(data.draw(st.sets(st.integers(0, C.length - 1), min_size=1))))
        assert counter.card(coords) == len({tuple(w[i] for i in coords) for w in C.words})


@st.composite
def certified_codes(draw):
    """A group or plain code over Z/2, Z/3, Z/4, V4 or S3: random, the
    identity singleton, the full space or a named MDS or perfect code,
    maybe with its words taken as a plain code, maybe with a constant
    coordinate appended (degenerate). Plain codes reach past
    PACKED_ABOVE_WORDS."""
    G = draw(st.sampled_from(ALPHABETS + [S3]))
    n = draw(st.integers(1, {2: 7, 3: 4, 4: 4, 6: 3}[G.order]))
    words = st.tuples(*[st.integers(0, G.order - 1)] * n)
    kind = draw(st.sampled_from(["group", "plain", "singleton", "full", "named"]))
    if kind == "named":
        named = [repetition_code(G, n)]
        if G.is_abelian():
            named.append(sum_zero_code(G, n))
        if G.order == 2:
            named.append(hamming_7_4_code())
        C = draw(st.sampled_from(named))
        n = C.length
    elif kind == "group":
        C = gc.generate_group_code(G, n, draw(st.lists(words, min_size=1, max_size=3)))
    elif kind == "plain":
        C = gc.Code.from_words(G, n, draw(st.lists(words, min_size=1, max_size=90)))
    elif kind == "singleton":
        C = gc.GroupCode.from_words(G, n, [(G.identity,) * n])
    else:
        C = gc.full_space(G, n)
    if kind != "plain" and draw(st.booleans()):
        C = gc.Code.from_words(G, n, C.words)
    if draw(st.booleans()):
        if isinstance(C, gc.GroupCode):
            pad = gc.GroupCode.from_words(G, 1, [(G.identity,)])
        else:
            pad = gc.Code.from_words(G, 1, [(draw(st.integers(0, G.order - 1)),)])
        C = gc.direct_sum(C, pad)
    return C


def test_certificates_match_the_per_predicate_oracle_on_the_corpus(corpus):
    for C in corpus:
        tags = certificates_by_predicate(C)
        assert gc.applicable_certificates(C) == tags
        assert gc.indecomposability_certificate(C) == (tags[0] if tags else None)


@settings(max_examples=500, deadline=None)
@given(certified_codes())
def test_certificates_match_the_per_predicate_oracle(C):
    tags = certificates_by_predicate(C)
    event(",".join(tags) or "no certificate")
    assert gc.applicable_certificates(C) == tags
    assert gc.indecomposability_certificate(C) == (tags[0] if tags else None)


# free coordinates of group codes, peeled before the split search ----------

V4 = gc.klein_four_group()


@st.composite
def sums_with_free_coordinates(draw):
    """A scrambled direct sum of small group codes, full(G, 1) parts (a
    free coordinate), trivial parts (a constant coordinate) and the Z/4
    half {0, 2} on one coordinate, over Z/2, Z/3, Z/4 or V4."""
    G = draw(st.sampled_from([gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4), V4]))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["full", "trivial", "half", "random"]))
        if kind == "full":
            summands.append(gc.full_space(G, 1))
        elif kind == "trivial":
            summands.append(gc.GroupCode.from_words(G, 1, [(G.identity,)]))
        elif kind == "half" and G.label == "Z/4":
            summands.append(gc.GroupCode.from_words(G, 1, [(0,), (2,)]))
        else:
            n = draw(st.integers(2, 3))
            words = st.tuples(*[st.integers(0, G.order - 1)] * n)
            summands.append(gc.generate_group_code(G, n, draw(st.lists(words, min_size=1,
                                                                        max_size=2))))
    total = gc.direct_sum_all(summands)
    perm = tuple(draw(st.permutations(range(total.length))))
    auts = gc.automorphisms(G)
    maps = tuple(draw(st.sampled_from(auts)).mapping for _ in perm)
    phi = gc.Isometry(gc.Configuration(maps), gc.Equivalence(perm))
    return gc.GroupCode.from_words(G, total.length, gc.apply_to_code(phi, total).words)


def free_by_projection_counts(C):
    """The coordinates i with |C| = |pi_i(C)| * |pi_(N∖i)(C)|, one split
    test each; a code of length 1 is its one coordinate's projection."""
    if C.length == 1:
        return (0,)
    return tuple(i for i in range(C.length) if splits(C, (i,)))


@settings(max_examples=150, deadline=None)
@given(sums_with_free_coordinates())
def test_peeling_free_coordinates_gives_the_unpeeled_decomposition(C):
    # the free coordinates are exactly the one-coordinate splits
    assert dmod.free_coordinates(C) == free_by_projection_counts(C)
    event(f"free coordinates: {len(dmod.free_coordinates(C))} of {C.length}")
    dec = gc.decompose(C)
    # the route before free coordinates: constants alone are peeled
    original = dmod.free_coordinates
    dmod.free_coordinates = lambda code: clmod.is_degenerate(code)[1]
    try:
        unpeeled = gc.decompose(C)
    finally:
        dmod.free_coordinates = original
    assert dec.partition == unpeeled.partition
    assert [c.words for c in dec.components] == [c.words for c in unpeeled.components]
    assert (dec.isotypes, dec.isotype_members, dec.witness, dec.certificates,
            dec.isotype_witnesses) == (unpeeled.isotypes, unpeeled.isotype_members,
                                       unpeeled.witness, unpeeled.certificates,
                                       unpeeled.isotype_witnesses)


def test_free_coordinates_skip_the_split_search(hamming, z2, monkeypatch):
    # H + Z/2: the Z/2 coordinate splits off alone, and H is perfect, so no
    # subset of the 127 containing coordinate 0 is tried
    C = gc.direct_sum(gc.full_space(z2, 1), hamming)
    monkeypatch.setattr(dmod, "_canonical_split",
                        lambda *args: pytest.fail("ran the split search"))
    dec = gc.decompose(C)
    assert dec.partition.blocks == ((0,), tuple(range(1, 8)))
    assert dec.certificates[1] == CERT_PERFECT


@st.composite
def permuted_plain_sums(draw):
    """A direct sum of one to three random plain codes over Z/2 or Z/3,
    each of length 1 to 3, with its coordinates permuted."""
    G = draw(st.sampled_from([gc.cyclic_group(2), gc.cyclic_group(3)]))
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        words = st.tuples(*[st.integers(0, G.order - 1)] * n)
        summands.append(gc.Code.from_words(G, n, draw(st.lists(words, min_size=1, max_size=6))))
    total = gc.direct_sum_all(summands)
    perm = tuple(draw(st.permutations(range(total.length))))
    return gc.apply_to_code(gc.from_permutation(perm, G.order), total)


@settings(max_examples=300, deadline=None)
@given(st.one_of(sums_with_free_coordinates(), permuted_plain_sums()))
def test_decompose_matches_the_recursive_oracle(C):
    # block by block from the least witness, peeling once at the root,
    # gives the blocks, components and certificates of the recursion that
    # peels at every node and searches every block again
    dec = gc.decompose(C)
    event(f"{'group' if isinstance(C, gc.GroupCode) else 'plain'} code, "
          f"{'one block' if dec.indecomposable else 'two or more blocks'}")
    blocks, components, certificates = recursive_blocks(C)
    assert dec.partition.blocks == blocks
    assert [c.words for c in dec.components] == [c.words for c in components]
    assert dec.certificates == certificates
