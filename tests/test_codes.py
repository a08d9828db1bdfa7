"""Words, the Hamming metric, codes, projections, sums, parameters."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import groupcodes as gc
from groupcodes import codes
from groupcodes.errors import (ClosureError, IncompatibleError, InvalidWordError,
                               PreconditionError, ResourceLimitError)
from groupcodes.serialize import alphabet_from_json

import oracles

S3 = alphabet_from_json({"kind": "table", "label": "S3", "table": [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]})
ALPHABETS = [gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4),
             gc.klein_four_group(), S3]

# the eight codewords of the reference Z/4 example, frozen
Z4_WORDS = {(0, 0, 0), (2, 0, 0), (1, 2, 1), (3, 2, 1),
            (2, 0, 2), (0, 0, 2), (3, 2, 3), (1, 2, 3)}
D_WORDS = {(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)}


def brute_min_distance(words):
    return min(gc.hamming_distance(x, y) for x, y in itertools.combinations(words, 2))


def test_hamming_distance_basics():
    assert gc.hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert gc.hamming_distance((1, 2, 1), (3, 2, 1)) == 1
    assert gc.hamming_distance((0, 0, 0), (1, 1, 0)) == 2


def test_hamming_distance_length_mismatch():
    with pytest.raises(IncompatibleError):
        gc.hamming_distance((0, 1), (0, 1, 2))


words_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 3) for _ in range(n)])
                          for _ in range(3)]))


@given(words_pairs)
def test_hamming_metric_axioms(triple):
    x, y, z = triple
    dxy = gc.hamming_distance(x, y)
    assert dxy == gc.hamming_distance(y, x)
    assert 0 <= dxy <= len(x)
    assert (dxy == 0) == (x == y)
    assert gc.hamming_distance(x, z) <= dxy + gc.hamming_distance(y, z)


def test_weight(z4):
    assert gc.weight((1, 1, 0), (1, 1, 0)) == 0
    assert gc.weight((1, 1, 0), (0, 0, 0)) == 2
    assert gc.weight((3, 2, 3), (z4.identity,) * 3) == 3


def test_min_distance_repetition(rep3):
    assert gc.min_distance(rep3) == 3


def test_min_distance_z4_example(z4_code):
    assert gc.min_distance(z4_code) == brute_min_distance(z4_code.words) == 1


def test_min_distance_even_weight(code_d):
    assert gc.min_distance(code_d) == brute_min_distance(code_d.words) == 2


def test_min_distance_singleton_sentinel(z2):
    single = gc.Code.from_words(z2, 4, [(0, 1, 0, 1)])
    assert gc.min_distance(single) == 5


def test_min_distance_packed_path_matches_scan(z2):
    rng = random.Random(5)
    space = sorted(gc.all_words(2, 7))
    words = rng.sample(space, 90)  # above codes.PACKED_ABOVE_WORDS
    C = gc.Code.from_words(z2, 7, words)
    assert gc.min_distance(C) == brute_min_distance(C.words)


def test_min_weight_equals_min_distance(corpus):
    for C in corpus:
        if isinstance(C, gc.GroupCode) and C.size >= 2:
            assert gc.min_weight_nonidentity(C) == gc.min_distance(C)


@st.composite
def group_codes(draw):
    """A group code over Z/2, Z/3, Z/4, V4 or S3: generated by up to three
    random words, the identity singleton or the full space, maybe with a
    constant coordinate before or after it. Up to 256 words, so on both
    sides of codes.PACKED_ABOVE_WORDS."""
    G = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4, 6: 3}[G.order]))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    kind = draw(st.sampled_from(["generated", "singleton", "full"]))
    if kind == "generated":
        C = gc.generate_group_code(G, n, draw(st.lists(word, max_size=3)))
    elif kind == "singleton":
        C = gc.GroupCode.from_words(G, n, [(G.identity,) * n])
    else:
        C = gc.full_space(G, n)
    if draw(st.booleans()):
        pad = gc.GroupCode.from_words(G, 1, [(G.identity,)])
        C = gc.direct_sum(C, pad) if draw(st.booleans()) else gc.direct_sum(pad, C)
    return C


@settings(max_examples=200, deadline=None)
@given(group_codes())
def test_weight_scan_distance_matches_the_pairwise_scan(C):
    event("packed words" if C.size > codes.PACKED_ABOVE_WORDS else "word tuples")
    # on a group code d(x, y) = w(x * y^-1), so the least non-identity
    # weight is the minimum distance; n+1 on the identity singleton
    expected = brute_min_distance(C.words) if C.size > 1 else C.length + 1
    assert gc.code_distance(C) == gc.min_weight_nonidentity(C) == expected
    assert gc.min_distance(C) == expected
    assert gc.parameters(C).min_distance == expected


@st.composite
def codes_around_the_packing_threshold(draw):
    """A plain code of up to 200 random words, or a generated group code,
    over Z/2, Z/3, Z/4, V4 or S3: on both sides of codes.PACKED_ABOVE_WORDS."""
    G = draw(st.sampled_from(ALPHABETS))
    # half the draws are codes from a space of over 128 words, most of
    # them above the threshold: a list strategy rarely draws that many
    above = draw(st.booleans())
    shortest = {2: 8, 3: 5, 4: 4, 6: 3}[G.order] if above else 1
    n = draw(st.integers(shortest, {2: 8, 3: 5, 4: 4, 6: 3}[G.order]))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    if draw(st.booleans()):
        gens = draw(st.lists(word, min_size=1, max_size=2 * n if above else 3))
        return gc.generate_group_code(G, n, gens)
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(100, 200) if above else st.integers(1, 64))
    return gc.Code.from_words(G, n, [tuple(rng.randrange(G.order) for _ in range(n))
                                     for _ in range(count)])


@settings(max_examples=200, deadline=None)
@given(codes_around_the_packing_threshold())
def test_packed_distance_matches_the_word_tuples(C):
    event("packed words" if C.size > codes.PACKED_ABOVE_WORDS else "word tuples")
    expected = brute_min_distance(C.words) if C.size > 1 else C.length + 1
    assert gc.min_distance(C) == expected
    pairs = itertools.combinations(zip(C.words[:24], C.packed_words[:24]), 2)
    for (x, px), (y, py) in pairs:
        assert (px ^ py).bit_count() == 2 * gc.hamming_distance(x, y)


@st.composite
def plain_and_group_codes(draw):
    """A random plain code, or the group code generated by up to three
    random words, of length at most 4 over Z/2, Z/3, Z/4, V4 or S3."""
    G = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    if draw(st.booleans()):
        return gc.generate_group_code(G, n, draw(st.lists(word, max_size=3)))
    return gc.Code.from_words(G, n, draw(st.lists(word, min_size=1, max_size=12)))


@given(plain_and_group_codes())
def test_cached_invariants_match_the_scans(C):
    assert C.coordinate_projections == oracles.coordinate_projections(C)
    assert C.weight_distribution == oracles.weight_distribution(C)


def test_projection_z4_example(z4_code):
    assert gc.projection(z4_code, [0]).words == ((0,), (1,), (2,), (3,))
    assert gc.projection(z4_code, [1]).words == ((0,), (2,))
    assert gc.projection(z4_code, [0, 1, 2]) == z4_code


def test_projection_group_type(code_d):
    p = gc.projection(code_d, [0, 2])
    assert isinstance(p, gc.GroupCode)
    assert p.words == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_projection_errors(code_d):
    with pytest.raises(PreconditionError):
        gc.projection(code_d, [])
    with pytest.raises(PreconditionError):
        gc.projection(code_d, [0, 3])
    with pytest.raises(PreconditionError):
        gc.projection(code_d, [2, 1])


def test_projection_monotone(corpus):
    rng = random.Random(11)
    for C in corpus:
        if C.length < 2:
            continue
        k = rng.randrange(1, C.length)
        ys = sorted(rng.sample(range(C.length), k))
        p = gc.projection(C, ys)
        assert p.size <= min(C.size, C.alphabet.order ** k)


def test_direct_sum_cardinality(code_d):
    s = gc.direct_sum(code_d, code_d)
    assert s.size == 16
    assert s.length == 6
    assert isinstance(s, gc.GroupCode)


def test_direct_sum_min_distance(rep3, z2):
    pair = gc.GroupCode.from_words(z2, 2, [(0, 0), (1, 1)])
    assert gc.min_distance(gc.direct_sum(rep3, pair)) == 2


def test_direct_sum_degenerate_summand(code_d, z2):
    single = gc.Code.from_words(z2, 2, [(1, 0)])
    assert gc.direct_sum(code_d, single).size == code_d.size


def test_direct_sum_alphabet_mismatch(code_d, z4):
    other = gc.Code.from_words(z4, 1, [(0,), (1,)])
    with pytest.raises(IncompatibleError):
        gc.direct_sum(code_d, other)


def test_generate_group_code_empty(z2):
    C = gc.generate_group_code(z2, 3, [])
    assert C.words == ((0, 0, 0),)


def test_generate_group_code_cap_admits_its_bound(z2, monkeypatch):
    monkeypatch.setattr(codes, "MAX_GENERATED_SYMBOLS", 64)
    units = [tuple(int(i == j) for i in range(8)) for j in range(4)]
    assert gc.generate_group_code(z2, 8, units[:3]).size == 8  # 64 symbols
    assert gc.generate_group_code(z2, 64, []).size == 1
    with pytest.raises(ResourceLimitError):
        gc.generate_group_code(z2, 8, units)  # 16 words
    with pytest.raises(ResourceLimitError):
        gc.generate_group_code(z2, 65, [])


def test_generate_group_code_even_weight(z2):
    C = gc.generate_group_code(z2, 3, [(1, 1, 0), (0, 1, 1)])
    assert set(C.words) == D_WORDS


def test_generate_group_code_z4_example(z4):
    C = gc.generate_group_code(z4, 3, [(2, 0, 0), (1, 2, 1)])
    assert set(C.words) == Z4_WORDS


def test_group_code_validation_missing_identity(z2):
    with pytest.raises(ClosureError):
        gc.GroupCode.from_words(z2, 2, [(0, 1), (1, 0)])


def test_group_code_validation_broken_closure(z2):
    with pytest.raises(ClosureError) as err:
        gc.GroupCode.from_words(z2, 2, [(0, 0), (0, 1), (1, 0)])
    assert err.value.witness  # names the offending pair


def test_parameters_repetition(rep3):
    p = gc.parameters(rep3)
    assert (p.length, p.size, p.dimension_exact, p.min_distance, p.correction_capacity) \
        == (3, 2, 1, 3, 1)


def test_parameters_z4_example(z4_code):
    p = gc.parameters(z4_code)
    assert p.size == 8 and p.dimension_exact is None
    assert p.dimension == pytest.approx(1.5)
    assert p.min_distance == 1 and p.correction_capacity == 0


def test_parameters_full_space(z2):
    p = gc.parameters(gc.full_space(z2, 2))
    assert p.dimension_exact == 2 and p.min_distance == 1


def test_singleton_parameters_keep_singleton_bound_vacuous(z2):
    p = gc.parameters(gc.Code.from_words(z2, 3, [(1, 0, 1)]))
    assert p.min_distance == 4 and p.correction_capacity == 1
    assert p.size <= 2 ** (3 - p.min_distance + 1)


def test_canonical_word_storage(z2):
    C = gc.Code.from_words(z2, 2, [(1, 0), (0, 1), (1, 0)])
    assert C.words == ((0, 1), (1, 0))


def test_word_validation(z2):
    with pytest.raises(InvalidWordError):
        gc.Code.from_words(z2, 2, [(0, 2)])
    with pytest.raises(InvalidWordError):
        gc.Code.from_words(z2, 2, [(0, 1, 1)])
    with pytest.raises(PreconditionError):
        gc.Code.from_words(z2, 2, [])


@pytest.mark.parametrize("words", [
    ["01", "10"], [(0, "1")], [(True, 0), (0, 1)], [(True, 0.9), (0, 1)], [(0, 1.0)],
    [(0, None)]])
def test_word_validation_rejects_non_int_symbols(z2, words):
    # int() used to turn these into words: "01" into (0, 1), (True, 0.9) into (1, 0)
    with pytest.raises(InvalidWordError):
        gc.Code.from_words(z2, 2, words)
    with pytest.raises(InvalidWordError):
        gc.GroupCode.generate(z2, 2, words)


def test_word_validation_takes_numpy_ints(z2):
    C = gc.Code.from_words(z2, 2, [np.array([0, 1]), (np.int64(1), 0)])
    assert C.words == ((0, 1), (1, 0))
    assert all(type(s) is int for w in C.words for s in w)


def test_group_shift_distance_identity(corpus):
    # on group codes the metric is translation invariant: d(x,y) = w(x*y^{-1})
    for C in corpus:
        if not isinstance(C, gc.GroupCode):
            continue
        e = C.identity_word()
        for x in C.words:
            for y in C.words:
                shifted = gc.word_mul(C.alphabet, x, gc.word_inv(C.alphabet, y))
                assert gc.hamming_distance(x, y) == gc.weight(shifted, e)


def test_direct_sum_swap_isomorphism(code_d, rep3, z2):
    left = gc.direct_sum(code_d, rep3)
    right = gc.direct_sum(rep3, code_d)
    n1, n2 = code_d.length, rep3.length
    perm = tuple(range(n1, n1 + n2)) + tuple(range(n1))
    swap = gc.from_permutation(perm, 2)
    assert set(gc.apply_to_code(swap, left).words) == set(right.words)
