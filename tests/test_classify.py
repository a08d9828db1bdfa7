"""Structural predicates and their brute-force oracles."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import event, given, settings, strategies as st

import groupcodes as gc
from groupcodes.cli import main
from groupcodes.errors import ResourceLimitError

import oracles

S3 = gc.group_from_table([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                          [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]])
ALPHABETS = [gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4),
             gc.klein_four_group(), S3]


def ball_by_enumeration(q, n, r):
    center = (0,) * n
    return sum(1 for w in itertools.product(range(q), repeat=n)
               if gc.hamming_distance(w, center) <= r)


def test_ball_size_values():
    assert gc.ball_size(2, 5, 0) == 1
    assert gc.ball_size(2, 7, 1) == 8
    assert gc.ball_size(2, 3, 1) == 4
    assert gc.ball_size(3, 4, 6) == 81  # r past n clamps to the full space


@pytest.mark.parametrize("q,n,r", [(2, 7, 1), (3, 4, 2), (4, 3, 3), (2, 6, 3)])
def test_ball_size_matches_enumeration(q, n, r):
    assert gc.ball_size(q, n, r) == ball_by_enumeration(q, n, r)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 300), st.data())
def test_ball_size_matches_the_binomial_sum(q, n, data):
    # r < 0 and r >= n take the clamps, the rest the running product
    r = data.draw(st.one_of(st.integers(-3, -1), st.integers(0, n - 1), st.integers(n, n + 3)))
    event("r < 0" if r < 0 else "r >= n" if r >= n else "0 <= r < n")
    assert gc.ball_size(q, n, r) == oracles.ball_size(q, n, r)


def test_is_trivial(z2, rep3, z4_code):
    assert gc.is_trivial(gc.full_space(z2, 2))
    assert not gc.is_trivial(rep3)
    assert not gc.is_trivial(z4_code)


def test_is_degenerate(z2, z4_code):
    flagged, coords = gc.is_degenerate(gc.Code.from_words(z2, 2, [(0, 0), (0, 1)]))
    assert flagged and coords == (0,)
    assert gc.is_degenerate(z4_code) == (False, ())
    assert gc.is_degenerate(gc.full_space(z2, 3)) == (False, ())


def test_is_mds(rep3, code_d, z2, z4_code):
    assert gc.is_mds(rep3)                      # 2 = 2^(3-3+1)
    assert gc.is_mds(gc.full_space(z2, 3))      # q^n = q^(n-1+1)
    assert gc.is_mds(code_d)                    # 4 = 2^(3-2+1)
    assert not gc.is_mds(z4_code)
    assert not gc.is_mds(gc.Code.from_words(z2, 3, [(0, 0, 0)]))  # singleton convention


def test_is_perfect(rep3, code_d, hamming):
    assert gc.is_perfect(rep3)          # 2 * 4 = 8
    assert gc.is_perfect(hamming)       # 16 * 8 = 128
    assert not gc.is_perfect(code_d)    # e = 0, 4 * 1 != 8


def test_perfect_agrees_with_covering_oracle(corpus):
    for C in corpus:
        if C.alphabet.order ** C.length <= 2**16:
            assert gc.is_perfect(C) == gc.perfect_by_enumeration(C)


def test_perfect_oracle_gate(z2):
    big = gc.Code.from_words(z2, 20, [(0,) * 20, (1,) * 20])
    with pytest.raises(ResourceLimitError):
        gc.perfect_by_enumeration(big)


def test_constant_weight_group(z2, code_d, rep3):
    singleton = gc.GroupCode.from_words(z2, 3, [(0, 0, 0)])
    assert gc.constant_weight_group(singleton) is None
    assert gc.constant_weight_group(code_d) == 2
    assert gc.constant_weight_group(rep3) == 3


def test_constant_weight_general(z2):
    single = gc.Code.from_words(z2, 3, [(1, 0, 1)])
    assert gc.constant_weight_general(single) == ((1, 0, 1), 0)
    pair = gc.Code.from_words(z2, 2, [(0, 1), (1, 0)])
    assert gc.constant_weight_general(pair) == ((0, 0), 1)
    assert gc.constant_weight_general(gc.full_space(z2, 2)) is None


def test_constant_weight_general_cap(z2):
    wide = gc.Code.from_words(z2, 22, [(0,) * 22, (1,) * 22])
    with pytest.raises(ResourceLimitError):
        gc.constant_weight_general(wide)


@st.composite
def plain_codes(draw):
    """A plain code of length at most 6 over Z/2, Z/3, Z/4, V4 or S3:
    random words, words on one sphere, two words, a singleton or the
    full space (of length at most 4 over S3)."""
    G = draw(st.sampled_from(ALPHABETS))
    q = G.order
    kind = draw(st.sampled_from(["random", "sphere", "pair", "singleton", "full"]))
    event(kind)
    # the oracle's scan of the full space S3^6 takes about 16 s
    n = draw(st.integers(1, 4 if kind == "full" and q == 6 else 6))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    if kind == "random":
        words = draw(st.lists(word, min_size=1, max_size=12))
    elif kind == "sphere":
        center, r = draw(word), draw(st.integers(0, n))
        words = []
        for _ in range(draw(st.integers(1, 8))):
            w = list(center)
            for j in draw(st.permutations(range(n)))[:r]:
                w[j] = (w[j] + draw(st.integers(1, q - 1))) % q
            words.append(w)
    elif kind == "pair":
        words = [draw(word), draw(word)]
    elif kind == "singleton":
        words = [draw(word)]
    else:
        words = gc.all_words(q, n)
    return gc.Code.from_words(G, n, words)


@settings(max_examples=300, deadline=None)
@given(plain_codes())
def test_center_search_matches_the_full_scan(C):
    # the pruned search returns the first center of the q^n scan, or none
    expected = oracles.constant_weight_center(C)
    event("center" if expected is not None else "no center")
    assert gc.constant_weight_general(C) == expected
    c = gc.classify(C)
    assert c.constant_weight == expected and c.constant_weight_checked


def test_center_search_runs_at_the_cap_and_is_refused_above_it(z2, tmp_path, capsys):
    # 2^10 candidates: searched at a cap of 2^10, refused at 2^10 - 1
    C = gc.Code.from_words(z2, 10, [(0,) * 10, (1,) * 4 + (0,) * 6, (1,) * 10])
    expected = oracles.constant_weight_center(C)
    assert expected is not None
    assert gc.constant_weight_general(C, center_cap=2**10) == expected
    assert gc.classify(C, center_cap=2**10).constant_weight == expected
    with pytest.raises(ResourceLimitError):
        gc.constant_weight_general(C, center_cap=2**10 - 1)
    c = gc.classify(C, center_cap=2**10 - 1)
    assert c.constant_weight is None and not c.constant_weight_checked
    path = tmp_path / "c.json"
    path.write_text(json.dumps(gc.serialize.code_to_json(C)), encoding="utf-8")
    for cap, checked in [(2**10, True), (2**10 - 1, False)]:
        assert main(["analyze", str(path), "--center-cap", str(cap)]) == 0
        doc = json.loads(capsys.readouterr().out)["classification"]
        assert doc["constant_weight_checked"] is checked
        assert (doc["constant_weight"] is not None) is checked


def test_classify_z4_example(z4_code):
    c = gc.classify(z4_code)
    assert not c.is_trivial and not c.is_degenerate
    assert not c.is_mds and not c.is_perfect
    assert c.constant_weight is None and c.constant_weight_checked
    assert c.correction_capacity == 0


def test_classify_group_code_center_is_identity(code_d):
    c = gc.classify(code_d)
    assert c.constant_weight == ((0, 0, 0), 2)


def test_classify_respects_center_cap(z2):
    wide = gc.Code.from_words(z2, 21, [(0,) * 21, (1,) * 21])
    c = gc.classify(wide)
    assert c.constant_weight is None and not c.constant_weight_checked


def test_mds_trivial_iff_distance_one(corpus):
    seen_trivial = seen_nontrivial = False
    for C in corpus:
        if C.size < 2 or not gc.is_mds(C):
            continue
        d = gc.min_distance(C)
        assert gc.is_trivial(C) == (d == 1)
        seen_trivial |= gc.is_trivial(C)
        seen_nontrivial |= not gc.is_trivial(C)
    assert seen_trivial and seen_nontrivial  # both branches exercised


def test_perfect_trivial_iff_capacity_zero(corpus):
    seen_trivial = seen_nontrivial = False
    for C in corpus:
        if C.size < 1 or not gc.is_perfect(C):
            continue
        e = gc.parameters(C).correction_capacity
        assert gc.is_trivial(C) == (e == 0)
        seen_trivial |= gc.is_trivial(C)
        seen_nontrivial |= not gc.is_trivial(C)
    assert seen_trivial and seen_nontrivial
