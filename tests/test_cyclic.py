"""Cyclicity, interleaving, structure theorems, gcd certificate, join."""

from __future__ import annotations

import dataclasses
import importlib

import pytest
from hypothesis import event, given, settings, strategies as st

import groupcodes as gc
from groupcodes import cli, cyclic, isomorphy, serialize
from groupcodes.catalog import binary_repetition, repetition_code
from groupcodes.errors import IncompatibleError, PreconditionError, TheoremViolationError
from groupcodes.selftest import INTERLEAVE_DEMO_PAIRS, cyclic_corpus

import oracles

dmod = importlib.import_module("groupcodes.decompose")

S3 = gc.group_from_table([[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
                          [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]])
ALPHABETS = [gc.cyclic_group(2), gc.cyclic_group(3), gc.cyclic_group(4),
             gc.klein_four_group(), S3]

# frozen copy of the worked two-copy interleaving of D = {000,110,011,101}
EXPECTED_PAIRS = {
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


def test_is_cyclic_cases(rep3, code_d, z2):
    assert gc.is_cyclic(rep3)
    assert gc.is_cyclic(code_d)
    assert not gc.is_cyclic(gc.Code.from_words(z2, 3, [(0, 0, 1)]))


def test_shift_orbit_sizes(code_d, rep3):
    assert sorted(gc.shift_orbit_sizes(code_d)) == [1, 3]
    assert gc.shift_orbit_sizes(rep3) == (1, 1)
    for C in (code_d, rep3):
        assert sum(gc.shift_orbit_sizes(C)) == C.size


@st.composite
def rotation_codes(draw):
    """A code over Z/2, Z/3, Z/4, V4 or S3 of length at most 6 (4 for a
    group code over a group of order 4 or 6): random words, words that
    repeat a shorter period, either with some of their rotations, as a
    plain code or the group code they generate; the cyclic group code
    their rotations generate; or a singleton, plain or the identity."""
    G = draw(st.sampled_from(ALPHABETS))
    kind = draw(st.sampled_from(["random", "periodic", "group", "cyclic", "singleton"]))
    event(kind)
    n = draw(st.integers(1, 4 if kind in ("group", "cyclic") and G.order >= 4 else 6))
    symbols = st.integers(0, G.order - 1)
    if kind == "singleton":
        if draw(st.booleans()):
            return gc.GroupCode.from_words(G, n, [(G.identity,) * n])
        return gc.Code.from_words(G, n, [draw(st.tuples(*[symbols] * n))])
    if kind == "periodic":
        p = draw(st.sampled_from([p for p in range(1, n + 1) if n % p == 0]))
        words = [b * (n // p) for b in draw(st.lists(st.tuples(*[symbols] * p),
                                                     min_size=1, max_size=4))]
    else:
        words = draw(st.lists(st.tuples(*[symbols] * n), min_size=1, max_size=8))
    if kind == "cyclic":
        return gc.generate_group_code(G, n, [w[k:] + w[:k] for w in words[:2] for k in range(n)])
    words += [w[k:] + w[:k] for w in words
              for k in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    if kind == "group" or (kind == "periodic" and draw(st.booleans())):
        return gc.generate_group_code(G, n, words[:2])
    return gc.Code.from_words(G, n, words)


@settings(max_examples=300, deadline=None)
@given(rotation_codes())
def test_shift_orbit_sizes_match_the_rotation_walk(C):
    assert gc.shift_orbit_sizes(C) == oracles.shift_orbit_sizes(C)
    for w in C.words:
        assert cyclic.least_rotation(w) == min(w[k:] + w[:k] for k in range(C.length))


def test_interleave_permutation_formula():
    assert gc.interleave_permutation(3, 2) == (1, 3, 5, 2, 4, 6)
    assert gc.interleave_permutation(4, 1) == (1, 2, 3, 4)
    assert gc.interleave_permutation(2, 3) == (1, 4, 2, 5, 3, 6)


def test_interleave_single_copy_is_identity(code_d):
    assert gc.interleave(code_d, 1).words == code_d.words


def test_interleave_reference_table(code_d):
    C = gc.interleave(code_d, 2)
    sigma = gc.interleave_permutation(3, 2)
    equiv = gc.Equivalence(tuple(s - 1 for s in sigma))
    got = {src: gc.apply_push(equiv, src)
           for src in (a + b for a in code_d.words for b in code_d.words)}
    assert got == EXPECTED_PAIRS
    assert set(C.words) == set(EXPECTED_PAIRS.values())
    assert gc.is_cyclic(C)
    assert C.size == 16
    # stored library copy agrees with this module's frozen table
    assert set(INTERLEAVE_DEMO_PAIRS) == set(EXPECTED_PAIRS.items())


def test_interleave_row_example(code_d):
    sigma = gc.Equivalence(tuple(s - 1 for s in gc.interleave_permutation(3, 2)))
    assert gc.apply_push(sigma, (1, 0, 1, 0, 1, 1)) == (1, 0, 0, 1, 1, 1)


def test_interleave_is_isomorphic_to_plain_sum(code_d):
    for copies in (2, 3):
        plain = gc.direct_sum_all([code_d] * copies)
        C = gc.interleave(code_d, copies)
        # the push permutation itself is the witness (identity configuration)
        witness = gc.from_permutation(
            tuple(s - 1 for s in gc.interleave_permutation(3, copies)), 2, push=True)
        assert {witness.apply(w) for w in plain.words} == C.word_set
    assert gc.gc_isomorphic(gc.direct_sum(code_d, code_d), gc.interleave(code_d, 2)) is not None


def test_interleave_requires_cyclic_group_code(z2):
    not_cyclic = gc.GroupCode.from_words(z2, 2, [(0, 0), (1, 0)])
    with pytest.raises(PreconditionError):
        gc.interleave(not_cyclic, 2)
    with pytest.raises(PreconditionError):
        gc.interleave(gc.GroupCode.from_words(z2, 1, [(0,), (1,)]), 0)


def test_cyclic_structure_interleaved(code_d):
    s = gc.cyclic_structure(gc.interleave(code_d, 2))
    assert s.multiplicity == 2
    assert s.components_pairwise_isomorphic and s.components_cyclic
    assert isinstance(s.component, gc.GroupCode)
    assert gc.gc_isomorphic(s.component, code_d) is not None


def test_cyclic_structure_indecomposable(rep3):
    s = gc.cyclic_structure(rep3)
    assert s.multiplicity == 1
    assert s.component.words == rep3.words


def test_cyclic_structure_full_space(z2):
    s = gc.cyclic_structure(gc.full_space(z2, 3))
    assert s.multiplicity == 3
    assert s.component.length == 1 and s.component.size == 2


def test_cyclic_structure_rejects_non_cyclic(z4_code):
    with pytest.raises(PreconditionError):
        gc.cyclic_structure(z4_code)


def test_cyclic_report_scans_cyclicity_once(code_d, z4_code, monkeypatch):
    C = gc.interleave(code_d, 2)
    lengths = []
    scan = cyclic.is_cyclic
    monkeypatch.setattr(cyclic, "is_cyclic", lambda D: lengths.append(D.length) or scan(D))
    report = gc.cyclic_report(C)
    assert report.gcd_certificate is None and report.component_structure.multiplicity == 2
    assert lengths == [6, 3, 3]  # the code once, then each component
    # direct callers still get the precondition
    with pytest.raises(PreconditionError):
        gc.gcd_certificate(z4_code)


def test_gcd_certificate_cases(code_d, z2, z3):
    # |C| = 8, n = 3: xi = 3, gcd(3, 3) = 3, certificate silent
    assert gc.gcd_certificate(gc.full_space(z2, 3)) is None
    # |C| = 4, n = 3: xi = 2, gcd(2, 3) = 1, certificate present
    cert = gc.gcd_certificate(code_d)
    assert cert is not None and cert.xi == 2
    assert gc.is_decomposable(code_d, use_certificates=False) is None
    # |C| = 6, n = 4: xi = gcd(1, 1) = 1, gcd(1, 4) = 1, present
    joined = gc.join([binary_repetition(4), repetition_code(z3, 4)])
    assert joined.size == 6 and joined.length == 4
    cert = gc.gcd_certificate(joined)
    assert cert is not None and cert.xi == 1
    assert gc.is_decomposable(joined, use_certificates=False) is None


def test_gcd_certificate_never_contradicts_search():
    for C in cyclic_corpus():
        if gc.gcd_certificate(C) is not None:
            assert gc.is_decomposable(C, use_certificates=False) is None


def test_gcd_converse_fails_on_full_spaces(z2):
    # decomposable although the alphabet-order exponents have gcd 1 with n
    full = gc.full_space(z2, 3)
    assert gc.is_decomposable(full, use_certificates=False) is not None
    assert gc.gcd_certificate(full) is None


def test_components_of_decomposable_cyclic_codes():
    seen_decomposable = 0
    for C in cyclic_corpus():
        assert gc.is_cyclic(C)
        if C.length > 10:
            continue
        if gc.is_decomposable(C, use_certificates=False) is None:
            continue
        s = gc.cyclic_structure(C)  # raises on any theorem violation
        assert s.components_pairwise_isomorphic and s.components_cyclic
        assert s.multiplicity >= 2
        seen_decomposable += 1
    assert seen_decomposable >= 5


def test_cyclic_structure_on_the_decomposition_matches_the_pairwise_route():
    for C in cyclic_corpus():
        if C.length <= 10:
            assert gc.cyclic_structure(C, gc.decompose(C)) == oracles.cyclic_structure(C)


@st.composite
def cyclic_v4_codes(draw):
    """The group code generated by one or two random words over V4 and all
    their rotations: cyclic, as the rotation is an automorphism of V4^n."""
    n = draw(st.integers(2, 5))
    words = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=2))
    rotations = [w[k:] + w[:k] for w in words for k in range(n)]
    return gc.generate_group_code(gc.klein_four_group(), n, rotations)


@settings(max_examples=30, deadline=None)
@given(cyclic_v4_codes())
def test_cyclic_structure_matches_the_pairwise_route_on_random_v4_codes(C):
    assert gc.is_cyclic(C)
    dec = gc.decompose(C)
    assert gc.cyclic_structure(C, dec) == oracles.cyclic_structure(C)
    assert gc.cyclic_report(C, dec) == gc.cyclic_report(C)


def test_cyclic_structure_raises_on_a_decomposition_with_two_isotypes(code_d):
    C = gc.interleave(code_d, 2)
    dec = gc.decompose(C)
    assert dec.isotypes == ((0, 2),)
    split = dataclasses.replace(dec, isotypes=((0, 1), (1, 1)), isotype_members=((0,), (1,)))
    with pytest.raises(TheoremViolationError):
        gc.cyclic_structure(C, split)


def test_cyclic_structure_rejects_a_decomposition_of_another_code(code_d, z2):
    C = gc.interleave(code_d, 2)
    for other in (code_d, gc.full_space(z2, 6), gc.direct_sum(code_d, code_d)):
        with pytest.raises(PreconditionError):
            gc.cyclic_structure(C, gc.decompose(other))


def test_analyze_decomposes_a_cyclic_group_code_once(code_d, tmp_path, monkeypatch, capsys):
    # the cyclic section reads the decomposition of the analyze report, and
    # gc_isomorphic runs only inside it, for the isotypes
    calls, outside = [], []
    real_decompose, real_isomorphic = dmod.decompose, isomorphy.gc_isomorphic

    def counted(*args, **kwargs):
        calls.append(args[0])
        try:
            return real_decompose(*args, **kwargs)
        finally:
            calls.append(None)

    def watched(*args, **kwargs):
        if len(calls) % 2 == 0:  # no decompose running
            outside.append(args)
        return real_isomorphic(*args, **kwargs)

    for module in (cli, cyclic):
        monkeypatch.setattr(module, "decompose", counted)
    for module in (cli, cyclic, dmod):
        monkeypatch.setattr(module, "gc_isomorphic", watched, raising=False)
    C = gc.interleave(code_d, 2)
    path = tmp_path / "c.json"
    path.write_text(serialize.dumps(serialize.code_to_json(C)))
    assert cli.main(["analyze", str(path)]) == 0
    doc = capsys.readouterr().out
    assert '"multiplicity": 2' in doc
    assert calls == [C, None]
    assert outside == []


def test_join_single_code_reencodes(code_d):
    out = gc.join([code_d])
    assert out.words == code_d.words
    assert out.alphabet.table == code_d.alphabet.table


def test_join_mixed_groups(z2, z3):
    out = gc.join([binary_repetition(2), repetition_code(z3, 2)])
    assert out.alphabet.order == 6
    assert out.size == 6
    assert gc.is_cyclic(out)


def test_join_even_weight_square(code_d):
    out = gc.join([code_d, code_d])
    assert out.alphabet.order == 4
    assert out.size == 16 and out.length == 3
    assert gc.is_cyclic(out)


def test_join_length_mismatch(code_d, z3):
    with pytest.raises(IncompatibleError):
        gc.join([code_d, repetition_code(z3, 2)])


def test_cyclic_report_assembly(code_d, z4_code):
    rep = gc.cyclic_report(code_d)
    assert rep.is_cyclic
    assert rep.gcd_certificate is not None
    assert rep.component_structure is not None
    assert rep.component_structure.multiplicity == 1
    other = gc.cyclic_report(z4_code)
    assert not other.is_cyclic
    assert other.gcd_certificate is None and other.component_structure is None
