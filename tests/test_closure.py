"""Differential tests of the one closure routine (``groups.CosetClosure``)
and the one homomorphism backtracker (``groups.subgroup_isomorphisms``)
against plain frontier closures and brute force written here."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import groupcodes as gc
from groupcodes.codes import _check_subgroup
from groupcodes.errors import ClosureError
from groupcodes.groups import element_closure, subgroup_isomorphisms, word_closure
from groupcodes.isomorphy import code_generating_words
from groupcodes.serialize import alphabet_from_json

S3 = alphabet_from_json({"kind": "table", "label": "S3", "table": [
    [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]})
Z2, Z3, Z4, Z8 = (gc.cyclic_group(m) for m in (2, 3, 4, 8))
V4 = gc.klein_four_group()
Z2xZ4 = gc.product_group([Z2, Z4])
ALPHABETS = {"Z/2": Z2, "Z/3": Z3, "Z/4": Z4, "V4": V4, "S3": S3}


def word_mul(G, x, y):
    return tuple(G.table[a][b] for a, b in zip(x, y))


def frontier_closure(G, n, gens):
    """Smallest subgroup of G^n containing the words ``gens``."""
    known = {(G.identity,) * n}
    frontier = list(known)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = word_mul(G, x, g)
            if y not in known:
                known.add(y)
                frontier.append(y)
    return known


def frontier_generating_words(G, n, words, size=None):
    """Greedy generators over ``words`` in order, every word not generated
    by the ones taken before it, closing by a frontier after each one, until
    the closure holds ``size`` words; the generator choice of
    ``code_generating_words`` before the coset closure."""
    gens = []
    closure = {(G.identity,) * n}
    for w in words:
        if w in closure:
            continue
        gens.append(w)
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = word_mul(G, x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        if len(closure) == size:
            break
    return tuple(gens)


def frontier_check_subgroup(G, n, words):
    """The subgroup test by a from-scratch frontier closure, with the
    witness search of ``codes._check_subgroup``."""
    ws = frozenset(words)
    e = (G.identity,) * n
    if e not in ws:
        raise ClosureError("group code does not contain the identity word", witness=(e,))
    # a set of |ws| words containing the closure's generators is the closure
    # iff it is a subgroup
    if frontier_closure(G, n, frontier_generating_words(G, n, words, len(ws))) == ws:
        return
    for x in words:
        if tuple(G.inverse[s] for s in x) not in ws:
            raise ClosureError(f"inverse of {x} missing", witness=(x,))
    for x in words:
        for y in words:
            if word_mul(G, x, y) not in ws:
                raise ClosureError(f"product of {x} and {y} escapes the set", witness=(x, y))
    raise ClosureError("word set is not closed under the group operations", witness=())


@st.composite
def generator_words(draw):
    name = draw(st.sampled_from(sorted(ALPHABETS)))
    G = ALPHABETS[name]
    n = draw(st.integers(1, 4))
    word = st.tuples(*[st.integers(0, G.order - 1)] * n)
    return G, n, draw(st.lists(word, max_size=4))


@settings(max_examples=150, deadline=None)
@given(generator_words())
def test_word_closure_matches_frontier_closure(case):
    G, n, gens = case
    expected = frontier_closure(G, n, gens)
    closure = word_closure(G, n)
    closure.greedy(gens)
    assert len(closure.elements) == len(set(closure.elements))
    assert set(closure.elements) == expected
    C = gc.generate_group_code(G, n, gens)
    assert C.word_set == expected
    assert code_generating_words(C) == frontier_generating_words(G, n, C.words, C.size)
    _check_subgroup(G, n, C.words)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(ALPHABETS)), st.data())
def test_element_closure_matches_frontier_closure(name, data):
    G = ALPHABETS[name]
    seeds = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    closure = element_closure(G)
    picks = closure.greedy(seeds)
    words = frontier_closure(G, 1, [(a,) for a in seeds])
    assert set(closure.elements) == {w[0] for w in words}
    assert [seeds[k] for k in picks] == [
        g[0] for g in frontier_generating_words(G, 1, [(a,) for a in seeds])]


@settings(max_examples=200, deadline=None)
@given(generator_words(), st.data())
def test_non_subgroup_rejected_with_the_same_witness(case, data):
    G, n, gens = case
    words = set(frontier_closure(G, n, gens))
    extra = data.draw(st.lists(st.tuples(*[st.integers(0, G.order - 1)] * n), max_size=2))
    drop = data.draw(st.lists(st.sampled_from(sorted(words)), max_size=2))
    words = tuple(sorted((words | set(extra)) - set(drop)))
    if not words:
        return
    outcomes = []
    for check in (_check_subgroup, frontier_check_subgroup):
        try:
            check(G, n, words)
            outcomes.append(None)
        except ClosureError as err:
            outcomes.append((str(err), err.witness))
    assert outcomes[0] == outcomes[1]


def subgroups(G):
    """Every subgroup of G as a sorted tuple; the groups here are 2-generated."""
    found = set()
    for a, b in itertools.product(G.elements(), repeat=2):
        found.add(tuple(sorted(w[0] for w in frontier_closure(G, 1, [(a,), (b,)]))))
    return sorted(found)


def brute_isomorphisms(G, H, K):
    """Every bijection H -> K that is a homomorphism, by images in order of H."""
    if len(H) != len(K):
        return []
    out = []
    for images in itertools.permutations(K):
        f = dict(zip(H, images))
        if all(f[G.table[a][b]] == G.table[f[a]][f[b]] for a in H for b in H):
            out.append(images)
    return sorted(out)


@pytest.mark.parametrize("G", [S3, Z8, Z2xZ4, V4], ids=lambda G: G.label)
def test_subgroup_isomorphisms_match_brute_force(G):
    subs = subgroups(G)
    for H, K in itertools.product(subs, repeat=2):
        maps = subgroup_isomorphisms(G, H, K)
        assert all(list(m) == sorted(H) for m in maps)
        assert [tuple(m[a] for a in H) for m in maps] == brute_isomorphisms(G, H, K)


def d4_group():
    """The dihedral group of order 8 as permutations of the square's corners."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    elems = [tuple(range(4))]
    while len(elems) < 8:
        elems = sorted({tuple(x[y[i]] for i in range(4)) for x in elems for y in elems + [r, s]})
    index = {p: i for i, p in enumerate(elems)}
    return gc.group_from_table([[index[tuple(a[b[i]] for i in range(4))] for b in elems]
                                for a in elems], label="D4")


AUT_GROUPS = [gc.cyclic_group(m) for m in range(1, 9)] + [
    V4, S3, Z2xZ4, gc.product_group([Z2, Z2, Z2]), d4_group()]


@pytest.mark.parametrize("G", AUT_GROUPS, ids=lambda G: G.label)
def test_automorphisms_match_brute_force(G):
    elements = tuple(G.elements())
    assert [a.mapping for a in gc.automorphisms(G)] == brute_isomorphisms(G, elements, elements)
