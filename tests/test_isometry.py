"""Isometries: conventions, composition, enumeration, the factorization."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

import groupcodes as gc
from groupcodes import isometry
from groupcodes.errors import IncompatibleError, PreconditionError, ResourceLimitError

from oracles import compose_points, from_points

# the worked interleaving table rows, frozen: push of sigma=(1,3,5,2,4,6)
PUSH_TABLE_ROWS = {
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
SIGMA_PUSH = gc.Equivalence((0, 2, 4, 1, 3, 5))  # 1-based (1,3,5,2,4,6)


def random_isometry(rng: random.Random, q: int, n: int) -> gc.Isometry:
    perm = list(range(n))
    rng.shuffle(perm)
    maps = []
    for _ in range(n):
        m = list(range(q))
        rng.shuffle(m)
        maps.append(tuple(m))
    return gc.Isometry(gc.Configuration(tuple(maps)), gc.Equivalence(tuple(perm)))


def test_apply_pull_identity():
    iso = gc.identity_isometry(3, 4)
    assert gc.apply_pull(iso, (2, 0, 1, 2)) == (2, 0, 1, 2)


def test_apply_pull_transposition():
    swap = gc.from_permutation((1, 0), 3)
    assert gc.apply_pull(swap, (2, 1)) == (1, 2)


def test_apply_pull_config_flip():
    flip_first = gc.Isometry(gc.Configuration(((1, 0), (0, 1))), gc.Equivalence((0, 1)))
    assert gc.apply_pull(flip_first, (0, 1)) == (1, 1)


def test_apply_push_lands_symbols():
    # 1-based σ(2) = 3: the second symbol lands in position three
    equiv = gc.Equivalence((1, 2, 0))
    y = gc.apply_push(equiv, (7, 8, 9))
    assert y[2] == 8


def test_apply_push_reference_rows():
    assert gc.apply_push(SIGMA_PUSH, (0, 0, 0, 1, 1, 0)) == (0, 1, 0, 1, 0, 0)
    assert gc.apply_push(SIGMA_PUSH, (1, 1, 0, 1, 0, 1)) == (1, 1, 1, 0, 0, 1)
    for src, dst in PUSH_TABLE_ROWS.items():
        assert gc.apply_push(SIGMA_PUSH, src) == dst


@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.permutations(list(range(n))),
    st.tuples(*[st.integers(0, 2) for _ in range(n)]))))
def test_push_is_pull_of_inverse(data):
    perm, word = data
    equiv = gc.Equivalence(tuple(perm))
    assert equiv.push(word) == equiv.inverse().pull(word)


def test_compose_identity_neutral():
    rng = random.Random(3)
    for _ in range(10):
        a = random_isometry(rng, 3, 4)
        ident = gc.identity_isometry(3, 4)
        assert gc.compose(ident, a) == a
        assert gc.compose(a, ident) == a


def test_compose_with_inverse_gives_identity():
    rng = random.Random(4)
    for _ in range(10):
        a = random_isometry(rng, 4, 3)
        assert gc.compose(a, gc.inverse(a)) == gc.identity_isometry(4, 3)
        assert gc.compose(gc.inverse(a), a) == gc.identity_isometry(4, 3)


def test_compose_matches_extensional_composition():
    rng = random.Random(5)
    for _ in range(20):
        q, n = rng.choice([(2, 3), (3, 2), (4, 2)])
        a, b = random_isometry(rng, q, n), random_isometry(rng, q, n)
        c = gc.compose(a, b)
        for w in itertools.product(range(q), repeat=n):
            assert c.apply(w) == a.apply(b.apply(w))


def test_compose_associative_sampled():
    rng = random.Random(6)
    for _ in range(10):
        a, b, c = (random_isometry(rng, 3, 3) for _ in range(3))
        assert gc.compose(gc.compose(a, b), c) == gc.compose(a, gc.compose(b, c))


@given(st.randoms(use_true_random=False), st.sampled_from([(2, 3), (3, 2), (4, 3), (5, 1)]))
def test_compose_equals_validated_construction(rnd, shape):
    # compose builds through the trusted fast path; the same isometry built
    # through the validating constructors must be equal and hash alike
    q, n = shape
    a, b = random_isometry(rnd, q, n), random_isometry(rnd, q, n)
    c = gc.compose(a, b)
    sigma, tau = a.equiv.perm, b.equiv.perm
    maps = tuple(tuple(a.config.maps[j][s] for s in b.config.maps[sigma[j]]) for j in range(n))
    validated = gc.Isometry(gc.Configuration(maps),
                            gc.Equivalence(tuple(tau[sigma[j]] for j in range(n))))
    assert c == validated and hash(c) == hash(validated)
    assert c.config == validated.config and c.equiv == validated.equiv
    assert {validated: "found"}[c] == "found"


def test_public_constructors_still_validate():
    with pytest.raises(PreconditionError):
        gc.Equivalence((0, 0, 2))
    with pytest.raises(PreconditionError):
        gc.Equivalence((1, 2))
    with pytest.raises(PreconditionError):
        gc.Configuration(((0, 1), (1, 1)))
    with pytest.raises(PreconditionError):
        gc.from_permutation((1, 1, 0), 2)
    with pytest.raises(IncompatibleError):
        gc.Isometry(gc.Configuration(((0, 1),)), gc.Equivalence((0, 1)))


def test_compose_rejects_mixed_alphabets():
    with pytest.raises(IncompatibleError):
        gc.compose(gc.identity_isometry(2, 2), gc.identity_isometry(3, 2))
    with pytest.raises(IncompatibleError):
        gc.compose(gc.identity_isometry(2, 2), gc.identity_isometry(2, 3))


@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(1, 5))
def test_point_form_composes_like_compose(rnd, q, n):
    # P_{a∘b} = P_a∘P_b, and the point form round-trips to the isometry
    a, b = random_isometry(rnd, q, n), random_isometry(rnd, q, n)
    pa, pb = isometry.to_points(a), isometry.to_points(b)
    assert sorted(pa) == list(range(q * n))
    assert compose_points(pa, pb) == isometry.to_points(gc.compose(a, b))
    assert from_points(pa, q) == a
    assert from_points(compose_points(pa, pb), q) == gc.compose(a, b)


@given(st.randoms(use_true_random=False), st.integers(2, 4), st.integers(1, 4))
def test_point_form_carries_words_to_their_images(rnd, q, n):
    iso = random_isometry(rnd, q, n)
    points = isometry.to_points(iso)
    x = tuple(rnd.randrange(q) for _ in range(n))
    image = {points[i * q + s] for i, s in enumerate(x)}
    assert image == {j * q + s for j, s in enumerate(iso.apply(x))}


def test_from_points_rejects_non_isometries():
    with pytest.raises(PreconditionError):
        from_points((0, 2, 1, 3), 2)  # coordinate 0 split over two coordinates
    with pytest.raises(PreconditionError):
        from_points((0, 1, 0, 1), 2)  # both coordinates onto one
    with pytest.raises(PreconditionError):
        from_points((0, 1, 2), 2)
    with pytest.raises(IncompatibleError):
        isometry.to_points(gc.Isometry(gc.Configuration(((0, 1), (0, 1, 2))),
                                       gc.Equivalence((0, 1))))
    with pytest.raises(IncompatibleError):
        compose_points((0, 1), (0, 1, 2, 3))


def test_conjugation_relabels_configuration():
    # σ̄^{-1} ∘ f ∘ σ̄ is the configuration j -> f[σ^{-1}(j)], no residual permutation
    rng = random.Random(7)
    q, n = 3, 4
    for _ in range(10):
        perm = list(range(n))
        rng.shuffle(perm)
        maps = []
        for _ in range(n):
            m = list(range(q))
            rng.shuffle(m)
            maps.append(tuple(m))
        sigma_iso = gc.from_permutation(tuple(perm), q)
        f_iso = gc.Isometry(gc.Configuration(tuple(maps)), gc.Equivalence(tuple(range(n))))
        conj = gc.compose(gc.inverse(sigma_iso), gc.compose(f_iso, sigma_iso))
        assert conj.equiv.perm == tuple(range(n))
        inv = sigma_iso.equiv.inverse().perm
        assert conj.config.maps == tuple(maps[inv[j]] for j in range(n))


def test_apply_to_code_identity(code_d):
    assert gc.apply_to_code(gc.identity_isometry(2, 3), code_d).words == code_d.words


def test_apply_to_code_preserves_invariants(corpus):
    rng = random.Random(8)
    for C in corpus[:8]:
        iso = random_isometry(rng, C.alphabet.order, C.length)
        image = gc.apply_to_code(iso, C)
        assert image.size == C.size
        assert gc.min_distance(image) == gc.min_distance(C)


@given(st.data())
def test_apply_to_code_matches_the_word_by_word_apply(data):
    q = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 5))
    words = data.draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), min_size=1, max_size=12))
    C = gc.Code.from_words(gc.cyclic_group(q), n, words)
    perm = tuple(data.draw(st.permutations(range(n))))
    # the identity relabelling one time in three, so both branches run
    ident = data.draw(st.integers(0, 2)) == 0
    maps = tuple(tuple(range(q)) if ident else tuple(data.draw(st.permutations(range(q))))
                 for _ in range(n))
    iso = gc.Isometry(gc.Configuration(maps), gc.Equivalence(perm))
    image = gc.apply_to_code(iso, C)
    assert type(image) is gc.Code
    assert image.words == tuple(sorted(iso.apply(w) for w in C.words))


def test_identity_isometry_equals_the_validated_one():
    for q, n in [(1, 1), (2, 3), (4, 1), (3, 5)]:
        ident = gc.Isometry(gc.Configuration((tuple(range(q)),) * n),
                            gc.Equivalence(tuple(range(n))))
        assert gc.identity_isometry(q, n) == ident
        assert hash(gc.identity_isometry(q, n)) == hash(ident)


def test_apply_to_code_push_table(code_d):
    square = gc.direct_sum(code_d, code_d)
    pushed = {gc.apply_push(SIGMA_PUSH, w) for w in square.words}
    assert pushed == set(PUSH_TABLE_ROWS.values())


def test_apply_to_code_dimension_mismatch(code_d):
    with pytest.raises(IncompatibleError):
        gc.apply_to_code(gc.identity_isometry(2, 4), code_d)
    with pytest.raises(IncompatibleError):
        gc.apply_to_code(gc.identity_isometry(3, 3), code_d)


def test_isometry_group_order_values():
    assert gc.isometry_group_order(2, 2) == 8
    assert gc.isometry_group_order(1, 7) == 1
    assert gc.isometry_group_order(3, 1) == 6
    assert gc.isometry_group_order(2, 3) == 48


def test_enumerate_isometries_counts_and_distinct():
    maps = [iso.as_map(2) for iso in gc.enumerate_isometries(2, 2)]
    assert len(maps) == 8 and len(set(maps)) == 8
    assert sum(1 for _ in gc.enumerate_isometries(2, 1)) == 2
    assert sum(1 for _ in gc.enumerate_isometries(2, 3)) == 48
    assert sum(1 for _ in gc.enumerate_isometries(1, 3)) == 1


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 1), (4, 1), (3, 2)])
def test_enumerated_isometries_preserve_distance(q, n):
    for iso in gc.enumerate_isometries(q, n):
        assert gc.preserves_distances(iso, q)


def test_normal_form_uniqueness():
    # distinct (f, σ) pairs act as distinct maps for q >= 2
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        maps = {iso.as_map(q) for iso in gc.enumerate_isometries(q, n)}
        assert len(maps) == gc.isometry_group_order(q, n)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (4, 1)])
def test_factorization_brute_force_small(q, n):
    # every distance-preserving bijection of a space with q^n <= 16 words
    # is some f∘σ̄
    words = list(itertools.product(range(q), repeat=n))
    m = len(words)
    dist = [[gc.hamming_distance(words[i], words[j]) for j in range(m)] for i in range(m)]
    brute = set()
    for perm in itertools.permutations(range(m)):
        if all(dist[perm[i]][perm[j]] == dist[i][j]
               for i in range(m) for j in range(i + 1, m)):
            brute.add(tuple(words[i] for i in perm))
    normal = {iso.as_map(q) for iso in gc.enumerate_isometries(q, n)}
    assert brute == normal


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        gc.enumerate_isometries(4, 5)
