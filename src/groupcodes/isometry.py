"""Isometries of A^n: configurations, coordinate equivalences, and their products.

Every distance-preserving bijection of A^n factors as a configuration (one
alphabet permutation per coordinate) composed with a coordinate
permutation. Two application conventions coexist on purpose:

* pull: ``y[j] = f[j](x[perm[j]])`` -- the definitional convention.
* push: ``y[perm[t]] = x[t]`` -- the convention used by worked
  interleaving tables; equals pull with the inverse permutation.

Values are stored extensionally (permutation array plus one bijection
array per coordinate) so they hash, compare, and serialize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem, itemgetter
from typing import Iterator, Sequence

from .codes import Code, Word, hamming_distance
from .errors import IncompatibleError, PreconditionError, ResourceLimitError

DEFAULT_ENUMERATION_CAP = 10**7


def _check_perm(perm: Sequence[int], n: int, what: str) -> tuple[int, ...]:
    p = tuple(int(i) for i in perm)
    if len(p) != n or sorted(p) != list(range(n)):
        raise PreconditionError(f"{what} {p} is not a permutation of 0..{n - 1}")
    return p


@dataclass(frozen=True)
class Equivalence:
    """A coordinate permutation acting on words (0-based)."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_perm(self.perm, len(self.perm), "coordinate permutation")

    @property
    def n(self) -> int:
        return len(self.perm)

    def pull(self, x: Word) -> Word:
        if len(x) != self.n:
            raise IncompatibleError(f"word length {len(x)}, permutation degree {self.n}")
        return tuple(x[self.perm[j]] for j in range(self.n))

    def push(self, x: Word) -> Word:
        if len(x) != self.n:
            raise IncompatibleError(f"word length {len(x)}, permutation degree {self.n}")
        y = [0] * self.n
        for t, s in enumerate(x):
            y[self.perm[t]] = s
        return tuple(y)

    def inverse(self) -> "Equivalence":
        inv = [0] * self.n
        for j, i in enumerate(self.perm):
            inv[i] = j
        return Equivalence(tuple(inv))


@dataclass(frozen=True)
class Configuration:
    """One alphabet bijection per coordinate, applied coordinatewise."""

    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for j, f in enumerate(self.maps):
            _check_perm(f, len(f), f"coordinate-{j} alphabet map")

    @property
    def n(self) -> int:
        return len(self.maps)

    def apply(self, x: Word) -> Word:
        if len(x) != self.n:
            raise IncompatibleError(f"word length {len(x)}, configuration arity {self.n}")
        return tuple(self.maps[j][s] for j, s in enumerate(x))


@dataclass(frozen=True)
class Isometry:
    """Normal form f∘σ̄: permute coordinates (pull), then relabel symbols."""

    config: Configuration
    equiv: Equivalence

    def __post_init__(self) -> None:
        if self.config.n != self.equiv.n:
            raise IncompatibleError(
                f"configuration arity {self.config.n} != permutation degree {self.equiv.n}")

    @property
    def n(self) -> int:
        return self.equiv.n

    def apply(self, x: Word) -> Word:
        return self.config.apply(self.equiv.pull(x))

    def as_map(self, q: int) -> tuple[Word, ...]:
        """Extensional form: images of all q^n words in lexicographic order."""
        return tuple(self.apply(w) for w in itertools.product(range(q), repeat=self.n))

    @classmethod
    def _build(cls, maps: tuple[tuple[int, ...], ...], perm: tuple[int, ...]) -> "Isometry":
        # internal fast path: maps and perm are permutations by construction,
        # so the validating __post_init__ of all three classes is skipped
        config = object.__new__(Configuration)
        config.__dict__["maps"] = maps
        equiv = object.__new__(Equivalence)
        equiv.__dict__["perm"] = perm
        iso = object.__new__(cls)
        iso.__dict__.update(config=config, equiv=equiv)
        return iso


def identity_isometry(q: int, n: int) -> Isometry:
    return Isometry._build((tuple(range(q)),) * n, tuple(range(n)))


def from_permutation(perm: Sequence[int], q: int, *, push: bool = False) -> Isometry:
    """Pure coordinate permutation as an isometry (identity configuration).

    With ``push=True`` the array is interpreted in the push convention and
    stored as the equivalent pull permutation.
    """
    equiv = Equivalence(tuple(int(i) for i in perm))
    if push:
        equiv = equiv.inverse()
    ident = tuple(range(q))
    return Isometry(Configuration((ident,) * equiv.n), equiv)


def apply_pull(iso: Isometry, x: Word) -> Word:
    """y[j] = f[j](x[perm[j]])."""
    return iso.apply(x)


def apply_push(equiv: Equivalence, x: Word) -> Word:
    """y[perm[t]] = x[t]; equals pull with the inverse permutation."""
    return equiv.push(x)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """The isometry x -> a(b(x)), renormalized to f∘σ̄ form.

    Uses the conjugation rule σ̄∘g = g_σ∘σ̄, so the composite permutation is
    t -> b.perm[a.perm[t]] and coordinate j applies a.f[j]∘b.f[a.perm[j]].
    """
    if a.n != b.n:
        raise IncompatibleError(f"composing isometries of degree {a.n} and {b.n}")
    sigma, tau = a.equiv.perm, b.equiv.perm
    amaps, bmaps = a.config.maps, b.config.maps
    if list(map(len, amaps)) != [len(bmaps[i]) for i in sigma]:
        raise IncompatibleError("composing isometries over different alphabets")
    perm = tuple([tau[i] for i in sigma])
    maps = tuple([tuple([f[s] for s in bmaps[i]]) for f, i in zip(amaps, sigma)])
    return Isometry._build(maps, perm)


def inverse(iso: Isometry) -> Isometry:
    inv_equiv = iso.equiv.inverse()
    rho = inv_equiv.perm
    maps = []
    for i in range(iso.n):
        f = iso.config.maps[rho[i]]
        finv = [0] * len(f)
        for s, t in enumerate(f):
            finv[t] = s
        maps.append(tuple(finv))
    return Isometry(Configuration(tuple(maps)), inv_equiv)


def apply_to_code(iso: Isometry, C: Code) -> Code:
    """Image of a code; cardinality and minimum distance are preserved.

    Always returns a plain Code: an arbitrary isometry need not map a
    subgroup to a subgroup.
    """
    if iso.n != C.length:
        raise IncompatibleError(f"isometry degree {iso.n}, code length {C.length}")
    for f in iso.config.maps:
        if len(f) != C.alphabet.order:
            raise IncompatibleError(
                f"configuration alphabet size {len(f)}, code alphabet {C.alphabet.order}")
    perm, maps = iso.equiv.perm, iso.config.maps
    # one itemgetter pulls a word; it returns a lone coordinate bare
    words = list(map(itemgetter(*perm), C.words)) if C.length > 1 else list(C.words)
    ident = tuple(range(C.alphabet.order))
    if any(f != ident for f in maps):
        words = [tuple(map(getitem, maps, w)) for w in words]
    words.sort()
    return Code._build(C.alphabet, C.length, tuple(words))


def isometry_group_order(q: int, n: int) -> int:
    """|Iso(A^n)| = (q!)^n * n! for q >= 2; a one-point space has one isometry."""
    if q < 1 or n < 1:
        raise PreconditionError(f"need q >= 1 and n >= 1, got q={q}, n={n}")
    if q == 1:
        return 1
    return math.factorial(q) ** n * math.factorial(n)


def enumerate_isometries(q: int, n: int) -> Iterator[Isometry]:
    """Yield every isometry of A^n once, lexicographic over (σ, f_1..f_n);
    more than ``DEFAULT_ENUMERATION_CAP`` of them raise ResourceLimitError."""
    total = isometry_group_order(q, n)
    if total > DEFAULT_ENUMERATION_CAP:
        raise ResourceLimitError(
            f"{total} isometries exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}")

    def gen() -> Iterator[Isometry]:
        if q == 1:
            yield identity_isometry(q, n)
            return
        for sigma in itertools.permutations(range(n)):
            equiv = Equivalence(sigma)
            for fs in itertools.product(itertools.permutations(range(q)), repeat=n):
                yield Isometry(Configuration(fs), equiv)

    return gen()


def preserves_distances(iso: Isometry, q: int, sample: Sequence[tuple[Word, Word]] | None = None) -> bool:
    """Spot-check (or exhaustively check) distance preservation."""
    if sample is None:
        words = list(itertools.product(range(q), repeat=iso.n))
        pairs = itertools.combinations(words, 2)
    else:
        pairs = iter(sample)
    for x, y in pairs:
        if hamming_distance(iso.apply(x), iso.apply(y)) != hamming_distance(x, y):
            return False
    return True
