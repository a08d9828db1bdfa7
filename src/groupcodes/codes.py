"""Words, codes, group codes, the Hamming metric, and parameter reports.

Words are plain tuples of element indices. Coordinates are 0-based
throughout the Python API; the JSON layer converts to 1-based.
Codes store their words sorted lexicographically and deduplicated, so set
comparisons, hashing, and serialization are deterministic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, Sequence

from .errors import (ClosureError, IncompatibleError, InvalidWordError, PreconditionError,
                     ResourceLimitError, TheoremViolationError)
from .groups import FiniteGroup, word_closure

Word = tuple[int, ...]

# Kernels switch from word tuples to ``Code.packed_words`` only for codes
# with more words than this: below it, the tuple scans are as fast, and
# the packing is never built.
PACKED_ABOVE_WORDS = 64


def hamming_distance(x: Word, y: Word) -> int:
    """Number of coordinates where two equal-length words differ."""
    if len(x) != len(y):
        raise IncompatibleError(f"words of length {len(x)} and {len(y)}")
    return sum(a != b for a, b in zip(x, y))


def weight(x: Word, x0: Word) -> int:
    """Weight of x relative to the base word x0: their Hamming distance."""
    return hamming_distance(x, x0)


def _symbol(s: object) -> int:
    """An integer symbol as a plain int; bools, strings and floats are no symbols."""
    if isinstance(s, Integral) and not isinstance(s, bool):
        return int(s)
    raise InvalidWordError(f"symbol {s!r} is not an integer")


def _check_word(w: Sequence[int], n: int, q: int) -> Word:
    t = tuple(w)
    if set(map(type, t)) != {int}:
        t = tuple(map(_symbol, t))
    if len(t) != n:
        raise InvalidWordError(f"word length {len(t)}, expected {n}")
    for s in t:
        if not 0 <= s < q:
            raise InvalidWordError(f"symbol {s} outside alphabet 0..{q - 1}")
    return t


@dataclass(frozen=True)
class Code:
    """A non-empty set of equal-length words over a finite alphabet.

    The alphabet is always carried as a FiniteGroup; plain codes simply
    ignore the group structure.
    """

    alphabet: FiniteGroup
    length: int
    words: tuple[Word, ...]

    @classmethod
    def from_words(cls, alphabet: FiniteGroup, length: int, words: Iterable[Sequence[int]]) -> "Code":
        checked = sorted({_check_word(w, length, alphabet.order) for w in words})
        if not checked:
            raise PreconditionError("a code must be a non-empty word set")
        if length < 1:
            raise PreconditionError(f"code length must be positive, got {length}")
        return cls._build(alphabet, length, tuple(checked))

    @classmethod
    def _build(cls, alphabet: FiniteGroup, length: int, words: tuple[Word, ...]) -> "Code":
        # internal fast path: words already canonical and validated
        return cls(alphabet=alphabet, length=length, words=words)

    @cached_property
    def word_set(self) -> frozenset[Word]:
        return frozenset(self.words)

    @cached_property
    def packed_words(self) -> tuple[int, ...]:
        """Each word one-hot packed into one int: bit q*j + s is set for
        symbol s at coordinate j. Two packed words differ in twice as many
        bits as the words differ in coordinates."""
        offsets = range(0, self.alphabet.order * self.length, self.alphabet.order)
        return tuple(sum(1 << (o + s) for o, s in zip(offsets, w)) for w in self.words)

    @cached_property
    def coordinate_projections(self) -> tuple[tuple[int, ...], ...]:
        """For each coordinate i, the sorted symbols of pi_i(C)."""
        return tuple(tuple(sorted(set(column))) for column in zip(*self.words))

    @cached_property
    def weight_distribution(self) -> Counter:
        """How many codewords have each weight relative to ``identity_word()``."""
        e, n = self.alphabet.identity, self.length
        return Counter(n - w.count(e) for w in self.words)

    @cached_property
    def distance(self) -> int:
        """Minimum distance, n+1 for a singleton code, computed on first
        use: read off the weight distribution of a group code, where the
        metric is translation invariant (d(x, y) = w(x * y^-1)), and by the
        pairwise scan ``min_distance`` otherwise."""
        if isinstance(self, GroupCode):
            return min_weight_nonidentity(self)
        return min_distance(self)

    @property
    def size(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.word_set

    def identity_word(self) -> Word:
        return (self.alphabet.identity,) * self.length

    def __repr__(self) -> str:
        kind = type(self).__name__
        return f"{kind}(n={self.length}, size={self.size}, alphabet={self.alphabet.label})"


@dataclass(frozen=True, repr=False)
class GroupCode(Code):
    """A subgroup of G^n, stored like a Code but validated for closure."""

    @classmethod
    def from_words(cls, alphabet: FiniteGroup, length: int, words: Iterable[Sequence[int]]) -> "GroupCode":
        code = Code.from_words(alphabet, length, words)
        _check_subgroup(alphabet, code.length, code.words)
        return cls._build(alphabet, code.length, code.words)

    @classmethod
    def generate(cls, alphabet: FiniteGroup, length: int, generators: Iterable[Sequence[int]]) -> "GroupCode":
        return generate_group_code(alphabet, length, generators)


def _check_subgroup(G: FiniteGroup, n: int, words: tuple[Word, ...]) -> None:
    """Raise ClosureError unless the sorted ``words`` form a subgroup of G^n,
    in O(|C|·|gens|·n). The closure of greedy generators from the set equals
    the set iff the set is a subgroup; else it has outgrown the set, and an
    inverse is missing or a word x and a generator g have x·g outside, as a set
    that holds e and is closed under ·g for each generator holds their group."""
    ws = frozenset(words)
    e = (G.identity,) * n
    if e not in ws:
        raise ClosureError("group code does not contain the identity word", witness=(e,))
    closure = word_closure(G, n, limit=len(ws))
    closure.greedy(words)
    if len(closure) == len(ws):
        return
    for x in words:
        if word_inv(G, x) not in ws:
            raise ClosureError(f"inverse of {x} missing", witness=(x,))
    for x in words:
        for g in closure.gens:  # in pick order
            if word_mul(G, x, g) not in ws:
                raise ClosureError(f"product of {x} and {g} escapes the set", witness=(x, g))
    raise TheoremViolationError("a set closed under its generators is no subgroup")


def word_mul(G: FiniteGroup, x: Word, y: Word) -> Word:
    return tuple(G.table[a][b] for a, b in zip(x, y))


def word_inv(G: FiniteGroup, x: Word) -> Word:
    return tuple(G.inverse[a] for a in x)


# The most symbols, |C|·n, a generated code may hold. Closing 65,536 words
# of length 30 (1.97M symbols) takes about 0.3 s and 21 MiB (tracemalloc
# peak) on one 2-vCPU core; 30 generators of length 30 can ask for 2^30 words.
MAX_GENERATED_SYMBOLS = 2**21


def generate_group_code(G: FiniteGroup, length: int, generators: Iterable[Sequence[int]]) -> GroupCode:
    """Smallest subgroup of G^n containing the generator words; raises
    ResourceLimitError as soon as it holds more than ``MAX_GENERATED_SYMBOLS``
    symbols, and before building any word if the length alone does."""
    limit = MAX_GENERATED_SYMBOLS // length  # in words
    if limit:
        closure = word_closure(G, length, limit=limit)
        closure.greedy([_check_word(w, length, G.order) for w in generators])
    if not limit or closure.overflowed():
        raise ResourceLimitError(
            f"a generated code of length {length} exceeds the cap of {MAX_GENERATED_SYMBOLS} symbols")
    return GroupCode._build(G, length, tuple(sorted(closure.elements)))


def min_distance(C: Code) -> int:
    """Minimum pairwise Hamming distance; n+1 for a singleton code.

    Always the pairwise scan, so it stays an independent cross-check for
    the weight-based shortcut available on group codes.
    """
    m = C.size
    if m < 2:
        return C.length + 1
    if m > PACKED_ABOVE_WORDS:
        packed = C.packed_words
        best = 2 * C.length  # in differing bits, two per differing coordinate
        for i in range(m - 1):
            d = min(map(int.bit_count, map(packed[i].__xor__, packed[i + 1:])))
            if d < best:
                best = d
                if best == 2:
                    break
        return best >> 1
    best = C.length
    for x, y in itertools.combinations(C.words, 2):
        d = hamming_distance(x, y)
        if d < best:
            best = d
    return best


def min_weight_nonidentity(C: GroupCode) -> int:
    """Least weight of a non-identity codeword; equals min_distance on group codes."""
    return min((d for d in C.weight_distribution if d > 0), default=C.length + 1)


def code_distance(C: Code) -> int:
    """Minimum distance, n+1 for a singleton code: the code's cached
    ``Code.distance``, so each code pays its distance scan once."""
    return C.distance


def projection(C: Code, coords: Sequence[int]) -> Code:
    """Restrict every word to the given strictly increasing coordinate subset."""
    ys = tuple(int(i) for i in coords)
    if not ys:
        raise PreconditionError("projection onto an empty coordinate set")
    if any(not 0 <= i < C.length for i in ys):
        raise PreconditionError(f"projection coordinates {ys} outside 0..{C.length - 1}")
    if any(a >= b for a, b in zip(ys, ys[1:])):
        raise PreconditionError(f"projection coordinates must be strictly increasing, got {ys}")
    words = tuple(sorted({tuple(w[i] for i in ys) for w in C.words}))
    if isinstance(C, GroupCode):
        # homomorphic image of a subgroup: closure holds by construction
        return GroupCode._build(C.alphabet, len(ys), words)
    return Code._build(C.alphabet, len(ys), words)


def direct_sum(C: Code, D: Code) -> Code:
    """Concatenation code {(x, y) : x in C, y in D} over a common alphabet."""
    if not C.alphabet.matches(D.alphabet):
        raise IncompatibleError(
            f"direct sum over different alphabets ({C.alphabet.label} vs {D.alphabet.label})")
    words = tuple(sorted(x + y for x in C.words for y in D.words))
    if isinstance(C, GroupCode) and isinstance(D, GroupCode):
        return GroupCode._build(C.alphabet, C.length + D.length, words)
    return Code._build(C.alphabet, C.length + D.length, words)


def direct_sum_all(parts: Sequence[Code]) -> Code:
    if not parts:
        raise PreconditionError("direct sum of an empty family")
    acc = parts[0]
    for p in parts[1:]:
        acc = direct_sum(acc, p)
    return acc


@dataclass(frozen=True)
class ParameterReport:
    """[n, k, d]_q data plus cardinality and correction capacity.

    ``dimension_exact`` is set only when the cardinality is an exact power
    of q; classification logic elsewhere works on the integers size and q,
    never on the float.
    """

    length: int
    alphabet_size: int
    size: int
    dimension: float
    dimension_exact: int | None
    min_distance: int
    correction_capacity: int


def _exact_log(size: int, q: int) -> int | None:
    if q == 1:
        return 0 if size == 1 else None
    k, p = 0, 1
    while p < size:
        p *= q
        k += 1
    return k if p == size else None


def parameters(C: Code) -> ParameterReport:
    """Compute the parameter report; the Singleton inequality is checked."""
    q, n = C.alphabet.order, C.length
    size = C.size
    d = code_distance(C)
    exact = _exact_log(size, q)
    dim = float(exact) if exact is not None else math.log(size, q)
    e = (d - 1) // 2
    if size > q ** (n - d + 1):
        raise TheoremViolationError("Singleton bound violated; metric code is corrupt")
    return ParameterReport(length=n, alphabet_size=q, size=size, dimension=dim,
                           dimension_exact=exact, min_distance=d, correction_capacity=e)


def all_words(q: int, n: int) -> Iterable[Word]:
    """Every word of A^n in lexicographic order."""
    return itertools.product(range(q), repeat=n)


def full_space(G: FiniteGroup, n: int) -> GroupCode:
    return GroupCode._build(G, n, tuple(all_words(G.order, n)))
