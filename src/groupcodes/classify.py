"""Structural predicates: trivial, degenerate, MDS, perfect, constant weight.

All verdicts are computed with exact integer arithmetic on |C| and q; the
floating dimension never feeds a classification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .codes import (Code, GroupCode, Word, code_distance, hamming_distance, min_distance,
                    parameters)
from .errors import ResourceLimitError

DEFAULT_CENTER_CAP = 2**20
DEFAULT_ENUMERATION_GATE = 2**16


def ball_size(q: int, n: int, r: int) -> int:
    """Number of words within Hamming distance r of a fixed center.

    r past n clamps to the full space size q^n.
    """
    if r < 0:
        return 0
    if r >= n:
        return q**n
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def is_trivial(C: Code) -> bool:
    """True iff C is the whole ambient space (isomorphic copies coincide)."""
    return C.size == C.alphabet.order ** C.length


def is_degenerate(C: Code) -> tuple[bool, tuple[int, ...]]:
    """Detect constant coordinates; returns the full list of them."""
    constant = tuple(i for i, h in enumerate(C.coordinate_projections) if len(h) == 1)
    return (bool(constant), constant)


def singleton_tight(q: int, n: int, size: int, d: int) -> bool:
    """Exact integer Singleton equality |C| = q^(n-d+1), false below two
    words (see ``is_mds``)."""
    return size >= 2 and size == q ** (n - d + 1)


def sphere_packing_tight(q: int, n: int, size: int, e: int) -> bool:
    """Sphere-packing equality |C| * |B_e| = q^n at correction capacity e."""
    return size * ball_size(q, n, e) == q**n


def is_mds(C: Code) -> bool:
    """Exact integer Singleton-equality check |C| = q^(n-d+1).

    Singletons are declared non-MDS: the sentinel distance n+1 would make
    the check vacuously true, which would feed meaningless
    indecomposability certificates.
    """
    return singleton_tight(C.alphabet.order, C.length, C.size, code_distance(C))


def is_perfect(C: Code) -> bool:
    """Sphere-packing equality |C| * |B_e| = q^n at the correction capacity.

    Disjointness of the radius-e balls is automatic from e = floor((d-1)/2),
    so the arithmetic equality is equivalent to tiling the space.
    """
    p = parameters(C)
    return sphere_packing_tight(p.alphabet_size, p.length, p.size, p.correction_capacity)


def perfect_by_enumeration(C: Code, gate: int = DEFAULT_ENUMERATION_GATE) -> bool:
    """Oracle for is_perfect: walk A^n and demand exactly one codeword per e-ball.

    Kept deliberately independent of the sphere-packing arithmetic.
    """
    q, n = C.alphabet.order, C.length
    if q**n > gate:
        raise ResourceLimitError(f"covering enumeration gated at {gate} words, space has {q**n}")
    e = (min_distance(C) - 1) // 2
    for x in itertools.product(range(q), repeat=n):
        holders = 0
        for c in C.words:
            if hamming_distance(x, c) <= e:
                holders += 1
                if holders > 1:
                    return False
        if holders != 1:
            return False
    return True


def constant_weight_group(C: GroupCode) -> int | None:
    """Radius r > 0 if every non-identity codeword has weight r, else None.

    The singleton group code has no witnessing word, so it is not constant
    weight under the strict r > 0 quantifier.
    """
    radii = [r for r in C.weight_distribution if r > 0]
    return radii[0] if len(radii) == 1 else None


def constant_weight_general(C: Code, *, center_cap: int = DEFAULT_CENTER_CAP,
                            centers: list[Word] | None = None) -> tuple[Word, int] | None:
    """Search for a center placing all codewords on one sphere.

    Scans candidate centers in lexicographic order (all of A^n unless a
    restricted list is supplied). A singleton {w} reports (w, 0).
    """
    if C.size == 1:
        return (C.words[0], 0)
    q, n = C.alphabet.order, C.length
    if centers is None:
        if q**n > center_cap:
            raise ResourceLimitError(
                f"{q**n} candidate centers exceed the cap {center_cap}; pass centers= to restrict")
        centers_iter = itertools.product(range(q), repeat=n)
    else:
        centers_iter = iter(centers)
    for x0 in centers_iter:
        first = hamming_distance(C.words[0], x0)
        if all(hamming_distance(w, x0) == first for w in C.words[1:]):
            return (tuple(x0), first)
    return None


@dataclass(frozen=True)
class Classification:
    """One-stop structural summary of a code.

    ``constant_weight_checked`` distinguishes "searched and absent" from
    "search skipped because the center space exceeded the cap".
    """

    is_trivial: bool
    is_degenerate: bool
    degenerate_coordinates: tuple[int, ...]
    is_mds: bool
    is_perfect: bool
    constant_weight: tuple[Word, int] | None
    constant_weight_checked: bool
    correction_capacity: int


def classify(C: Code, *, center_cap: int = DEFAULT_CENTER_CAP) -> Classification:
    """Evaluate every predicate; group codes get the identity-centered weight test.

    MDS and perfect are read off one parameter report, as ``is_mds`` and
    ``is_perfect`` would find them, so the code pays one distance evaluation.
    """
    p = parameters(C)
    q, n = p.alphabet_size, p.length
    degenerate, coords = is_degenerate(C)
    cw: tuple[Word, int] | None
    checked = True
    if isinstance(C, GroupCode):
        r = constant_weight_group(C)
        cw = (C.identity_word(), r) if r is not None else None
    elif C.size > 1 and q**n > center_cap:
        cw, checked = None, False
    else:
        cw = constant_weight_general(C, center_cap=center_cap)
    return Classification(
        is_trivial=is_trivial(C),
        is_degenerate=degenerate,
        degenerate_coordinates=coords,
        is_mds=singleton_tight(q, n, p.size, p.min_distance),
        is_perfect=sphere_packing_tight(q, n, p.size, p.correction_capacity),
        constant_weight=cw,
        constant_weight_checked=checked,
        correction_capacity=p.correction_capacity,
    )
