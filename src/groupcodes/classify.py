"""Structural predicates: trivial, degenerate, MDS, perfect, constant weight.

All verdicts are computed with exact integer arithmetic on |C| and q; the
floating dimension never feeds a classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .codes import (Code, GroupCode, Word, code_distance, hamming_distance, min_distance,
                    parameters)
from .errors import ResourceLimitError

DEFAULT_CENTER_CAP = 2**20
DEFAULT_ENUMERATION_GATE = 2**16


def ball_size(q: int, n: int, r: int) -> int:
    """Number of words within Hamming distance r of a fixed center, the
    sum of C(n, i)·(q-1)^i over i <= r; r past n clamps to q^n.

    Each term is the one before it times (n-i)·(q-1)/(i+1), an exact
    division, so the sum costs r multiplications and no binomial.
    """
    if r < 0:
        return 0
    if r >= n:
        return q**n
    total = term = 1
    for i in range(r):
        term = term * (n - i) * (q - 1) // (i + 1)
        total += term
    return total


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


def perfect_by_enumeration(C: Code, distance: int | None = None) -> bool:
    """Oracle for is_perfect: walk A^n and demand exactly one codeword per e-ball.

    Kept deliberately independent of the sphere-packing arithmetic. The
    radius e comes from ``distance``, when the caller already ran the
    pairwise scan ``min_distance``, or else from that scan. A space of
    more than ``DEFAULT_ENUMERATION_GATE`` words raises ResourceLimitError.
    """
    q, n = C.alphabet.order, C.length
    if q**n > DEFAULT_ENUMERATION_GATE:
        raise ResourceLimitError(f"covering enumeration gated at {DEFAULT_ENUMERATION_GATE} "
                                 f"words, space has {q**n}")
    e = ((min_distance(C) if distance is None else distance) - 1) // 2
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


def constant_weight_general(C: Code, *, center_cap: int = DEFAULT_CENTER_CAP) -> tuple[Word, int] | None:
    """Search for a center placing all codewords on one sphere.

    Returns the lexicographically least center of A^n with its radius, or
    None. A singleton {w} reports (w, 0). Past a singleton, more than
    ``center_cap`` candidates q^n raise ResourceLimitError.
    """
    if C.size == 1:
        return (C.words[0], 0)
    q, n = C.alphabet.order, C.length
    if q**n > center_cap:
        raise ResourceLimitError(f"{q**n} candidate centers exceed the cap {center_cap}")
    return _least_center(C)


def _least_center(C: Code) -> tuple[Word, int] | None:
    """Depth-first search over coordinates 0..n-1, symbols ascending, so
    the first complete center is the lexicographically least one.

    Every other word i keeps its gap d(w_i, x) - d(w_0, x) on the prefix x.
    Only the later coordinates where w_i and w_0 differ can move that gap,
    each by at most one, so a prefix is cut as soon as some gap exceeds
    their number in absolute value. Symbols absent from a column move no
    gap; all of them lead to the same subtree, so only the least is tried.
    """
    q, n = C.alphabet.order, C.length
    first, others = C.words[0], C.words[1:]
    # per coordinate k: the other words differing from w_0 there, their
    # symbols, and the number of coordinates after k where each still differs
    diff_idx = [tuple(i for i, w in enumerate(others) if w[k] != first[k]) for k in range(n)]
    diff_sym = [tuple(others[i][k] for i in idx) for k, idx in enumerate(diff_idx)]
    later = [0] * len(others)
    bounds: list[tuple[int, ...]] = [()] * n
    for k in reversed(range(n)):
        bounds[k] = tuple(later[i] for i in diff_idx[k])
        for i in diff_idx[k]:
            later[i] += 1
    candidates = []
    for k, syms in enumerate(diff_sym):
        column = {first[k], *syms}
        if len(column) == 1:
            candidates.append((0,))   # no symbol moves a gap here
        else:
            absent = [s for s in range(q) if s not in column][:1]
            candidates.append(tuple(sorted(column.union(absent))))
    gap = [0] * len(others)
    center = [0] * n
    trials = [iter(candidates[0])]   # per coordinate entered: the symbols left to try
    saved: list[list[int]] = []      # per coordinate set: the gaps it moved, as they were
    k = 0
    while True:
        idx, syms, bound, e = diff_idx[k], diff_sym[k], bounds[k], first[k]
        for s in trials[k]:
            if s == e:
                moved = [gap[i] + 1 for i in idx]
            else:
                moved = [gap[i] - (a == s) for i, a in zip(idx, syms)]
            if all(-b <= g <= b for g, b in zip(moved, bound)):
                break
        else:
            trials.pop()
            k -= 1
            if k < 0:
                return None
            for i, g in zip(diff_idx[k], saved.pop()):
                gap[i] = g
            continue
        saved.append([gap[i] for i in idx])
        for i, g in zip(idx, moved):
            gap[i] = g
        center[k] = s
        k += 1
        if k == n:
            return (tuple(center), sum(a != b for a, b in zip(first, center)))
        trials.append(iter(candidates[k]))


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
