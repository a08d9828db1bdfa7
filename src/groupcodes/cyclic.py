"""Cyclic codes: shift closure, interleaving, structure checks, gcd test, join.

The interleaving permutation is computed with 1-based coordinates,
sigma(s*m + r) = (r-1)*l + (s+1), and converted to 0-based storage at the
boundary; re-deriving the formula 0-based invites off-by-one bugs. It is
applied in the push convention, the one that reproduces the worked tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .codes import Code, GroupCode, Word
from .decompose import DEFAULT_PARTITION_BITS, Decomposition, decompose, factorize
from .errors import IncompatibleError, PreconditionError, TheoremViolationError
from .groups import encode_mixed_radix, product_group
from .isometry import Equivalence
from .isomorphy import DEFAULT_MAX_NODES


def cyclic_shift(w: Word) -> Word:
    """One full left rotation, the pull action of the n-cycle."""
    return w[1:] + w[:1]


def is_cyclic(C: Code) -> bool:
    """True iff the cyclic shift of every codeword is again a codeword."""
    return all(cyclic_shift(w) in C.word_set for w in C.words)


def shift_orbit_sizes(C: Code) -> tuple[int, ...]:
    """Sizes of the rotation-equivalence classes inside C, in word order."""
    seen: set[Word] = set()
    sizes: list[int] = []
    for w in C.words:
        if w in seen:
            continue
        cls = set()
        x = w
        for _ in range(C.length):
            if x in C.word_set:
                cls.add(x)
            x = cyclic_shift(x)
        seen |= cls
        sizes.append(len(cls))
    return tuple(sizes)


def interleave_permutation(m: int, copies: int) -> tuple[int, ...]:
    """1-based push permutation: position s*m+r moves to (r-1)*copies+(s+1)."""
    sigma = [0] * (copies * m)
    for t in range(1, copies * m + 1):
        s, r = divmod(t - 1, m)
        r += 1
        sigma[t - 1] = (r - 1) * copies + (s + 1)
    return tuple(sigma)


def interleave_pairs(D: GroupCode, copies: int) -> tuple[GroupCode, list[tuple[Word, Word]]]:
    """``interleave(D, copies)`` together with the pairs it is built from:
    each word of D^copies, concatenated, with its pushed image, in
    ``itertools.product`` order."""
    if copies < 1:
        raise PreconditionError(f"need at least one copy, got {copies}")
    if not isinstance(D, GroupCode):
        raise PreconditionError("interleaving is defined for group codes")
    if not is_cyclic(D):
        raise PreconditionError("interleaving requires a cyclic input code")
    m = D.length
    equiv = Equivalence(tuple(s - 1 for s in interleave_permutation(m, copies)))
    pairs = []
    for combo in itertools.product(D.words, repeat=copies):
        src = sum(combo, ())
        pairs.append((src, equiv.push(src)))
    out = GroupCode.from_words(D.alphabet, copies * m, [img for _, img in pairs])
    if out.size != D.size**copies:
        raise TheoremViolationError("interleaving collapsed words; permutation is not bijective")
    if not is_cyclic(out):
        raise TheoremViolationError("interleaved code is not cyclic; convention bug")
    return out, pairs


def interleave(D: GroupCode, copies: int) -> GroupCode:
    """Rearrange D^copies into a cyclic group code of length copies*len(D).

    The output is asserted cyclic; a failure there would mean the
    permutation convention broke and is raised as an internal error.
    """
    return interleave_pairs(D, copies)[0]


@dataclass(frozen=True)
class GcdCertificate:
    """Coprimality certificate: gcd of the prime exponents of |C| vs n."""

    xi: int
    verdict: str = "indecomposable"


@dataclass(frozen=True)
class ComponentStructure:
    """Isotypic shape of a decomposable cyclic group code."""

    component: Code
    multiplicity: int
    components_pairwise_isomorphic: bool
    components_cyclic: bool


@dataclass(frozen=True)
class CyclicReport:
    is_cyclic: bool
    shift_orbit_sizes: tuple[int, ...]
    gcd_certificate: GcdCertificate | None = None
    component_structure: ComponentStructure | None = None


def _require_cyclic_group_code(C: Code) -> GroupCode:
    if not isinstance(C, GroupCode):
        raise PreconditionError("operation requires a group code")
    if not is_cyclic(C):
        raise PreconditionError("operation requires a cyclic code")
    return C


def gcd_certificate(C: GroupCode) -> GcdCertificate | None:
    """Present iff gcd(xi, n) = 1 for xi the gcd of the prime exponents of |C|.

    One-directional: presence certifies indecomposability, absence says
    nothing (full spaces are decomposable with the certificate absent).
    """
    return _gcd_certificate(_require_cyclic_group_code(C))


def _gcd_certificate(C: GroupCode) -> GcdCertificate | None:
    exponents = list(factorize(C.size).values())
    xi = math.gcd(*exponents) if exponents else 0
    if math.gcd(xi, C.length) == 1:
        return GcdCertificate(xi=xi)
    return None


def cyclic_structure(C: GroupCode, dec: Decomposition | None = None, *,
                     max_bits: int = DEFAULT_PARTITION_BITS,
                     max_nodes: int = DEFAULT_MAX_NODES) -> ComponentStructure:
    """Check the forced component shape on the decomposition of a cyclic
    group code: ``dec``, which must be one of C, or else ``decompose(C)``.

    All indecomposable components of a decomposable cyclic group code must
    be pairwise isomorphic, that is of one isotype, and individually
    cyclic; a violation is an internal error, not a property of the input.
    """
    return _cyclic_structure(_require_cyclic_group_code(C), dec,
                             max_bits=max_bits, max_nodes=max_nodes)


def _cyclic_structure(C: GroupCode, dec: Decomposition | None, *,
                      max_bits: int, max_nodes: int) -> ComponentStructure:
    if dec is None:
        dec = decompose(C, max_bits=max_bits, max_nodes=max_nodes)
    else:
        dec.check(C)
    if len(dec.isotypes) != 1:
        raise TheoremViolationError(
            "components of a decomposable cyclic group code are not pairwise isomorphic")
    if not all(map(is_cyclic, dec.components)):
        raise TheoremViolationError(
            "a component projection of a cyclic group code is not cyclic")
    return ComponentStructure(component=dec.components[0], multiplicity=len(dec.components),
                              components_pairwise_isomorphic=True,
                              components_cyclic=True)


def join(codes: list[GroupCode]) -> GroupCode:
    """Componentwise bundle of equal-length cyclic group codes over the product group."""
    if not codes:
        raise PreconditionError("join of an empty family")
    n = codes[0].length
    for c in codes:
        if c.length != n:
            raise IncompatibleError(f"join needs equal lengths, got {c.length} vs {n}")
        _require_cyclic_group_code(c)
    G = product_group([c.alphabet for c in codes])
    orders = [c.alphabet.order for c in codes]
    words = []
    for combo in itertools.product(*[c.words for c in codes]):
        words.append(tuple(encode_mixed_radix([part[j] for part in combo], orders)
                           for j in range(n)))
    out = GroupCode.from_words(G, n, words)
    expected = 1
    for c in codes:
        expected *= c.size
    if out.size != expected:
        raise TheoremViolationError("join collapsed words; mixed-radix encoding bug")
    if not is_cyclic(out):
        raise TheoremViolationError("join of cyclic codes is not cyclic")
    return out


def cyclic_report(C: Code, dec: Decomposition | None = None, *,
                  max_bits: int = DEFAULT_PARTITION_BITS,
                  max_nodes: int = DEFAULT_MAX_NODES) -> CyclicReport:
    """Full cyclicity report; certificate and structure only for cyclic group
    codes, the structure read off ``dec`` if given, else skipped past ``max_bits``.
    Cyclicity is scanned once; the certificate and the structure trust it."""
    cyc = is_cyclic(C)
    cert = None
    structure = None
    if cyc and isinstance(C, GroupCode):
        cert = _gcd_certificate(C)
        if dec is not None or C.length <= max_bits:
            structure = _cyclic_structure(C, dec, max_bits=max_bits, max_nodes=max_nodes)
    return CyclicReport(is_cyclic=cyc, shift_orbit_sizes=shift_orbit_sizes(C),
                        gcd_certificate=cert, component_structure=structure)
