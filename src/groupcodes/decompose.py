"""Decomposability testing and canonical decomposition into indecomposables.

A code splits along a coordinate bipartition (J, K) exactly when
|C| = |pi_J(C)| * |pi_K(C)|. The search enumerates candidate subsets J
containing coordinate 0 in (size, lex) order, so the returned witness and
the decomposition are canonical and reproducible. ``decompose`` first
peels the coordinates that split off alone (the constant ones, and in a
group code the free ones, ``free_coordinates``), once: a coordinate that
splits off alone from a part of a sum splits off alone from the sum. Then
it takes the least witness J of the rest as a final block, since
pi_J(C) is indecomposable (were it a sum, its part holding the least
coordinate would be a smaller witness), and goes on with the complement
until a certificate or the search finds the rest indecomposable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .classify import (constant_weight_group, is_degenerate, is_trivial, singleton_tight,
                       sphere_packing_tight)
from .codes import PACKED_ABOVE_WORDS, Code, GroupCode, direct_sum_all, parameters, projection
from .errors import PreconditionError, ResourceLimitError, TheoremViolationError
from .isometry import Configuration, Equivalence, Isometry, apply_to_code, identity_isometry
from .isomorphy import DEFAULT_MAX_NODES, code_equivalent, gc_isomorphic

DEFAULT_PARTITION_BITS = 24

CERT_MDS = "mds-nontrivial"
CERT_PERFECT = "perfect-nontrivial"
CERT_CONSTANT_WEIGHT = "constant-weight-nondegenerate"
CERT_PRIME = "prime-cardinality-nondegenerate"


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (fine for desk-scale sizes)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def applicable_certificates(C: Code) -> tuple[str, ...]:
    """Every indecomposability certificate that applies, in priority order.

    MDS and perfect are both read off one parameter report, so a
    nontrivial code pays one distance scan.
    """
    tags: list[str] = []
    if not is_trivial(C):
        p = parameters(C)
        q, n = p.alphabet_size, p.length
        if singleton_tight(q, n, p.size, p.min_distance):
            tags.append(CERT_MDS)
        if sphere_packing_tight(q, n, p.size, p.correction_capacity):
            tags.append(CERT_PERFECT)
    degenerate, _ = is_degenerate(C)
    if (isinstance(C, GroupCode) and not degenerate
            and constant_weight_group(C) is not None):
        tags.append(CERT_CONSTANT_WEIGHT)
    if not degenerate and factorize(C.size) == {C.size: 1}:
        tags.append(CERT_PRIME)
    return tuple(tags)


def indecomposability_certificate(C: Code) -> str | None:
    """First applicable certificate tag, or None.

    A present tag certifies indecomposability without any partition
    search (sound by the classification theorems; cross-checked against
    exhaustive search in the test corpus).
    """
    tags = applicable_certificates(C)
    return tags[0] if tags else None


class _ProjCounter:
    """Projection cardinalities |pi_J(C)|, counted afresh on every call:
    the split search asks each subset once, so nothing is kept.

    Above ``PACKED_ABOVE_WORDS`` words, the distinct ``Code.packed_words``
    are counted under the mask of J's bits; otherwise the projected words
    are counted as a set of tuples.
    """

    def __init__(self, C: Code) -> None:
        self.C = C
        self.packed = C.packed_words if C.size > PACKED_ABOVE_WORDS else None

    def card(self, coords: tuple[int, ...]) -> int:
        if self.packed is not None:
            q = self.C.alphabet.order
            column = (1 << q) - 1
            mask = sum(column << (q * j) for j in coords)
            return len(set(map(mask.__and__, self.packed)))
        # one coordinate gives bare symbols, as distinct as 1-tuples
        return len(set(map(itemgetter(*coords), self.C.words)))


def _canonical_split(C: Code, counter: _ProjCounter) -> tuple[int, ...] | None:
    """Smallest, lexicographically least witnessing J containing coordinate 0."""
    n, size = C.length, C.size
    for s in range(1, n):
        for rest in itertools.combinations(range(1, n), s - 1):
            J = (0,) + rest
            in_j = set(rest)
            K = tuple(i for i in range(1, n) if i not in in_j)
            if counter.card(J) * counter.card(K) == size:
                return J
    return None


def is_decomposable(C: Code, *, max_bits: int = DEFAULT_PARTITION_BITS
                    ) -> tuple[int, ...] | None:
    """Canonical witnessing subset if C splits, else None, by the
    exhaustive 2^(n-1) subset search: it never consults a certificate to
    skip it. Length-1 codes never split; a code longer than ``max_bits``
    raises ResourceLimitError, which carries C's certificate."""
    if C.length <= 1:
        return None
    if C.length > max_bits:
        raise ResourceLimitError(
            f"partition search capped at {max_bits} coordinates, code has {C.length}",
            certificate=indecomposability_certificate(C))
    return _canonical_split(C, _ProjCounter(C))


def free_coordinates(C: GroupCode) -> tuple[int, ...]:
    """The coordinates i along which C splits off alone, C = pi_i(C) ⊕
    pi_(N∖i)(C): those where the codewords that are the identity off i,
    the kernel of pi_(N∖i), number |pi_i(C)|. Constant coordinates are
    the case |pi_i(C)| = 1. One pass over the words."""
    e, n = C.alphabet.identity, C.length
    kernel = [1] * n  # the identity word
    for w in C.words:
        if w.count(e) == n - 1:
            kernel[next(i for i, s in enumerate(w) if s != e)] += 1
    return tuple(i for i, h in enumerate(C.coordinate_projections) if len(h) == kernel[i])


@dataclass(frozen=True)
class Partition:
    """Disjoint coordinate blocks covering 0..n-1, ordered by first element."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.blocks:
            members = set(b)
            if not b or list(b) != sorted(members):
                raise PreconditionError(f"bad block {b}")
            if seen & members:
                raise PreconditionError(f"block {b} overlaps another block")
            seen |= members
        firsts = [b[0] for b in self.blocks]
        if firsts != sorted(firsts):
            raise PreconditionError("blocks must be ordered by first element")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


@dataclass(frozen=True)
class Decomposition:
    """Result of the split: components, isotypes, and witnesses.

    The witness is the block-concatenation coordinate permutation (pull
    form, identity configuration); applied to the code it yields exactly
    the direct sum of the components in block order. ``isotype_witnesses[k]``
    maps the representative of component k's isotype onto component k (a
    group-code isomorphism for group codes; the identity on a representative).
    """

    partition: Partition
    components: tuple[Code, ...]
    isotype_members: tuple[tuple[int, ...], ...]
    witness: Isometry
    certificates: tuple[str | None, ...]
    isotype_witnesses: tuple[Isometry, ...]

    @property
    def isotypes(self) -> tuple[tuple[int, int], ...]:
        """(representative index, multiplicity) of each isotype."""
        return tuple((members[0], len(members)) for members in self.isotype_members)

    @property
    def indecomposable(self) -> bool:
        return len(self.components) == 1

    def check(self, C: Code) -> None:
        """Raise PreconditionError unless this is a decomposition of C: the
        components are C's projections onto the blocks, and C is their sum."""
        if (self.partition.n != C.length
                or C.size != math.prod(comp.size for comp in self.components)
                or any(projection(C, block).words != comp.words
                       for block, comp in zip(self.partition.blocks, self.components))):
            raise PreconditionError("the decomposition is not one of this code")


def decompose(C: Code, *, max_bits: int = DEFAULT_PARTITION_BITS,
              max_nodes: int = DEFAULT_MAX_NODES) -> Decomposition:
    """Canonical decomposition into indecomposable components, block by block.

    The coordinates that split off alone are peeled once, here: a
    coordinate that splits off alone from pi_J(C), where C = pi_J(C) ⊕
    pi_K(C), splits off alone from C. The least witness J of the rest is a
    final block: were pi_J a sum, its part holding the least coordinate
    would be a smaller witness. Each block's certificate is evaluated
    once, when the block is found.
    """
    if C.length > max_bits:
        raise ResourceLimitError(
            f"partition search capped at {max_bits} coordinates, code has {C.length}",
            certificate=indecomposability_certificate(C))
    # each final block with its component and certificate; codes with
    # equal words share one Code, and so its memos
    found: list[tuple[tuple[int, ...], Code, str | None]] = []
    shared: dict[tuple, Code] = {C.words: C}

    def certified(code: Code) -> tuple[Code, str | None]:
        code = shared.setdefault(code.words, code)
        return code, indecomposability_certificate(code)

    indices, rest = tuple(range(C.length)), C
    alone = free_coordinates(C) if isinstance(C, GroupCode) else is_degenerate(C)[1]
    if alone:
        found += [((p,), *certified(projection(C, (p,)))) for p in alone]
        indices = tuple(i for i in indices if i not in alone)
        rest = projection(C, indices) if indices else C
    while indices:
        rest, tag = certified(rest)
        J = None if tag is not None else is_decomposable(rest, max_bits=max_bits)
        if J is None:
            found.append((indices, rest, tag))
            break
        in_j = set(J)
        K = tuple(p for p in range(rest.length) if p not in in_j)
        found.append((tuple(indices[p] for p in J), *certified(projection(rest, J))))
        indices, rest = tuple(indices[p] for p in K), projection(rest, K)
    found.sort(key=lambda f: f[0][0])
    blocks = tuple(b for b, _, _ in found)
    components = tuple(comp for _, comp, _ in found)

    group_mode = isinstance(C, GroupCode)
    members: list[list[int]] = []
    witnesses: list[Isometry] = []
    for ci, comp in enumerate(components):
        for m in members:
            iso = _isotype_witness(components[m[0]], comp, group_mode, max_nodes)
            if iso is not None:
                m.append(ci)
                witnesses.append(iso)
                break
        else:
            members.append([ci])
            witnesses.append(identity_isometry(C.alphabet.order, comp.length))

    perm = tuple(i for b in blocks for i in b)
    q = C.alphabet.order
    ident = tuple(range(q))
    witness = Isometry(Configuration((ident,) * C.length), Equivalence(perm))
    rebuilt = apply_to_code(witness, C)
    target = direct_sum_all(list(components))
    if rebuilt.words != target.words:
        raise TheoremViolationError("decomposition witness does not reassemble the direct sum")
    return Decomposition(partition=Partition(blocks), components=components,
                         isotype_members=tuple(tuple(m) for m in members),
                         witness=witness, certificates=tuple(tag for _, _, tag in found),
                         isotype_witnesses=tuple(witnesses))


def _isotype_witness(a: Code, b: Code, group_mode: bool, max_nodes: int) -> Isometry | None:
    """An isometry mapping a onto b (a group-code isomorphism in group mode), or None."""
    if a.length != b.length or a.size != b.size:
        return None
    if group_mode:
        assert isinstance(a, GroupCode) and isinstance(b, GroupCode)
        found = gc_isomorphic(a, b, max_nodes=max_nodes)
        return None if found is None else found.iso
    return code_equivalent(a, b, max_nodes=max_nodes)
