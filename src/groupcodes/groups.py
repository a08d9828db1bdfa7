"""Finite groups as explicit multiplication tables.

Elements are dense integer indices 0..q-1 so that every search reduces to
array indexing; human-readable names live only in the ``label`` field.
Groups are validated eagerly at construction and immutable afterwards.

Every subgroup computation of the package goes through two routines here:
``CosetClosure``, the one closure under generators (Dimino's algorithm),
for elements of G and words of G^n alike; and
``subgroup_isomorphisms``, the one homomorphism backtracker, which
``automorphisms`` calls with H = K = G.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Callable, Hashable, Iterable, Sequence

from .errors import NotAGroupError, PreconditionError, ResourceLimitError

DEFAULT_AUTOMORPHISM_ORDER_CAP = 16


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its Cayley table over elements 0..order-1."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    label: str = ""

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """columns[b][a] = a·b: right multiplication by b as a lookup."""
        return tuple(zip(*self.table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        q = self.order
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(q) for b in range(a + 1, q))

    def matches(self, other: "FiniteGroup") -> bool:
        """Structural equality: same order and same table (labels ignored)."""
        return self.order == other.order and self.table == other.table

    def __repr__(self) -> str:  # keep reprs short; tables can be large
        name = self.label or "group"
        return f"FiniteGroup({name}, order={self.order})"


@dataclass(frozen=True)
class GroupAutomorphism:
    """A bijection of element indices commuting with the group product."""

    mapping: tuple[int, ...]


def _validate_table(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    q = len(table)
    if q == 0:
        raise NotAGroupError("non-empty", (), "empty table")
    rows = []
    for i, row in enumerate(table):
        if len(row) != q:
            raise NotAGroupError("square-table", (i,), f"row {i} has length {len(row)}, expected {q}")
        r = tuple(int(x) for x in row)
        for j, x in enumerate(r):
            if not 0 <= x < q:
                raise NotAGroupError("entry-range", (i, j), f"entry {x} outside 0..{q - 1}")
        rows.append(r)
    tab = tuple(rows)
    full = frozenset(range(q))
    for i in range(q):
        if frozenset(tab[i]) != full:
            raise NotAGroupError("latin-square", (i,), f"row {i} is not a permutation of 0..{q - 1}")
    for j in range(q):
        if frozenset(tab[i][j] for i in range(q)) != full:
            raise NotAGroupError("latin-square", (j,), f"column {j} is not a permutation of 0..{q - 1}")
    return tab


def group_from_table(table: Sequence[Sequence[int]], label: str = "") -> FiniteGroup:
    """Validate a raw Cayley table, infer identity and inverses, and wrap it.

    Raises NotAGroupError naming the failed axiom and a witness triple.
    """
    tab = _validate_table(table)
    q = len(tab)
    identity = None
    for e in range(q):
        if all(tab[e][a] == a and tab[a][e] == a for a in range(q)):
            identity = e
            break
    if identity is None:
        raise NotAGroupError("identity", (), "no two-sided identity element")
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                    raise NotAGroupError("associativity", (a, b, c))
    inverse = [0] * q
    for a in range(q):
        found = [b for b in range(q) if tab[a][b] == identity]
        if not found or tab[found[0]][a] != identity:
            raise NotAGroupError("inverse", (a,))
        inverse[a] = found[0]
    return FiniteGroup(order=q, table=tab, identity=identity,
                       inverse=tuple(inverse), label=label or f"order-{q} group")


def cyclic_group(m: int) -> FiniteGroup:
    """The integers modulo m under addition."""
    if m < 1:
        raise PreconditionError(f"cyclic group order must be positive, got {m}")
    table = [[(a + b) % m for b in range(m)] for a in range(m)]
    return group_from_table(table, label=f"Z/{m}")


def product_group(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix element encoding, first factor most significant."""
    if not factors:
        raise PreconditionError("product of an empty family of groups")
    orders = [g.order for g in factors]
    q = 1
    for o in orders:
        q *= o
    table = [[0] * q for _ in range(q)]
    for a in range(q):
        da = decode_mixed_radix(a, orders)
        for b in range(q):
            db = decode_mixed_radix(b, orders)
            table[a][b] = encode_mixed_radix(
                [g.mul(x, y) for g, x, y in zip(factors, da, db)], orders)
    label = " x ".join(g.label or "?" for g in factors)
    return group_from_table(table, label=label)


def encode_mixed_radix(digits: Sequence[int], orders: Sequence[int]) -> int:
    value = 0
    for d, o in zip(digits, orders):
        value = value * o + d
    return value


def decode_mixed_radix(value: int, orders: Sequence[int]) -> tuple[int, ...]:
    digits = []
    for o in reversed(orders):
        value, d = divmod(value, o)
        digits.append(d)
    return tuple(reversed(digits))


def klein_four_group() -> FiniteGroup:
    g = product_group([cyclic_group(2), cyclic_group(2)])
    return FiniteGroup(order=g.order, table=g.table, identity=g.identity,
                       inverse=g.inverse, label="V4")


class CosetClosure:
    """The subgroup generated so far, grown coset by coset (Dimino's algorithm;
    G. Butler, *Fundamental Algorithms for Permutation Groups*, 1991).

    The one closure routine of the package. Elements are hashable values
    with an ``identity`` and a right multiplication: ``right_mul(t)`` is the
    map x -> x·t, such as a table column for elements of G
    (``element_closure``), one column per coordinate for words of G^n
    (``word_closure``), or ``itemgetter(*t)`` for permutations of points,
    as in the closure greedy that the tests keep as the oracle of
    ``autgroup._chain_picks``. A generator outside the current subgroup H
    extends it by the right cosets H·t, where t = r·s runs over coset
    representatives r times generators s, so every new element is
    multiplied out exactly once. Growth stops as soon as the closure holds
    more than ``limit`` elements.
    """

    def __init__(self, identity: Hashable, right_mul: Callable, limit: int | None = None) -> None:
        self.identity = identity
        self.right_mul = right_mul
        self.limit = limit
        self.gens: list = []
        self._gen_muls: list[Callable] = []
        self.elements = [identity]
        self.members = {identity}

    def __len__(self) -> int:
        return len(self.elements)

    def overflowed(self) -> bool:
        return self.limit is not None and len(self.elements) > self.limit

    def add(self, g: Hashable) -> None:
        """Append g to the generators and close; g must lie outside."""
        members, elements, limit = self.members, self.elements, self.limit
        right_mul = self.right_mul
        self.gens.append(g)
        self._gen_muls.append(right_mul(g))
        subgroup = elements[:]
        reps = [self.identity]
        for r in reps:
            for mul in self._gen_muls:
                t = mul(r)
                if t in members:
                    continue
                reps.append(t)
                coset = list(map(right_mul(t), subgroup)) if len(subgroup) > 1 else [t]
                elements.extend(coset)
                members.update(coset)
                if limit is not None and len(elements) > limit:
                    return

    def greedy(self, candidates: Iterable, size: int | None = None) -> list[int]:
        """Take each candidate not already generated, in order, until the
        closure holds ``size`` elements or more than its limit; return the
        positions of the candidates taken."""
        members = self.members
        picks: list[int] = []
        for k, x in enumerate(candidates):
            if len(self.elements) == size or self.overflowed():
                break
            if x not in members:
                self.add(x)
                picks.append(k)
        return picks


def element_closure(G: FiniteGroup, limit: int | None = None) -> CosetClosure:
    """A CosetClosure over the elements of G."""
    columns = G.columns
    return CosetClosure(G.identity, lambda t: columns[t].__getitem__, limit=limit)


def word_closure(G: FiniteGroup, n: int, limit: int | None = None) -> CosetClosure:
    """A CosetClosure over the words of G^n, multiplied coordinatewise."""
    columns = G.columns

    def right_mul(t: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
        cols = [columns[b] for b in t]
        return lambda x: tuple(map(getitem, cols, x))

    return CosetClosure((G.identity,) * n, right_mul, limit=limit)


def subgroup_isomorphisms(G: FiniteGroup, H: Sequence[int], K: Sequence[int]) -> list[dict[int, int]]:
    """All isomorphisms from the subgroup with element set H onto the one
    with element set K, each a dict keyed in increasing order, sorted by the
    images of H in the order given.

    The one homomorphism backtracker of the package. It assigns images of
    equal element order to greedy generators g_1, g_2, ... of H. A partial
    assignment g_i -> h_i is checked by closing its graph, the subgroup of
    G×G generated by the pairs (g_i, h_i), as words of length 2: it extends
    to a homomorphism on <g_1, ..., g_k> iff no two elements of the graph
    share a first coordinate.
    """
    if len(H) != len(K):
        return []
    generated = element_closure(G)
    generated.greedy(H, len(H))
    gens = generated.gens
    orders = {h: G.element_order(h) for h in K}
    candidates = [[h for h in K if orders[h] == G.element_order(g)] for g in gens]
    out: list[dict[int, int]] = []

    def rec(pairs: list[tuple[int, int]]) -> None:
        graph = word_closure(G, 2, limit=len(H))
        graph.greedy(pairs)
        if graph.overflowed() or len({x for x, _ in graph.elements}) < len(graph):
            return
        if len(pairs) < len(gens):
            for h in candidates[len(pairs)]:
                rec(pairs + [(gens[len(pairs)], h)])
        elif len({y for _, y in graph.elements}) == len(K):
            out.append(dict(sorted(graph.elements)))

    rec([])
    out.sort(key=lambda m: tuple(m[a] for a in H))
    return out


def automorphisms(G: FiniteGroup, max_order: int = DEFAULT_AUTOMORPHISM_ORDER_CAP) -> list[GroupAutomorphism]:
    """All automorphisms of G, sorted: the isomorphisms from G onto itself."""
    if G.order > max_order:
        raise ResourceLimitError(
            f"automorphism search capped at order {max_order}, group has order {G.order}")
    elements = tuple(G.elements())
    return [GroupAutomorphism(tuple(m.values()))
            for m in subgroup_isomorphisms(G, elements, elements)]
