"""Aut(C) from C's decomposition, for ``isomorphy.aut_group``, which loads this on its first call.

Automorphism groups follow the product formula Aut(⊕ D_j^alpha_j) =
prod Aut(D_j) ≀ Sym(alpha_j): ``aut_group`` decomposes the code and
searches one representative per isotype (or the whole code, when it is
indecomposable) by a coset search (Leon, J. Symbolic Comput. 12, 1991;
``_IsoSearch.run(cosets=True)``): it walks the identity path of the
search tree and runs one find-one search under each other child of its
nodes, since the leaves below a child are a coset of the stabilizer below
it and one leaf represents them. A leaf's restrictions are the objects of
the candidate lists (``_Restriction``), which carry their list positions,
so composites, conjugates and orders go by them, never by the id of a dict.
The leaves follow by composition, in the order of the find-all search
(``_IsoSearch.dfs_leaves``), and each representative leaf is conjugated
onto every block of its isotype by the decomposition's witnesses
(``_conjugated``); a block whose witness is the identity, as decompose
gives every representative, is not conjugated: its leaves are leaves of
C as they are. A group within the explicit cap is built element by
element as (σ, maps) pairs (``_explicit_elements``): the conjugated leaves
with their bijective extensions, combined over every block permutation
and sorted once, so no leaf list of the whole code is built. Larger groups
read the whole code's leaves, combined the same way and sorted into the
find-all order (``_assemble``). Either way the greedy generators come from
a walk down the stabilizer chain of that order (``_chain_picks``), with no
closure of the group. The find-all search, the element by element route
and the closure greedies stay in the tests as oracles.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .codes import GroupCode
from .decompose import Decomposition, Partition
from .errors import PreconditionError, ResourceLimitError, TheoremViolationError
from .isometry import Isometry, identity_isometry
from .isomorphy import ElementPair, GroupCodeIso, Leaf, _IsoSearch


def _chain_picks(items: Sequence, identity: object, keys: Sequence[Callable],
                 acts: Sequence[Callable], order: int) -> list[int]:
    """The greedy generators of a group listed in ``items``: the position
    of each element not generated by the ones taken before it, in list
    order, found by a walk down the stabilizer chain of that order, with
    no closure of the group.

    ``items`` is sorted by the key of ``keys``: ``keys[p](x)`` is x's entry
    at position p, and the identity is the first element and the least
    entry at every position among the elements that agree with it before
    that position. So G_p, the elements that agree with the identity on
    positions < p, is a subgroup and a prefix of ``items``, and the greedy
    reads G_(p+1) before G_p, having generated all of G_(p+1) when it gets
    there. The entry at p of x∘g is ``acts[p](g, entry of x)``, so the
    elements of G_p with one entry at p form one coset of G_(p+1), and x in
    G_p is generated exactly when its entry lies in the orbit of the
    identity's under the elements taken. The walk goes from the last
    position to the first; at each it takes the first element of each run
    of equal entries outside the orbit, until the orbit has |G_p| /
    |G_(p+1)| points."""
    if not items or items[0] != identity:
        raise TheoremViolationError("the first listed automorphism is not the identity")
    if len(items) != order:
        raise TheoremViolationError(
            f"{len(items)} automorphisms listed for a group of order {order}")
    base = [key(identity) for key in keys]
    # ends[p] = |G_p|: G_(p+1) is the run of G_p with the identity's entry at p
    ends = [order]
    for key, b in zip(keys, base):
        ends.append(bisect_right(items, b, 0, ends[-1], key=key))
    if ends[-1] != 1:
        raise TheoremViolationError("two listed automorphisms have the same entries")
    picks: list[int] = []
    taken: list = []
    for p in reversed(range(len(keys))):
        top, end = ends[p + 1], ends[p]
        index, rest = divmod(end, top)
        if rest:
            raise TheoremViolationError(
                f"the stabilizer at position {p} has {top} elements, "
                f"which do not divide the {end} elements above it")
        key, act = keys[p], acts[p]
        orbit, seen = [base[p]], {base[p]}
        start = top
        while len(orbit) < index:
            if start == end:
                raise TheoremViolationError(
                    f"the orbit at position {p} has {len(orbit)} of {index} points "
                    f"after its elements; the automorphism listing is buggy")
            x = items[start]
            v = key(x)
            if v not in seen:
                picks.append(start)
                taken.append(x)
                # the orbit again, under every element taken
                orbit, seen = [base[p]], {base[p]}
                for u in orbit:
                    for w in map(act, taken, [u] * len(taken)):
                        if w not in seen:
                            seen.add(w)
                            orbit.append(w)
            start = bisect_right(items, v, start, end, key=key)
    return picks


def _pair_keys(n: int) -> tuple[list[Callable], list[Callable]]:
    """The keys and actions of ``_chain_picks`` for automorphisms as (σ,
    maps) pairs, sorted as tuples: positions σ(0)..σ(n-1), then
    f_0..f_(n-1). Entry σ(p) of x∘g is σ_g(σ_x(p)); an x with σ = id has
    f_j^x∘f_j^g as entry f_j of x∘g."""
    keys = ([lambda x, p=p: x[0][p] for p in range(n)]
            + [lambda x, j=j: x[1][j] for j in range(n)])
    acts = ([lambda g, t: g[0][t]] * n
            + [lambda g, f, j=j: tuple(map(f.__getitem__, g[1][j])) for j in range(n)])
    return keys, acts


def _one_block(C: GroupCode) -> Decomposition:
    """C as its only block, for a C that is indecomposable or whose own
    decomposition hit a cap: a decomposition, though maybe not into
    indecomposables, whose one component is C itself."""
    ident = identity_isometry(C.alphabet.order, C.length)
    return Decomposition(partition=Partition((tuple(range(C.length)),)), components=(C,),
                         isotypes=((0, 1),), isotype_members=((0,),), witness=ident,
                         certificates=(None,), isotype_witnesses=(ident,))


def _aut_leaves(C: GroupCode, dec: Decomposition, *, max_nodes: int
                ) -> tuple[_IsoSearch, list[tuple[_IsoSearch, Leaf, list[list[Leaf]]]],
                           tuple[tuple[int, int, int], ...], int]:
    """The coset search of each isotype representative, as its search, its
    identity leaf and its coset representatives per depth (for
    ``_IsoSearch.dfs_leaves``), with the search over C (which owns C's
    candidate lists), the structure rows (isotype, |Aut| of its
    representative, alpha) and the number of C's search leaves.

    By the product formula Aut(⊕ D_j^alpha_j) = prod Aut(D_j) ≀ Sym(alpha_j),
    only one representative per isotype is searched, by the coset search
    (``_IsoSearch.run(cosets=True)``), and C has prod alpha! |L_K|^alpha
    leaves. That count is checked against ``max_nodes`` before any leaf
    is composed; a leaf is a node of the find-all search, so no input it
    answered is refused. A one-block decomposition searches C itself.
    """
    maps: dict = {}  # candidate lists, shared by every search over this alphabet
    search = _IsoSearch(C, C, group_mode=True, max_nodes=max_nodes, maps=maps)
    one_block = len(dec.partition.blocks) == 1
    searched: list[tuple[_IsoSearch, Leaf, list[list[Leaf]]]] = []
    representatives: list[list[Leaf]] = []  # the coset representatives found
    sizes, rows = [], []
    for t, ((rep, _), members) in enumerate(zip(dec.isotypes, dec.isotype_members)):
        K = dec.components[rep]
        if not isinstance(K, GroupCode):
            raise PreconditionError("structure prediction needs group-code components")
        ksearch = search if one_block else _IsoSearch(K, K, group_mode=True,
                                                      max_nodes=max_nodes, maps=maps)
        try:
            identity, found = ksearch.run(cosets=True)
        except ResourceLimitError as err:
            lifted = _lifted(search, dec, representatives + [err.partial_generators])
            what = "the whole code" if one_block else f"component {members[0]} (isotype {t})"
            raise _capped(search, f"automorphism search of {what} exceeded {max_nodes} nodes",
                          lifted) from None
        searched.append((ksearch, identity, found))
        representatives.append([g for reps in found for g in reps])
        sizes.append(math.prod(1 + len(reps) for reps in found))
        rows.append((t, sizes[-1] * ksearch.extension_count(), len(members)))
    count = math.prod(math.factorial(len(members)) * size**len(members)
                      for members, size in zip(dec.isotype_members, sizes))
    if count > max_nodes:
        raise _capped(search, f"assembling {count} automorphism search leaves exceeds "
                      f"the cap of {max_nodes}", _lifted(search, dec, representatives))
    return search, searched, tuple(rows), count


def _block_sources(dec: Decomposition) -> Iterator[list[int]]:
    """Every permutation of the blocks within each isotype, as the block
    ``source[k]`` that is carried onto block k."""
    for rhos in itertools.product(*[itertools.permutations(m) for m in dec.isotype_members]):
        source = [0] * len(dec.partition.blocks)
        for members, rho in zip(dec.isotype_members, rhos):
            for k_out, k_in in zip(members, rho):
                source[k_out] = k_in
        yield source


def _conjugated(search: _IsoSearch, dec: Decomposition,
                rep_leaves: Sequence[Iterable[Leaf]]) -> dict[tuple[int, int], list[tuple]]:
    """Each representative leaf a carried from block k_in onto block k_out
    of its isotype, w_out∘a∘w_in^-1 with w the isotype witnesses: per
    (k_in, k_out), one tuple per leaf of its σ and its restrictions (C's
    canonical restrictions, ``_IsoSearch._canonical``), each over the
    coordinates j of block k_out in order.

    A block whose witness is the identity and whose component has the
    representative's own words is not conjugated: a leaf carried between
    two such blocks has σ = block_in[τ] and keeps its restrictions, which
    are C's, since the component searches and the search over C share
    their candidate lists."""
    q = search.q
    blocks = dec.partition.blocks
    ident = tuple(range(q))
    # block k's witness w_k as (σ, maps), and its inverse
    perms = [w.equiv.perm for w in dec.isotype_witnesses]
    fmaps = [w.config.maps for w in dec.isotype_witnesses]
    inv_perms = [sorted(range(len(perm)), key=perm.__getitem__) for perm in perms]
    inv_maps = [[sorted(range(q), key=f.__getitem__) for f in fs] for fs in fmaps]
    parts: dict[tuple[int, int], list[tuple]] = {}
    # g∘f∘h by the ids of the witness maps g and h, which this call holds,
    # the restriction f, and the projections of its coordinates i and j,
    # which fix its candidate list
    composed: dict[tuple[int, _Restriction, int, int, int], _Restriction] = {}
    projections: dict[tuple[int, ...], int] = {}
    kind_in = [projections.setdefault(p, len(projections)) for p in search.proj_in]
    kind_out = [projections.setdefault(p, len(projections)) for p in search.proj_out]
    for (rep, _), members, kleaves in zip(dec.isotypes, dec.isotype_members,
                                          map(list, rep_leaves)):
        words = dec.components[rep].words
        plain = {k for k in members if dec.components[k].words == words
                 and list(perms[k]) == sorted(perms[k]) and set(fmaps[k]) == {ident}}
        for k_out in members:
            block, order, gs = blocks[k_out], perms[k_out], fmaps[k_out]
            kinds = [kind_out[j] for j in block]
            for k_in in members:
                options = parts[k_in, k_out] = []
                if k_in in plain and k_out in plain:
                    coords = blocks[k_in].__getitem__
                    options += [tuple(map(coords, tau)) + restr for tau, restr in kleaves]
                    continue
                # for each coordinate of the representative: C's input
                # coordinate and the inverse witness map there
                coords = [blocks[k_in][u] for u in inv_perms[k_in]]
                hs = [inv_maps[k_in][u] for u in inv_perms[k_in]]
                for tau, restr in kleaves:
                    sig = tuple([coords[tau[s]] for s in order])
                    fs = list(map(restr.__getitem__, order))
                    hs_t = list(map(hs.__getitem__, map(tau.__getitem__, order)))
                    found = list(zip(map(id, gs), fs, map(id, hs_t),
                                     map(kind_in.__getitem__, sig), kinds))
                    hits = list(map(composed.get, found))
                    for t in [t for t, hit in enumerate(hits) if hit is None]:
                        g, f, h = gs[t], fs[t], hs_t[t]
                        table = [-1] * q
                        for a in search.proj_in[sig[t]]:
                            # a wrong witness may leave f's domain; the
                            # table is then no candidate, and _canonical raises
                            if h[a] in f:
                                table[a] = g[f[h[a]]]
                        hits[t] = composed[found[t]] = search._canonical(
                            sig[t], block[t], table)
                    options.append(sig + tuple(hits))
    return parts


def _combined(dec: Decomposition, parts: dict[tuple[int, int], list[tuple]],
              fields: int) -> tuple[Iterator[tuple], list[itemgetter]]:
    """For every block permutation within each isotype (``_block_sources``)
    and every choice of one part ``parts[k_in, k_out]`` per block k_out,
    the parts concatenated in block order, and one getter per field that
    reads it off them as a tuple in coordinate order. A part holds
    ``fields`` runs of one entry per coordinate of its block, in the
    block's order; one block's parts are read as they are."""
    blocks = dec.partition.blocks
    if len(blocks) == 1:
        n = len(blocks[0])
        return iter(parts[0, 0]), [itemgetter(slice(f * n, (f + 1) * n)) for f in range(fields)]
    # where coordinate j's entry of each field sits in the parts of
    # blocks 0, 1, ... concatenated; two blocks give each getter two
    # entries or more, so it returns a tuple
    at = [[0] * sum(map(len, blocks)) for _ in range(fields)]
    offset = 0
    for block in blocks:
        for t, j in enumerate(block):
            for field in range(fields):
                at[field][j] = offset + field * len(block) + t
        offset += fields * len(block)
    combos = itertools.chain.from_iterable(
        itertools.product(*[parts[source[k], k] for k in range(len(blocks))])
        for source in _block_sources(dec))
    flats = map(tuple, map(itertools.chain.from_iterable, combos))
    return flats, [itemgetter(*where) for where in at]


def _assemble(search: _IsoSearch, dec: Decomposition,
              rep_leaves: Sequence[Iterable[Leaf]]) -> list[Leaf]:
    """Every leaf of C from the leaves of the isotype representatives, for
    every block permutation within each isotype and every tuple of
    conjugated representative leaves (``_conjugated``), sorted into the
    find-all search's DFS order, lexicographic in (σ(0), k_0, σ(1), k_1,
    ...) with k_j the position of restriction j in ``_candidate_maps(σ(j),
    j)``, which the restriction carries: each conjugated leaf is keyed by
    σ(j)·q! + k_j. One block has C's own leaves, which come in that order."""
    blocks = dec.partition.blocks
    if len(blocks) == 1:
        return list(rep_leaves[0])
    parts = _conjugated(search, dec, rep_leaves)
    span = math.factorial(search.q)  # more candidate maps than any list holds
    for (_, k_out), options in parts.items():
        width = len(blocks[k_out])
        options[:] = [option + tuple([s * span + f.pos
                                      for s, f in zip(option[:width], option[width:])])
                      for option in options]
    flats, (sig_of, res_of, key_of) = _combined(dec, parts, 3)
    records = [(key_of(flat), sig_of(flat), res_of(flat)) for flat in flats]
    records.sort(key=itemgetter(0))
    return [(sig, res) for _, sig, res in records]


def _explicit_elements(search: _IsoSearch, dec: Decomposition,
                       rep_leaves: Sequence[Iterable[Leaf]]) -> list[ElementPair]:
    """Every automorphism of C as (σ, maps), sorted, without C's leaf list:
    each conjugated representative leaf (``_conjugated``) with every
    bijective extension of its restrictions, put together over every block
    permutation within each isotype (``_combined``). Extending the parts
    before combining them extends each conjugated leaf once, not once per
    element it is part of. The leaves may come in any order."""
    blocks = dec.partition.blocks
    parts = {}
    for (k_in, k_out), options in _conjugated(search, dec, rep_leaves).items():
        block, width = blocks[k_out], len(blocks[k_out])
        parts[k_in, k_out] = [
            option[:width] + maps for option in options
            for maps in itertools.product(*map(search._extensions, option[:width], block,
                                               option[width:]))]
    flats, (sig_of, maps_of) = _combined(dec, parts, 2)
    elements = [(sig_of(flat), maps_of(flat)) for flat in flats]
    elements.sort()
    return elements


def _lifted(search: _IsoSearch, dec: Decomposition,
            rep_leaves: Sequence[Sequence[Leaf]]) -> list[Leaf]:
    """Leaves of the representatives, as leaves of C that act on the
    representative's block only."""
    found = []
    for members, kleaves in zip(dec.isotype_members, rep_leaves):
        block = dec.partition.blocks[members[0]]
        for tau, restr in kleaves:
            sigma = list(range(search.n))
            maps = [dict(zip(h, h)) for h in search.proj_in]
            for t, j in enumerate(block):
                sigma[j] = block[tau[t]]
                maps[j] = restr[t]
            found.append((tuple(sigma), tuple(maps)))
    return found


def _capped(search: _IsoSearch, why: str, found: Sequence[Leaf]) -> ResourceLimitError:
    """The error of a capped automorphism search or assembly, with the coset
    representatives found so far (none is the identity) as partial generators."""
    return ResourceLimitError(
        f"{why}; non-identity automorphisms found: {len(found)}",
        partial_generators=tuple(GroupCodeIso(search.witness_from_leaf(leaf), search.C,
                                              search.C) for leaf in found))


def _large_order_generators(search: _IsoSearch, leaves: Sequence[Leaf],
                            count: int) -> tuple[Isometry, ...]:
    """Generators when the group is too large to materialize, from its
    ``count`` leaves in the find-all search's DFS order.

    Every automorphism permutes the points (i, a) with a in pi_i(C); the
    kernel is N = prod_j Sym(complement of pi_j(C)), the extension-only
    automorphisms, and the leaves, one per coset of N, act as the quotient.
    Greedy generators of that action (``_chain_picks``, by the entries
    σ(j)·q! + k_j that order the leaves), as canonical leaf witnesses, plus
    two-element generator sets of each symmetric factor generate the group.
    """
    q, n = search.q, search.n
    span = math.factorial(q)  # more candidate maps than any list holds
    identity = (tuple(range(n)), tuple(map(search._identity_restriction, range(n))))

    def act(g: Leaf, entry: int, j: int) -> int:
        # entry (t, f) of x at j goes to (σ_g(t), f∘g_t) in x∘g
        t, k = divmod(entry, span)
        i, r = g[0][t], g[1][t]
        f = search._candidate_maps(t, j)[k][1]
        table = [-1] * q
        for a in search.proj_in[i]:
            table[a] = f[r[a]]
        return i * span + search._canonical(i, j, table).pos

    keys = [lambda leaf, j=j: leaf[0][j] * span + leaf[1][j].pos for j in range(n)]
    picks = _chain_picks(leaves, identity, keys,
                         [lambda g, v, j=j: act(g, v, j) for j in range(n)], count)
    ident = tuple(range(q))
    normal_gens: list[Isometry] = []
    for j in range(n):
        comp = search.comp_in[j]
        if len(comp) >= 2:
            for cycle in _symmetric_generators(comp):
                maps = [ident] * n
                f = list(range(q))
                for a, b in cycle.items():
                    f[a] = b
                maps[j] = tuple(f)
                normal_gens.append(Isometry._build(tuple(maps), tuple(range(n))))
    return tuple([search.witness_from_leaf(leaves[k]) for k in picks] + normal_gens)


def _symmetric_generators(points: tuple[int, ...]) -> list[dict[int, int]]:
    """Transposition plus full cycle generating Sym(points)."""
    gens = [{points[0]: points[1], points[1]: points[0]}]
    if len(points) > 2:
        gens.append({points[i]: points[(i + 1) % len(points)] for i in range(len(points))})
    return gens
