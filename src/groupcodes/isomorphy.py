"""Group-code isomorphism testing and automorphism-group computation.

A group-code isomorphism C -> D is an ambient isometry f∘σ̄ of G^n mapping
C onto D whose restriction to C is a group isomorphism. The search runs
coordinate by coordinate: pick σ(j) among unused input coordinates with a
matching projection cardinality, then pick f_j. Because independent pairs
of codewords realize every pair of projection values, the homomorphism
requirement factors per coordinate: f_j restricted to pi_{σ(j)}(C) must be
a subgroup isomorphism onto pi_j(D). Off that projection, any bijective
extension works, and distinct extensions are distinct ambient maps, which
is exactly what the automorphism counting has to honor.

Automorphism groups follow the product formula Aut(⊕ D_j^alpha_j) =
prod Aut(D_j) ≀ Sym(alpha_j): ``aut_group`` decomposes the code, runs the
find-all search on one representative per isotype, and assembles the
whole code's search leaves from block permutations within each isotype
and tuples of component leaves, conjugated by the isotype witnesses of
the decomposition. The assembled leaves are those of the search over the
whole code, in its order and with its restriction objects, so everything
downstream (leaf expansion, sorting, generator choice) is shared; that
search still handles indecomposable codes and is the test oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .codes import Code, GroupCode, Word, direct_sum_all, word_mul
from .errors import (IncompatibleError, PreconditionError, ResourceLimitError,
                     TheoremViolationError)
from .groups import CosetClosure, subgroup_isomorphisms, word_closure
from .isometry import Isometry, identity_isometry, to_points
from .phases import Phases

if TYPE_CHECKING:  # structure checks take a Decomposition without importing at runtime
    from .decompose import Decomposition

DEFAULT_MAX_NODES = 10**6
DEFAULT_EXPLICIT_CAP = 10**4
CLOSURE_VERIFY_CAP = 10**6


@dataclass(frozen=True)
class GroupCodeIso:
    """A certified isomorphism witness between two group codes."""

    iso: Isometry
    source: GroupCode
    target: GroupCode

    def verify(self, pair_check: bool | None = None) -> bool:
        """Re-check the witness extensionally.

        Homomorphy on the source is checked per coordinate (exact for maps
        in f∘σ̄ form); ``pair_check`` additionally multiplies out all
        codeword pairs and defaults to on for sources up to 512 words.
        """
        C, D, phi = self.source, self.target, self.iso
        G = C.alphabet
        if {phi.apply(w) for w in C.words} != D.word_set:
            return False
        e = G.identity
        if any(f[e] != e for f in phi.config.maps):
            return False
        sigma = phi.equiv.perm
        for j in range(C.length):
            f = phi.config.maps[j]
            h = C.coordinate_projections[sigma[j]]
            for a in h:
                for b in h:
                    if f[G.table[a][b]] != G.table[f[a]][f[b]]:
                        return False
        if pair_check is None:
            pair_check = C.size <= 512
        if pair_check:
            for x in C.words:
                for y in C.words:
                    if phi.apply(word_mul(G, x, y)) != word_mul(G, phi.apply(x), phi.apply(y)):
                        return False
        return True


def code_generating_words(C: GroupCode) -> tuple[Word, ...]:
    """Small generating set of the subgroup C, greedy over sorted words."""
    closure = word_closure(C.alphabet, C.length)
    closure.greedy(C.words, C.size)
    return tuple(closure.gens)


def _all_bijections(H: tuple[int, ...], K: tuple[int, ...]) -> list[dict[int, int]]:
    if len(H) != len(K):
        return []
    return [dict(zip(H, img)) for img in sorted(itertools.permutations(K))]


def _complement(values: tuple[int, ...], q: int) -> tuple[int, ...]:
    present = set(values)
    return tuple(x for x in range(q) if x not in present)


class _IsoSearch:
    """Coordinate-interleaved backtracking over (σ, f) normal forms.

    A probe's image prefix of length k is held as the mixed-radix integer
    sum_t y_t q^(k-1-t), so a child's image is ``img * q + f[c]`` and the
    prefix tests against D are integer set lookups. The probes and D's
    prefixes are built by ``run``; leaf expansion needs only the
    projections and the candidate maps, which searches over one alphabet
    may share through ``maps``.
    """

    def __init__(self, C: Code, D: Code, *, group_mode: bool,
                 max_nodes: int = DEFAULT_MAX_NODES, maps: dict | None = None) -> None:
        self.C = C
        self.D = D
        self.G = C.alphabet
        self.q = self.G.order
        self.n = C.length
        self.group_mode = group_mode
        self.max_nodes = max_nodes
        self.nodes = 0
        self.proj_in = C.coordinate_projections
        self.proj_out = D.coordinate_projections
        self.comp_in = [_complement(h, self.q) for h in self.proj_in]
        self.comp_out = [_complement(h, self.q) for h in self.proj_out]
        self._map_cache: dict[tuple[int, int], list[tuple[dict[int, int], list[int]]]] = {}
        self._maps_by_projections: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = (
            {} if maps is None else maps)
        self._extension_cache: dict[int, tuple] = {}

    def _candidate_maps(self, i: int, j: int) -> list[tuple[dict[int, int], list[int]]]:
        """Candidate restrictions pi_i(C) -> pi_j(D), each also as a lookup list."""
        key = (i, j)
        if key not in self._map_cache:
            # coordinate pairs with the same projections share one list
            projections = (self.proj_in[i], self.proj_out[j])
            if projections not in self._maps_by_projections:
                if self.group_mode:
                    maps = subgroup_isomorphisms(self.G, *projections)
                else:
                    maps = _all_bijections(*projections)
                pairs = []
                for fmap in maps:
                    table = [-1] * self.q
                    for a, b in fmap.items():
                        table[a] = b
                    pairs.append((fmap, table))
                self._maps_by_projections[projections] = pairs
            self._map_cache[key] = self._maps_by_projections[projections]
        return self._map_cache[key]

    def run(self, *, find_all: bool) -> list[tuple[tuple[int, ...], tuple[dict[int, int], ...]]]:
        """Return search leaves (σ, per-coordinate restrictions); one leaf
        per distinct restriction assignment, extensions not expanded."""
        leaves: list[tuple[tuple[int, ...], tuple[dict[int, int], ...]]] = []
        sigma: list[int] = []
        restr: list[dict[int, int]] = []
        C, D, n, q = self.C, self.D, self.n, self.q
        group_mode = self.group_mode
        probes = code_generating_words(C) if group_mode else C.words  # images must land in D
        # the probes' symbols at input coordinate i
        columns = [tuple(p[i] for p in probes) for i in range(n)]
        # output-prefix data of D, per depth, as mixed-radix integers
        prefixes = [0] * D.size
        prefix_ints = [prefixes]
        for j in range(n):
            prefixes = [x * q + w[j] for x, w in zip(prefixes, D.words)]
            prefix_ints.append(prefixes)
        if group_mode:
            prefix_sets = [frozenset(xs) for xs in prefix_ints]
        else:
            prefix_counts = [Counter(xs) for xs in prefix_ints]
        used = [False] * n
        in_sizes = [len(h) for h in self.proj_in]
        out_sizes = [len(h) for h in self.proj_out]

        def rec(j: int, current: list[int]) -> bool:
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise ResourceLimitError(
                    f"isomorphism search exceeded {self.max_nodes} nodes",
                    partial_generators=tuple(leaves))
            if j == n:
                if group_mode:
                    words = prefix_sets[n]
                    ok = all(img in words for img in current)
                else:
                    distinct = set(current)
                    ok = distinct == prefix_counts[n].keys() and len(distinct) == C.size
                if ok:
                    leaves.append((tuple(sigma), tuple(restr)))
                    return not find_all
                return False
            if group_mode:
                ps = prefix_sets[j + 1]
            else:
                counts = prefix_counts[j + 1]
            for i in range(n):
                if used[i] or in_sizes[i] != out_sizes[j]:
                    continue
                column = columns[i]
                for fmap, table in self._candidate_maps(i, j):
                    nxt = [img * q + table[c] for img, c in zip(current, column)]
                    if group_mode:
                        if not ps.issuperset(nxt):
                            continue
                    elif Counter(nxt) != counts:
                        continue
                    used[i] = True
                    sigma.append(i)
                    restr.append(fmap)
                    done = rec(j + 1, nxt)
                    restr.pop()
                    sigma.pop()
                    used[i] = False
                    if done:
                        return True
            return False

        rec(0, [0] * len(probes))
        return leaves

    # leaf expansion -------------------------------------------------

    def _extension(self, i: int, restriction: dict[int, int],
                   image: tuple[int, ...]) -> tuple[int, ...]:
        """The bijective extension of a restriction pi_i(C) -> pi_j(D) that
        maps the sorted complement of pi_i(C) onto ``image``."""
        f = [0] * self.q
        for a, b in restriction.items():
            f[a] = b
        for a, b in zip(self.comp_in[i], image):
            f[a] = b
        return tuple(f)

    def _extensions(self, i: int, j: int, restriction: dict[int, int]) -> list[tuple[int, ...]]:
        """Every bijective extension f of a restriction pi_i(C) -> pi_j(D) to
        the whole alphabet, sorted; cached, since leaves share restrictions.

        A restriction dict belongs to the candidate list of one pair of
        projections (``_candidate_maps``), which fixes both complements, so
        the dict alone keys its extensions."""
        # the entry holds the restriction itself, so its id stays unique
        entry = self._extension_cache.get(id(restriction))
        if entry is None:
            # permutations of the sorted complement come in lexicographic order
            entry = self._extension_cache[id(restriction)] = (
                restriction, [self._extension(i, restriction, image)
                              for image in itertools.permutations(self.comp_out[j])])
        return entry[1]

    def witness_from_leaf(self, leaf: tuple[tuple[int, ...], tuple[dict[int, int], ...]]) -> Isometry:
        """Canonical extension: complements map onto each other in sorted order."""
        sigma, restr = leaf
        maps = tuple(self._extension(sigma[j], restr[j], self.comp_out[j]) for j in range(self.n))
        return Isometry._build(maps, sigma)

    def extension_count(self, leaf: tuple[tuple[int, ...], tuple[dict[int, int], ...]]) -> int:
        """Bijective extensions over a leaf: prod_i |complement of pi_i(C)|!,
        the same for every leaf since σ permutes the input coordinates."""
        return math.prod(math.factorial(len(comp)) for comp in self.comp_in)

    def leaf_maps(self, leaf: tuple[tuple[int, ...], tuple[dict[int, int], ...]]
                  ) -> Iterator[tuple[tuple[int, ...], ...]]:
        """The per-coordinate maps of every ambient isometry over one leaf,
        every bijective extension, in lexicographic order."""
        sigma, restr = leaf
        return itertools.product(*[self._extensions(sigma[j], j, restr[j])
                                   for j in range(self.n)])


def gc_isomorphic(C: GroupCode, D: GroupCode, *, max_nodes: int = DEFAULT_MAX_NODES) -> GroupCodeIso | None:
    """Find a group-code isomorphism witness C -> D, or None.

    Invariant prechecks (length, cardinality, weight distribution,
    projection-cardinality multiset) run first; they only ever filter,
    the search is the decider.
    """
    if not C.alphabet.matches(D.alphabet):
        raise IncompatibleError("isomorphism requires the identical alphabet group")
    if C.length != D.length or C.size != D.size:
        return None
    if C.words == D.words:
        return GroupCodeIso(identity_isometry(C.alphabet.order, C.length), C, D)
    if C.weight_distribution != D.weight_distribution:
        return None
    if sorted(map(len, C.coordinate_projections)) != sorted(map(len, D.coordinate_projections)):
        return None
    search = _IsoSearch(C, D, group_mode=True, max_nodes=max_nodes)
    leaves = search.run(find_all=False)
    if not leaves:
        return None
    witness = GroupCodeIso(search.witness_from_leaf(leaves[0]), C, D)
    if not witness.verify():
        raise TheoremViolationError("search produced an invalid isomorphism witness")
    return witness


def code_equivalent(C: Code, D: Code, *, max_nodes: int = DEFAULT_MAX_NODES) -> Isometry | None:
    """Plain-code equivalence: an ambient isometry with phi(C) = D, or None."""
    if not C.alphabet.matches(D.alphabet):
        raise IncompatibleError("equivalence requires a common alphabet")
    if C.length != D.length or C.size != D.size:
        return None
    if C.words == D.words:
        return identity_isometry(C.alphabet.order, C.length)
    if sorted(map(len, C.coordinate_projections)) != sorted(map(len, D.coordinate_projections)):
        return None
    search = _IsoSearch(C, D, group_mode=False, max_nodes=max_nodes)
    leaves = search.run(find_all=False)
    if not leaves:
        return None
    return search.witness_from_leaf(leaves[0])


@dataclass(frozen=True)
class AutGroupReport:
    """Automorphism group of a group code.

    ``elements`` is populated when the order fits the explicit cap;
    otherwise only generators and the exact order are reported.
    ``structure`` rows are (isotype index, |Aut| of the component, alpha).
    """

    order: int
    generators: tuple[GroupCodeIso, ...]
    elements: tuple[Isometry, ...] | None
    structure: tuple[tuple[int, int, int], ...] | None
    complete: bool = True


def _greedy_picks(points: Iterable[tuple[int, ...]], degree: int, size: int) -> list[int]:
    """Greedy generators over all ``size`` elements of a group of
    permutations of ``degree`` points, composed as P_a∘P_b =
    ``itemgetter(*b)(a)`` (bare on one point, where none is added): the index
    of each element not generated by the ones taken before it, read lazily
    and only until the group is generated."""
    closure = CosetClosure(tuple(range(degree)), lambda t: itemgetter(*t))
    return closure.greedy(points, size)


def aut_group(C: GroupCode, decomposition: "Decomposition | None" = None, *,
              max_nodes: int = DEFAULT_MAX_NODES,
              explicit_cap: int = DEFAULT_EXPLICIT_CAP,
              max_bits: int | None = None,
              phases: Phases | None = None) -> AutGroupReport:
    """All group-code automorphisms of C, with exact order.

    Counts ambient isometries: every bijective extension of the
    per-coordinate maps off the coordinate projections is its own
    automorphism. The search leaves come from C's decomposition (see
    ``_aut_leaves``): the supplied one, which also yields the structure
    rows and the check of the order against prod |Aut(D_j)|^alpha_j *
    alpha_j!, or else ``decompose(C, max_bits=max_bits)``. ``max_nodes``
    caps every search. ``phases`` receives the wall time of the search,
    the element list, the generator choice and the structure check.
    """
    if phases is None:
        phases = Phases()
    q, n = C.alphabet.order, C.length
    if q == 1:
        ident = identity_isometry(1, n)
        return AutGroupReport(order=1, generators=(),
                              elements=(ident,), structure=None)
    with phases("search"):
        search, leaves, rows = _aut_leaves(C, decomposition, max_nodes=max_nodes,
                                           max_bits=max_bits)
    order = len(leaves) * search.extension_count(leaves[0])  # the identity is a leaf

    elements: tuple[Isometry, ...] | None
    if order <= explicit_cap:
        with phases("elements"):
            expanded = [(leaf[0], maps) for leaf in leaves for maps in search.leaf_maps(leaf)]
            expanded.sort()  # by (σ, maps)
            elements = tuple([Isometry._build(maps, sigma) for sigma, maps in expanded])
        with phases("generators"):
            picks = _greedy_picks(map(to_points, elements), q * n, order)
            gen_isos = tuple(elements[k] for k in picks)
    else:
        elements = None
        with phases("generators"):
            gen_isos = _large_order_generators(search, leaves)
    generators = tuple(GroupCodeIso(g, C, C) for g in gen_isos)

    structure: tuple[tuple[int, int, int], ...] | None = None
    if decomposition is not None:
        with phases("structure"):
            predicted = math.prod(comp_order**alpha * math.factorial(alpha)
                                  for _, comp_order, alpha in rows)
            if predicted != order:
                raise TheoremViolationError(
                    f"automorphism order {order} does not match the structure "
                    f"prediction {predicted}; decomposition or search is buggy")
            structure = rows
    return AutGroupReport(order=order, generators=generators,
                          elements=elements, structure=structure)


Leaf = tuple[tuple[int, ...], tuple[dict[int, int], ...]]


def _aut_leaves(C: GroupCode, decomposition: "Decomposition | None", *,
                max_nodes: int, max_bits: int | None
                ) -> tuple[_IsoSearch, list[Leaf], tuple[tuple[int, int, int], ...]]:
    """C's automorphism search leaves, equal to those of the whole-code
    search ``_IsoSearch(C, C).run(find_all=True)`` and in its order, with
    the structure rows (isotype, |Aut| of its representative, alpha).

    By the product formula Aut(⊕ D_j^alpha_j) = prod Aut(D_j) ≀ Sym(alpha_j),
    only one representative per isotype is searched; the other leaves are
    assembled from them (``_assemble``). An indecomposable C, or one whose
    own decomposition hits a cap, is searched as one block.
    """
    maps: dict = {}  # candidate lists, shared by every search over this alphabet
    search = _IsoSearch(C, C, group_mode=True, max_nodes=max_nodes, maps=maps)
    dec = decomposition
    if dec is None:
        from .decompose import DEFAULT_PARTITION_BITS, decompose  # decompose imports this module
        try:
            dec = decompose(C, max_bits=DEFAULT_PARTITION_BITS if max_bits is None else max_bits,
                            max_nodes=max_nodes)
        except ResourceLimitError:
            dec = None
    else:
        dec.check(C)
    if dec is None or dec.indecomposable:
        try:
            leaves = search.run(find_all=True)
        except ResourceLimitError as err:
            raise _capped(search, "the whole code", err.partial_generators) from None
        return search, leaves, ((0, len(leaves) * search.extension_count(leaves[0]), 1),)

    rep_leaves: list[list[Leaf]] = []
    rows = []
    for t, (rep, alpha) in enumerate(dec.isotypes):
        K = dec.components[rep]
        if not isinstance(K, GroupCode):
            raise PreconditionError("structure prediction needs group-code components")
        ksearch = _IsoSearch(K, K, group_mode=True, max_nodes=max_nodes, maps=maps)
        try:
            rep_leaves.append(ksearch.run(find_all=True))
        except ResourceLimitError as err:
            found = _lifted(search, dec, rep_leaves + [err.partial_generators])
            raise _capped(search, f"component {rep} (isotype {t})", found) from None
        rows.append((t, len(rep_leaves[-1]) * ksearch.extension_count(rep_leaves[-1][0]), alpha))
    count = math.prod(math.factorial(alpha) * len(kleaves)**alpha
                      for (_, alpha), kleaves in zip(dec.isotypes, rep_leaves))
    if count > max_nodes:
        found = _lifted(search, dec, rep_leaves)
        raise ResourceLimitError(
            f"assembling {count} automorphism search leaves exceeds the cap of "
            f"{max_nodes}; non-identity automorphisms found: {len(found)}",
            partial_generators=_witnesses(search, found), incomplete=True)
    return search, _assemble(search, dec, rep_leaves), tuple(rows)


def _assemble(search: _IsoSearch, dec: "Decomposition",
              rep_leaves: list[list[Leaf]]) -> list[Leaf]:
    """Every leaf of C from the leaves of the isotype representatives.

    Per isotype, a bijection ρ of its blocks and one representative leaf
    a per block: block ρ(k) is carried onto block k by w_k∘a∘w_ρ(k)^-1,
    with w the decomposition's isotype witnesses. The leaves are sorted
    into the whole-code search's DFS order, lexicographic in (σ(0), k_0,
    σ(1), k_1, ...) with k_j the position of restriction j in
    ``_candidate_maps(σ(j), j)``, and carry the dicts of those lists.
    """
    q = search.q
    blocks = dec.partition.blocks
    span = math.factorial(q)  # more candidate maps than any list holds
    indices: dict[int, dict[tuple[int, ...], tuple[int, dict[int, int]]]] = {}

    def canonical(i: int, j: int, table: list[int]) -> tuple[int, dict[int, int]]:
        cands = search._candidate_maps(i, j)
        index = indices.get(id(cands))
        if index is None:
            index = indices[id(cands)] = {tuple(tb): (pos, f) for pos, (f, tb) in enumerate(cands)}
        hit = index.get(tuple(table))
        if hit is None:
            raise TheoremViolationError(
                f"an assembled restriction of coordinate {i} onto {j} is no "
                f"subgroup isomorphism; decomposition or witnesses are buggy")
        return hit

    # block k's witness w_k: K -> D_k as (σ, maps), and its inverse
    perms = [w.equiv.perm for w in dec.isotype_witnesses]
    fmaps = [w.config.maps for w in dec.isotype_witnesses]
    inv_perms = [sorted(range(len(perm)), key=perm.__getitem__) for perm in perms]
    inv_maps = [[sorted(range(q), key=f.__getitem__) for f in fs] for fs in fmaps]

    # parts[(k_in, k_out)][a]: σ, restrictions and sort keys over block
    # k_out, as one tuple
    parts: dict[tuple[int, int], list[tuple]] = {}
    composed: dict[tuple[int, int, int], tuple[int, dict[int, int]]] = {}
    for members, kleaves in zip(dec.isotype_members, rep_leaves):
        for k_out in members:
            for k_in in members:
                options = parts[k_in, k_out] = []
                for tau, restr in kleaves:
                    sig, res, key = [], [], []
                    for t, j in enumerate(blocks[k_out]):
                        s = perms[k_out][t]
                        u = inv_perms[k_in][tau[s]]
                        i = blocks[k_in][u]
                        f = restr[s]
                        # i fixes k_in and u, j fixes k_out and t; leaves share restrictions
                        hit = composed.get((i, j, id(f)))
                        if hit is None:
                            g, h = fmaps[k_out][t], inv_maps[k_in][u]
                            table = [-1] * q
                            for a in search.proj_in[i]:
                                table[a] = g[f[h[a]]]
                            hit = composed[i, j, id(f)] = canonical(i, j, table)
                        sig.append(i)
                        res.append(hit[1])
                        key.append(i * span + hit[0])
                    options.append(tuple(sig + res + key))

    # where coordinate j's σ, restriction and key sit in the parts of
    # blocks 0, 1, ... concatenated
    at = [[0] * search.n for _ in range(3)]
    offset = 0
    for block in blocks:
        for t, j in enumerate(block):
            for field in range(3):
                at[field][j] = offset + field * len(block) + t
        offset += 3 * len(block)
    sig_of, res_of, key_of = (itemgetter(*where) for where in at)
    chain = itertools.chain.from_iterable
    records = []
    for rhos in itertools.product(*[itertools.permutations(m) for m in dec.isotype_members]):
        source = [0] * len(blocks)
        for members, rho in zip(dec.isotype_members, rhos):
            for k_out, k_in in zip(members, rho):
                source[k_out] = k_in
        for combo in itertools.product(*[parts[source[k], k] for k in range(len(blocks))]):
            flat = tuple(chain(combo))
            records.append((key_of(flat), sig_of(flat), res_of(flat)))
    records.sort(key=itemgetter(0))
    return [(sig, res) for _, sig, res in records]


def _is_identity_leaf(leaf: Leaf) -> bool:
    sigma, restr = leaf
    return (sigma == tuple(range(len(sigma)))
            and all(a == b for f in restr for a, b in f.items()))


def _lifted(search: _IsoSearch, dec: "Decomposition",
            rep_leaves: Sequence[Sequence[Leaf]]) -> list[Leaf]:
    """The non-identity leaves of the representatives searched so far, as
    leaves of C that act on the representative's block only."""
    found = []
    for (rep, _), kleaves in zip(dec.isotypes, rep_leaves):
        block = dec.partition.blocks[rep]
        for tau, restr in kleaves:
            if _is_identity_leaf((tau, restr)):
                continue
            sigma = list(range(search.n))
            maps = [dict(zip(h, h)) for h in search.proj_in]
            for t, j in enumerate(block):
                sigma[j] = block[tau[t]]
                maps[j] = restr[t]
            found.append((tuple(sigma), tuple(maps)))
    return found


def _witnesses(search: _IsoSearch, leaves: Sequence[Leaf]) -> tuple[GroupCodeIso, ...]:
    return tuple(GroupCodeIso(search.witness_from_leaf(leaf), search.C, search.C)
                 for leaf in leaves)


def _capped(search: _IsoSearch, what: str, found: Sequence[Leaf]) -> ResourceLimitError:
    """The error of a capped automorphism search, with the non-identity
    automorphisms found so far as partial generators."""
    found = [leaf for leaf in found if not _is_identity_leaf(leaf)]
    return ResourceLimitError(
        f"automorphism search of {what} exceeded {search.max_nodes} nodes; "
        f"non-identity automorphisms found: {len(found)}",
        partial_generators=_witnesses(search, found), incomplete=True)


def _large_order_generators(search: _IsoSearch, leaves) -> tuple[Isometry, ...]:
    """Generators when the group is too large to materialize.

    Every automorphism permutes the points (i, a) with a in pi_i(C); the
    kernel is N = prod_j Sym(complement of pi_j(C)), the extension-only
    automorphisms, and the leaves, one per coset of N, act as the quotient.
    Greedy generators of that action, as canonical leaf witnesses, plus
    two-element generator sets of each symmetric factor generate the group.
    """
    q, n = search.q, search.n
    # the number of point (i, a), a in pi_i(C), indexed by i·q + a
    number = [0] * (q * n)
    for k, p in enumerate(i * q + a for i, dom in enumerate(search.proj_in) for a in dom):
        number[p] = k
    inv = [0] * n

    def action(leaf: Leaf) -> tuple[int, ...]:
        # (σ(j), a) goes to (j, f_j(a))
        sigma, restr = leaf
        for j, i in enumerate(sigma):
            inv[i] = j
        return tuple([number[inv[i] * q + restr[inv[i]][a]]
                      for i, dom in enumerate(search.proj_in) for a in dom])

    picks = _greedy_picks(map(action, leaves), sum(map(len, search.proj_in)), len(leaves))
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


def verify_block_preservation(components: Sequence[GroupCode],
                              phi: "Isometry | GroupCodeIso", *,
                              max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """Check an automorphism of a direct sum respects the block structure.

    True iff phi maps every embedded summand image onto an embedded
    summand image of an isomorphic component and fixes each isotype block
    setwise. Raises if phi is not an automorphism of the sum.
    """
    if isinstance(phi, GroupCodeIso):
        phi = phi.iso
    total = direct_sum_all(list(components))
    assert isinstance(total, GroupCode)
    image = {phi.apply(w) for w in total.words}
    candidate = GroupCodeIso(phi, total, total)
    if image != total.word_set or not candidate.verify(pair_check=False):
        raise PreconditionError("phi is not a group-code automorphism of the sum")

    spans: list[tuple[int, int]] = []
    start = 0
    for comp in components:
        spans.append((start, start + comp.length))
        start += comp.length
    e = total.identity_word()

    def embedded(k: int) -> frozenset[Word]:
        lo, hi = spans[k]
        return frozenset(e[:lo] + w + e[hi:] for w in components[k].words)

    embedded_sets = [embedded(k) for k in range(len(components))]
    mapping: dict[int, int] = {}
    for j, emb in enumerate(embedded_sets):
        img = frozenset(phi.apply(w) for w in emb)
        hits = [k for k, target in enumerate(embedded_sets) if target == img]
        if len(hits) != 1:
            return False
        mapping[j] = hits[0]
    if sorted(mapping.values()) != list(range(len(components))):
        return False
    # isotype classes must be fixed setwise, and images must be isomorphic
    classes: list[list[int]] = []
    for j in range(len(components)):
        for cls in classes:
            if gc_isomorphic(components[cls[0]], components[j], max_nodes=max_nodes) is not None:
                cls.append(j)
                break
        else:
            classes.append([j])
    class_of = {j: ci for ci, cls in enumerate(classes) for j in cls}
    for j, k in mapping.items():
        if class_of[j] != class_of[k]:
            return False
    return True
