"""Group-code isomorphism testing, and ``aut_group``, which assembles Aut(C) in ``autgroup``.

A group-code isomorphism C -> D is an ambient isometry f∘σ̄ of G^n mapping
C onto D whose restriction to C is a group isomorphism. The search runs
coordinate by coordinate: pick σ(j) among unused input coordinates with a
matching projection cardinality, then pick f_j. Because independent pairs
of codewords realize every pair of projection values, the homomorphism
requirement factors per coordinate: f_j restricted to pi_{σ(j)}(C) must be
a subgroup isomorphism onto pi_j(D). Off that projection, any bijective
extension works, and distinct extensions are distinct ambient maps, which
is exactly what the automorphism counting has to honor.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .codes import Code, GroupCode, Word, direct_sum_all, word_mul
from .errors import (IncompatibleError, PreconditionError, ResourceLimitError,
                     TheoremViolationError)
from .groups import subgroup_isomorphisms, word_closure
from .isometry import Isometry, identity_isometry
from .phases import Phases

if TYPE_CHECKING:  # structure checks take a Decomposition without importing at runtime
    from .decompose import Decomposition

DEFAULT_MAX_NODES = 10**6
DEFAULT_EXPLICIT_CAP = 10**4

# a search leaf: σ and the restrictions pi_σ(j)(C) -> pi_j(D), extensions not expanded
Leaf = tuple[tuple[int, ...], tuple[dict[int, int], ...]]
# an ambient isometry f∘σ̄ as σ and the alphabet permutations f_j
ElementPair = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


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


class _Restriction(dict):
    """A candidate restriction pi_i(C) -> pi_j(D) of ``_IsoSearch._candidate_maps``,
    with ``pos``, its position in its list, hashed by identity. That agrees
    with equality: its keys and values, pi_i(C) and pi_j(D), key its list,
    so two candidate lists never hold equal maps, nor one list a map twice."""

    __slots__ = ("pos",)
    __hash__ = object.__hash__

    def __init__(self, fmap: dict[int, int], pos: int) -> None:
        super().__init__(fmap)
        self.pos = pos


class _IsoSearch:
    """Coordinate-interleaved backtracking over (σ, f) normal forms.

    A probe's image prefix of length k is held as the mixed-radix integer
    sum_t y_t q^(k-1-t), so a child's image is ``img * q + f[c]`` and the
    prefix tests against D are integer set lookups. The probes and D's
    prefixes are built by ``run``, in either mode; leaf expansion
    and composition need only the projections and the candidate maps,
    which searches over one alphabet may share through ``maps``, as
    ``_Restriction`` objects that carry their list positions.
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
        self._map_cache: dict[tuple[int, int], list[tuple[_Restriction, list[int]]]] = {}
        self._maps_by_projections: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = (
            {} if maps is None else maps)
        self._extension_cache: dict[_Restriction, list[tuple[int, ...]]] = {}
        self._indices: dict[tuple[tuple[int, ...], tuple[int, ...]],
                            dict[tuple[int, ...], _Restriction]] = {}
        self._composed: dict[tuple[_Restriction, _Restriction], _Restriction] = {}

    def _candidate_maps(self, i: int, j: int) -> list[tuple[_Restriction, list[int]]]:
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
                for pos, fmap in enumerate(maps):
                    table = [-1] * self.q
                    for a, b in fmap.items():
                        table[a] = b
                    pairs.append((_Restriction(fmap, pos), table))
                self._maps_by_projections[projections] = pairs
            self._map_cache[key] = self._maps_by_projections[projections]
        return self._map_cache[key]

    def _prepare(self) -> tuple[Callable, Callable, Callable]:
        """Build the probes and D's prefix data, and return the search's
        three steps over the path ``self.sigma``/``self.restr`` (``self.used``
        marks its input coordinates):

        - ``children(j, images)``: the children (i, f, images') of the node
          at depth j whose probe images are ``images``, in DFS order;
        - ``descend(j, images)``: the first leaf, in DFS order, below that
          node, or None;
        - ``below(j, i, f, images')``: the first leaf below one of its
          children, with the child pushed onto the path and popped after.

        Every node counts against ``max_nodes``."""
        C, D, n, q = self.C, self.D, self.n, self.q
        group_mode = self.group_mode
        self.probes = probes = code_generating_words(C) if group_mode else C.words
        # the probes' symbols at input coordinate i
        self.columns = columns = [tuple(p[i] for p in probes) for i in range(n)]
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
        self.sigma, self.restr, self.used = sigma, restr, used = [], [], [False] * n
        self.found = []
        in_sizes = [len(h) for h in self.proj_in]
        out_sizes = [len(h) for h in self.proj_out]

        def children(j: int, current: list[int]) -> Iterator[tuple[int, dict[int, int], list[int]]]:
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
                    yield i, fmap, nxt

        def descend(j: int, current: list[int]) -> Leaf | None:
            self.nodes += 1
            if self.nodes > self.max_nodes:
                raise self._cap_error()
            if j == n:
                if group_mode:
                    words = prefix_sets[n]
                    ok = all(img in words for img in current)
                else:
                    distinct = set(current)
                    ok = distinct == prefix_counts[n].keys() and len(distinct) == C.size
                return (tuple(sigma), tuple(restr)) if ok else None
            for i, fmap, nxt in children(j, current):
                leaf = below(j, i, fmap, nxt)
                if leaf is not None:
                    return leaf
            return None

        def below(j: int, i: int, fmap: dict[int, int], nxt: list[int]) -> Leaf | None:
            used[i] = True
            sigma.append(i)
            restr.append(fmap)
            leaf = descend(j + 1, nxt)
            restr.pop()
            sigma.pop()
            used[i] = False
            return leaf

        return children, descend, below

    def _cap_error(self) -> ResourceLimitError:
        return ResourceLimitError(f"isomorphism search exceeded {self.max_nodes} nodes",
                                  partial_generators=tuple(self.found))

    def _count_node(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise self._cap_error()

    def run(self, *, cosets: bool = False) -> "Leaf | None | tuple[Leaf, list[list[Leaf]]]":
        """Find-one mode (the default): the first search leaf (σ,
        per-coordinate restrictions) in DFS order, extensions not expanded,
        or None if C and D are not isomorphic.

        ``cosets=True``, for D = C: the coset search of the leaves of
        Aut(C), as the identity leaf and, per depth, the coset
        representatives found (``_cosets``). Both modes count their nodes
        on ``self.nodes``."""
        children, descend, below = self._prepare()
        if cosets:
            return self._cosets(children, below)
        return descend(0, [0] * len(self.probes))

    def _cosets(self, children: Callable, below: Callable) -> tuple[Leaf, list[list[Leaf]]]:
        """Coset search of the leaves of Aut(C), for D = C (group mode).

        L_j, the leaves that agree with the identity on output coordinates
        0..j-1, is the subtree of the identity path's node at depth j; its
        child (i, f) holds the leaves that also send input coordinate i to
        output coordinate j by f, which, if any, are the coset
        {h∘g : h in L_(j+1)} of any one of them, g (Leon, J. Symbolic
        Comput. 12, 1991). So the search walks the identity path and then,
        deepest node first, runs one find-one search under each other child.
        It returns the identity leaf and, per depth j, the leaves g found:
        L_j is L_(j+1) and its cosets L_(j+1)∘g, so |L| = prod (1 + |found_j|).
        It visits a subset of the find-all search's nodes, disjoint subtrees
        below a path it shares."""
        n, q = self.n, self.q
        sigma, restr, used = self.sigma, self.restr, self.used
        # walk the identity path: its restrictions, and the probe images
        # at each of its nodes
        idents = [self._identity_restriction(j) for j in range(n)]
        images = [[0] * len(self.probes)]
        for j in range(n):
            self._count_node()
            images.append([img * q + c for img, c in zip(images[j], self.columns[j])])
            used[j] = True
            sigma.append(j)
            restr.append(idents[j])
        self._count_node()  # the identity leaf
        identity = (tuple(sigma), tuple(restr))
        found: list[list[Leaf]] = [[] for _ in range(n)]
        for j in reversed(range(n)):
            restr.pop()
            sigma.pop()
            used[j] = False
            for i, fmap, nxt in children(j, images[j]):
                if i == j and fmap is idents[j]:
                    continue
                leaf = below(j, i, fmap, nxt)
                if leaf is not None:
                    found[j].append(leaf)
                    self.found.append(leaf)
        return identity, found

    def _identity_restriction(self, j: int) -> _Restriction:
        """The identity pi_j(C) -> pi_j(D), for D = C: first in
        ``_candidate_maps(j, j)``, which is sorted by images."""
        f, table = self._candidate_maps(j, j)[0]
        if any(table[a] != a for a in self.proj_in[j]):
            raise TheoremViolationError(
                f"the first candidate restriction of coordinate {j} onto itself "
                f"is not the identity; the candidate lists are misordered")
        return f

    def _canonical(self, i: int, j: int, table: list[int]) -> _Restriction:
        """The restriction pi_i(C) -> pi_j(D) given as a lookup list, as
        ``_candidate_maps(i, j)`` lists it; a map missing from that list is
        no subgroup isomorphism, which no composite or conjugate of
        automorphisms can be."""
        projections = (self.proj_in[i], self.proj_out[j])
        index = self._indices.get(projections)
        if index is None:
            index = self._indices[projections] = {
                tuple(tb): f for f, tb in self._candidate_maps(i, j)}
        hit = index.get(tuple(table))
        if hit is None:
            raise TheoremViolationError(
                f"a composed or conjugated restriction of coordinate {i} onto {j} "
                f"is no subgroup isomorphism; the automorphism assembly is buggy")
        return hit

    def dfs_leaves(self, identity: Leaf, found: list[list[Leaf]]) -> list[Leaf]:
        """Every leaf of Aut(C) from the coset search, in the find-all
        search's DFS order, lexicographic in (σ(0), k_0, σ(1), k_1, ...)
        with k_j the position of restriction j in ``_candidate_maps(σ(j),
        j)``, which the restriction carries.

        With T_j the identity and the leaves found at depth j, a leaf
        factors uniquely as t_(n-1)∘...∘t_0 with t_j in T_j, and its entry
        j is that of x_j = t_j∘...∘t_0, since t_(n-1)∘...∘t_(j+1) fixes
        coordinates 0..j. So the products x_j are built level by level, one
        composition per node of this coset tree, the children of each
        parent ordered by their entry j and kept together."""
        times = self._times
        current = [identity]
        for j, level in enumerate(found):
            if not level:
                continue
            products: list[Leaf] = []
            for x in current:
                children = [x] + [times(t, x) for t in level]
                children.sort(key=lambda y: (y[0][j], y[1][j].pos))
                products += children
            current = products
        return current

    def _times(self, h: Leaf, g: Leaf) -> Leaf:
        """h∘g (g applied first) for leaves, for D = C: σ(t) = σ_g(σ_h(t)),
        and restriction t is f_h,t∘f_g,σ_h(t), the canonical restriction,
        found by its table once and then cached."""
        h_sigma, h_restr = h
        g_sigma, g_restr = g
        sigma = tuple(map(g_sigma.__getitem__, h_sigma))
        pairs = list(zip(h_restr, map(g_restr.__getitem__, h_sigma)))
        get = self._composed.get
        restr = tuple(map(get, pairs))
        if None in restr:  # a product not met before
            restr = tuple([get(pair) or self._product(i, t, *pair)
                           for t, (i, pair) in enumerate(zip(sigma, pairs))])
        return sigma, restr

    def _product(self, i: int, t: int, fa: _Restriction, fb: _Restriction) -> _Restriction:
        """fa∘fb as the canonical restriction pi_i(C) -> pi_t(C), cached."""
        table = [-1] * self.q
        for x in self.proj_in[i]:
            table[x] = fa[fb[x]]
        f = self._composed[fa, fb] = self._canonical(i, t, table)
        return f

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

    def _extensions(self, i: int, j: int, restriction: _Restriction) -> list[tuple[int, ...]]:
        """Every bijective extension f of a restriction pi_i(C) -> pi_j(D) to
        the whole alphabet, sorted; cached, since leaves share restrictions.

        A restriction belongs to the candidate list of one pair of
        projections (``_candidate_maps``), which fixes both complements, so
        the restriction alone keys its extensions."""
        extensions = self._extension_cache.get(restriction)
        if extensions is None:
            # permutations of the sorted complement come in lexicographic order
            extensions = self._extension_cache[restriction] = [
                self._extension(i, restriction, image)
                for image in itertools.permutations(self.comp_out[j])]
        return extensions

    def witness_from_leaf(self, leaf: Leaf) -> Isometry:
        """Canonical extension: complements map onto each other in sorted order."""
        sigma, restr = leaf
        maps = tuple(self._extension(sigma[j], restr[j], self.comp_out[j]) for j in range(self.n))
        return Isometry._build(maps, sigma)

    def extension_count(self) -> int:
        """Bijective extensions over a leaf: prod_i |complement of pi_i(C)|!,
        the same for every leaf since σ permutes the input coordinates."""
        return math.prod(math.factorial(len(comp)) for comp in self.comp_in)


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
    leaf = search.run()
    if leaf is None:
        return None
    witness = GroupCodeIso(search.witness_from_leaf(leaf), C, D)
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
    leaf = search.run()
    if leaf is None:
        return None
    return search.witness_from_leaf(leaf)


@dataclass(frozen=True)
class AutGroupReport:
    """Automorphism group of a group code.

    ``element_pairs`` lists every automorphism f∘σ̄ as (σ, f) when the
    order fits the explicit cap, sorted; ``elements`` builds them as
    isometries on first access. Otherwise only generators and the exact
    order are reported. ``structure`` rows are (isotype index, |Aut| of
    the component, alpha).
    """

    order: int
    generators: tuple[GroupCodeIso, ...]
    element_pairs: tuple[ElementPair, ...] | None
    structure: tuple[tuple[int, int, int], ...] | None
    complete: bool = True

    @cached_property
    def elements(self) -> tuple[Isometry, ...] | None:
        if self.element_pairs is None:
            return None
        return tuple([Isometry._build(maps, sigma) for sigma, maps in self.element_pairs])


def aut_group(C: GroupCode, decomposition: "Decomposition | None" = None, *,
              max_nodes: int = DEFAULT_MAX_NODES,
              explicit_cap: int = DEFAULT_EXPLICIT_CAP,
              max_bits: int | None = None,
              phases: Phases | None = None) -> AutGroupReport:
    """All group-code automorphisms of C, with exact order.

    Counts ambient isometries: every bijective extension of the
    per-coordinate maps off the coordinate projections is its own
    automorphism. The automorphisms come from C's decomposition (see
    ``autgroup._aut_leaves``): the supplied one, which also yields the structure
    rows and the check of the order against prod |Aut(D_j)|^alpha_j *
    alpha_j!, or else ``decompose(C, max_bits=max_bits)``. ``max_nodes``
    caps every search and the number of search leaves put together.
    ``phases`` receives the wall time of the decomposition (when not
    supplied), the search, the element list, the generator choice and
    the structure check.
    """
    if phases is None:
        phases = Phases()
    q, n = C.alphabet.order, C.length
    if q == 1:
        return AutGroupReport(order=1, generators=(),
                              element_pairs=((tuple(range(n)), ((0,),) * n),), structure=None)
    from .autgroup import (_assemble, _aut_leaves, _chain_picks, _explicit_elements,
                           _large_order_generators, _one_block, _pair_keys)
    if decomposition is None:
        from .decompose import DEFAULT_PARTITION_BITS, decompose  # decompose imports this module
        with phases("decompose"):
            try:
                dec = decompose(C, max_bits=DEFAULT_PARTITION_BITS if max_bits is None else max_bits,
                                max_nodes=max_nodes)
            except ResourceLimitError:
                dec = None  # then C is searched as one block
    else:
        decomposition.check(C)
        dec = decomposition
    if dec is None or dec.indecomposable:
        dec = _one_block(C)
    with phases("search"):
        search, searched, rows, count = _aut_leaves(C, dec, max_nodes=max_nodes)
    order = count * search.extension_count()
    rep_leaves = [ks.dfs_leaves(identity, found) for ks, identity, found in searched]

    pairs: tuple[ElementPair, ...] | None = None
    if order <= explicit_cap:
        with phases("elements"):
            pairs = tuple(_explicit_elements(search, dec, rep_leaves))
        with phases("generators"):
            identity = (tuple(range(n)), (tuple(range(q)),) * n)
            picks = _chain_picks(pairs, identity, *_pair_keys(n), order)
            gen_isos = tuple(Isometry._build(pairs[k][1], pairs[k][0]) for k in picks)
    else:
        with phases("generators"):
            gen_isos = _large_order_generators(search, _assemble(search, dec, rep_leaves), count)
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
                          element_pairs=pairs, structure=structure)


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
