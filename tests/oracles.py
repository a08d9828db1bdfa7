"""Reference routes the library replaced with faster ones, kept as test oracles."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from groupcodes import serialize as ser
from groupcodes.classify import (constant_weight_group, is_degenerate, is_mds, is_perfect,
                                 is_trivial)
from groupcodes.codes import Code, GroupCode, hamming_distance, projection, word_mul
from groupcodes.cyclic import ComponentStructure, cyclic_shift, is_cyclic
from groupcodes.decompose import (CERT_CONSTANT_WEIGHT, CERT_MDS, CERT_PERFECT, CERT_PRIME,
                                  decompose, free_coordinates, indecomposability_certificate,
                                  is_decomposable)
from groupcodes.errors import (ClosureError, IncompatibleError, PreconditionError,
                               ResourceLimitError, TheoremViolationError)
from groupcodes.isometry import Configuration, Equivalence, Isometry, compose
from groupcodes.groups import CosetClosure, FiniteGroup
from groupcodes.autgroup import _symmetric_generators
from groupcodes.isomorphy import AutGroupReport, ElementPair, GroupCodeIso, Leaf, gc_isomorphic


def mul_closure(gens: Sequence[Isometry], *, cap: int | None = None) -> set[Isometry]:
    """Close a set of isometries under composition (finite, so a group),
    restarting from the generators; the oracle for ``groups.CosetClosure``."""
    if not gens:
        return set()
    closed: set[Isometry] = set(gens)
    frontier = list(gens)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(x, g)
            if y not in closed:
                closed.add(y)
                frontier.append(y)
                if cap is not None and len(closed) > cap:
                    raise ResourceLimitError(f"closure exceeded {cap} elements")
    return closed


def greedy_picks(points: Iterable[tuple[int, ...]], degree: int, size: int) -> list[int]:
    """Greedy generators over all ``size`` elements of a group of
    permutations of ``degree`` points, composed as P_a∘P_b =
    ``itemgetter(*b)(a)`` (bare on one point, where none is added): the index
    of each element not generated by the ones taken before it, read lazily
    and only until the group is generated. The closure route that
    ``autgroup._chain_picks`` replaced."""
    closure = CosetClosure(tuple(range(degree)), lambda t: itemgetter(*t))
    return closure.greedy(points, size)


def inverse_points(pair: ElementPair) -> tuple[int, ...]:
    """The point form of the inverse of f∘σ̄, given as (σ, maps): it sends
    (j, t) to (σ(j), f_j^-1(t)), so entry j·q + t is σ(j)·q + f_j^-1(t)."""
    sigma, maps = pair
    q = len(maps[0])
    return tuple([i * q + s for i, f in zip(sigma, maps)
                  for s in sorted(range(q), key=f.__getitem__)])


def large_order_generators(search, leaves: Sequence[Leaf]) -> tuple[Isometry, ...]:
    """Generators of a group too large to list, from its leaves in DFS
    order: greedy generators of the leaves' action on the points (i, a), a
    in pi_i(C), closed by ``greedy_picks``, as canonical leaf witnesses,
    plus two-element generator sets of each symmetric factor of the kernel.
    The closure route of ``autgroup._large_order_generators``."""
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

    picks = greedy_picks(map(action, leaves), sum(map(len, search.proj_in)), len(leaves))
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


def greedy_generators(elements: Sequence[Isometry]) -> tuple[Isometry, ...]:
    """Greedy generators over the elements of a group, in the given order:
    take each element not generated by the ones taken before it."""
    if not elements:
        return ()
    points = [to_points(el) for el in elements]
    return tuple(elements[k] for k in greedy_picks(points, len(points[0]), len(points)))


def find_all_leaves(search) -> list:
    """Every leaf (σ, restrictions) of the group-mode search tree of
    ``search``, in DFS order, visiting every node: the find-all search the
    coset search (``_IsoSearch.run(cosets=True)``) replaced. Nodes count on
    ``search.nodes`` against ``search.max_nodes``. A prefix is kept when
    the images of all codewords of C, not only of a generating set, are
    prefixes of words of D; the map is a homomorphism on each coordinate,
    so both tests keep the same nodes."""
    C, D, n = search.C, search.D, search.n
    prefixes = [{w[:k] for w in D.words} for k in range(n + 1)]
    leaves: list = []
    sigma: list[int] = []
    restr: list[dict[int, int]] = []

    def rec(j: int, images: list[tuple[int, ...]]) -> None:
        search.nodes += 1
        if search.nodes > search.max_nodes:
            raise ResourceLimitError(f"isomorphism search exceeded {search.max_nodes} nodes")
        if j == n:
            leaves.append((tuple(sigma), tuple(restr)))
            return
        for i in range(n):
            if i in sigma or len(search.proj_in[i]) != len(search.proj_out[j]):
                continue
            for fmap, _ in search._candidate_maps(i, j):
                nxt = [y + (fmap[w[i]],) for y, w in zip(images, C.words)]
                if prefixes[j + 1].issuperset(nxt):
                    sigma.append(i)
                    restr.append(fmap)
                    rec(j + 1, nxt)
                    restr.pop()
                    sigma.pop()

    rec(0, [()] * C.size)
    return leaves


def leaf_maps(search, leaf) -> list[tuple[tuple[int, ...], ...]]:
    """The per-coordinate maps of every ambient isometry over one search
    leaf, every bijective extension, in lexicographic order."""
    sigma, restr = leaf
    return list(itertools.product(*[search._extensions(sigma[j], j, restr[j])
                                    for j in range(search.n)]))


def expand_leaf(search, leaf) -> list[Isometry]:
    """All ambient isometries over one search leaf: every bijective extension."""
    return [Isometry._build(maps, leaf[0]) for maps in leaf_maps(search, leaf)]


def aut_group_from_leaves(search, leaves, *, explicit_cap: int) -> AutGroupReport:
    """The automorphism group from the find-all leaves of the search over
    the whole code C = D: expanded, sorted and read by the greedy choice,
    or, past ``explicit_cap``, read by ``large_order_generators``; both
    by closing the group, not by the chain walk of ``aut_group``."""
    C = search.C
    order = len(leaves) * search.extension_count()
    if order > explicit_cap:
        gens = large_order_generators(search, leaves)
        return AutGroupReport(order, tuple(GroupCodeIso(g, C, C) for g in gens), None, None)
    pairs = sorted((leaf[0], maps) for leaf in leaves for maps in leaf_maps(search, leaf))
    elements = [Isometry._build(maps, sigma) for sigma, maps in pairs]
    gens = greedy_generators(elements)
    return AutGroupReport(order, tuple(GroupCodeIso(g, C, C) for g in gens), tuple(pairs), None)


def aut_report_to_json(r: AutGroupReport) -> dict:
    """The ``aut`` report as a document, every element through ``isometry_to_json``."""
    doc: dict = {"order": r.order,
                 "generators": [ser.gc_witness_to_json(g) for g in r.generators],
                 "complete": r.complete}
    doc["elements"] = ([ser.isometry_to_json(e) for e in r.elements]
                       if r.elements is not None else None)
    if r.structure is not None:
        doc["structure"] = [{"isotype": i, "component_aut_order": o, "alpha": a}
                            for i, o, a in r.structure]
    return doc


# the explicit automorphism group, element by element -----------------------

def conjugated(search, dec, rep_leaves) -> dict[tuple[int, int], list[tuple]]:
    """Each representative leaf a carried from block k_in onto block k_out
    of its isotype, w_out∘a∘w_in^-1 with w the isotype witnesses, every
    block conjugated, whatever its witness: per (k_in, k_out), one tuple
    per leaf of its σ and its restrictions (C's canonical dicts), each over
    the coordinates j of block k_out in order. The oracle for
    ``autgroup._conjugated``, which carries the leaves between blocks
    with the identity witness as they are."""
    q = search.q
    blocks = dec.partition.blocks
    perms = [w.equiv.perm for w in dec.isotype_witnesses]
    fmaps = [w.config.maps for w in dec.isotype_witnesses]
    inv_perms = [sorted(range(len(perm)), key=perm.__getitem__) for perm in perms]
    inv_maps = [[sorted(range(q), key=f.__getitem__) for f in fs] for fs in fmaps]
    parts: dict[tuple[int, int], list[tuple]] = {}
    for members, kleaves in zip(dec.isotype_members, map(list, rep_leaves)):
        for k_out in members:
            block, order, gs = blocks[k_out], perms[k_out], fmaps[k_out]
            for k_in in members:
                coords = [blocks[k_in][u] for u in inv_perms[k_in]]
                hs = [inv_maps[k_in][u] for u in inv_perms[k_in]]
                options = parts[k_in, k_out] = []
                for tau, restr in kleaves:
                    sig = tuple([coords[tau[s]] for s in order])
                    dicts = []
                    for t, s in enumerate(order):
                        g, f, h = gs[t], restr[s], hs[tau[s]]
                        table = [-1] * q
                        for a in search.proj_in[sig[t]]:
                            if h[a] in f:
                                table[a] = g[f[h[a]]]
                        dicts.append(search._canonical(sig[t], block[t], table))
                    options.append(sig + tuple(dicts))
    return parts


def direct_elements(search, dec, rep_leaves) -> list[ElementPair]:
    """Every automorphism of C as (σ, maps), sorted: each conjugated
    representative leaf (``conjugated``) with every bijective extension of
    its restrictions, written into place for every block permutation
    within each isotype. The oracle for ``autgroup._explicit_elements``."""
    blocks = dec.partition.blocks
    expanded = {}
    for (k_in, k_out), options in conjugated(search, dec, rep_leaves).items():
        block, width = blocks[k_out], len(blocks[k_out])
        expanded[k_in, k_out] = [
            (option[:width], maps) for option in options
            for maps in itertools.product(*[search._extensions(i, j, f) for i, j, f in
                                            zip(option[:width], block, option[width:])])]
    elements = []
    for rhos in itertools.product(*[itertools.permutations(m) for m in dec.isotype_members]):
        source = {k_out: k_in for members, rho in zip(dec.isotype_members, rhos)
                  for k_out, k_in in zip(members, rho)}
        for combo in itertools.product(*[expanded[source[k], k] for k in range(len(blocks))]):
            sigma, maps = [0] * search.n, [()] * search.n
            for block, (sig, fs) in zip(blocks, combo):
                for j, i, f in zip(block, sig, fs):
                    sigma[j], maps[j] = i, f
            elements.append((tuple(sigma), tuple(maps)))
    elements.sort()
    return elements


def pair_picks(pairs: Sequence[ElementPair], q: int) -> list[int]:
    """Greedy generators over the elements (σ, maps), read through the
    point form of each element (``pair_points``) and closed: the
    oracle for the picks of ``aut_group``'s chain walk."""
    if not pairs:
        return []
    return greedy_picks((pair_points(sigma, maps, q) for sigma, maps in pairs),
                         q * len(pairs[0][0]), len(pairs))


class ElementText(ser._ElementList):
    """The ``elements`` of an automorphism report, written element by
    element: each σ and each alphabet map rendered once per report, each
    element's text joined on its own. The oracle for ``_ElementList``."""

    def text(self, nl: str) -> str:
        if not self.elements:
            return "[]"
        e1 = nl + "  "
        e2 = e1 + "  "
        e3 = e2 + "  "
        e4 = e3 + "  "
        head = "{" + e2 + '"sigma": '
        mid = "," + e2 + '"config": [' + e3
        tail = e2 + "]," + e2 + '"convention": "pull"' + e1 + "}"
        sep3, sep4 = "," + e3, "," + e4
        sigmas: dict[tuple[int, ...], str] = {}
        fs: dict[tuple[int, ...], str] = {}
        texts = []
        for perm, maps in self.elements:
            sigma = sigmas.get(perm)
            if sigma is None:
                sigma = sigmas[perm] = "[" + e3 + sep3.join([str(i + 1) for i in perm]) + e2 + "]"
            for f in maps:
                if f not in fs:
                    fs[f] = "[" + e4 + sep4.join(map(str, f)) + e3 + "]"
            texts.append(head + sigma + mid + sep3.join(map(fs.__getitem__, maps)) + tail)
        return "[" + e1 + ("," + e1).join(texts) + nl + "]"


def element_report_text(r: AutGroupReport) -> str:
    """The ``aut`` report as ``serialize.aut_report_dumps`` writes it, its
    elements through ``ElementText``."""
    doc: dict = {"order": r.order,
                 "generators": [ser.gc_witness_to_json(g) for g in r.generators],
                 "complete": r.complete,
                 "elements": None if r.element_pairs is None else ElementText(r.element_pairs)}
    if r.structure is not None:
        doc["structure"] = [{"isotype": i, "component_aut_order": o, "alpha": a}
                            for i, o, a in r.structure]
    return ser.dumps(doc)


def coordinate_projections(C: Code) -> tuple[tuple[int, ...], ...]:
    """The sorted symbols of pi_i(C), one set built per coordinate; the
    oracle for ``Code.coordinate_projections``."""
    return tuple(tuple(sorted({w[i] for w in C.words})) for i in range(C.length))


def weight_distribution(C: Code) -> Counter:
    """Codeword weights relative to the identity word, one distance per
    word; the oracle for ``Code.weight_distribution``."""
    e = C.identity_word()
    return Counter(hamming_distance(w, e) for w in C.words)


def constant_weight_center(C: Code) -> tuple[tuple[int, ...], int] | None:
    """The first center of A^n, in ``itertools.product`` order, with every
    codeword at one distance from it, and that distance; None if there is
    none. Scans all q^n candidates: the oracle for the pruned search of
    ``classify.constant_weight_general``."""
    if C.size == 1:
        return (C.words[0], 0)
    for x0 in itertools.product(range(C.alphabet.order), repeat=C.length):
        first = hamming_distance(C.words[0], x0)
        if all(hamming_distance(w, x0) == first for w in C.words[1:]):
            return (x0, first)
    return None


def ball_size(q: int, n: int, r: int) -> int:
    """The words within distance r of a center, one binomial per sphere:
    the oracle for ``classify.ball_size``, which builds each sphere size
    from the one before it."""
    if r < 0:
        return 0
    if r >= n:
        return q**n
    return sum(math.comb(n, i) * (q - 1) ** i for i in range(r + 1))


def shift_orbit_sizes(C: Code) -> tuple[int, ...]:
    """The rotation classes inside C in word order, each found by walking
    all n rotations of its first word, O(|C|·n²); the oracle for
    ``cyclic.shift_orbit_sizes``, which counts words by least rotation."""
    seen: set[tuple[int, ...]] = set()
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


def applicable_certificates(C: Code) -> tuple[str, ...]:
    """The indecomposability certificates of C in priority order, one
    predicate per certificate: ``is_mds`` and ``is_perfect`` each scan
    the distances. The oracle for ``decompose.applicable_certificates``,
    which reads MDS and perfect off one parameter report."""
    tags: list[str] = []
    trivial = is_trivial(C)
    if not trivial and is_mds(C):
        tags.append(CERT_MDS)
    if not trivial and is_perfect(C):
        tags.append(CERT_PERFECT)
    degenerate, _ = is_degenerate(C)
    if (isinstance(C, GroupCode) and not degenerate
            and constant_weight_group(C) is not None):
        tags.append(CERT_CONSTANT_WEIGHT)
    if not degenerate and C.size >= 2 and all(C.size % d for d in range(2, C.size)):
        tags.append(CERT_PRIME)
    return tuple(tags)


def recursive_blocks(C: Code) -> tuple[tuple[tuple[int, ...], ...], tuple[Code, ...],
                                        tuple[str | None, ...]]:
    """The blocks, components and certificates of C's decomposition by
    recursion: at every node, peel the coordinates that split off alone
    (the free ones of a group code, the constant ones of a plain code);
    else end the branch on a certificate or when the exhaustive search
    finds no split, or recurse on both sides of the canonical witness. The
    oracle for ``decompose``, which peels once and takes each least
    witness as a final block."""
    leaves: list[tuple[tuple[int, ...], Code]] = []

    def rec(indices: tuple[int, ...], code: Code) -> None:
        if len(indices) == 1:
            leaves.append((indices, code))
            return
        alone = free_coordinates(code) if isinstance(code, GroupCode) else is_degenerate(code)[1]
        if alone:
            for p in alone:
                rec((indices[p],), projection(code, (p,)))
            keep = [p for p in range(code.length) if p not in alone]
            if keep:
                rec(tuple(indices[p] for p in keep), projection(code, keep))
            return
        J = None
        if indecomposability_certificate(code) is None:
            J = is_decomposable(code, max_bits=code.length)
        if J is None:
            leaves.append((indices, code))
            return
        K = [p for p in range(code.length) if p not in J]
        rec(tuple(indices[p] for p in J), projection(code, J))
        rec(tuple(indices[p] for p in K), projection(code, K))

    rec(tuple(range(C.length)), C)
    leaves.sort()
    return (tuple(block for block, _ in leaves), tuple(comp for _, comp in leaves),
            tuple(indecomposability_certificate(comp) for _, comp in leaves))


def cyclic_structure(C: GroupCode) -> ComponentStructure:
    """The component shape of a cyclic group code by decomposing it and
    testing every component against the first with ``gc_isomorphic``; the
    oracle for ``cyclic.cyclic_structure``, which reads the isotypes."""
    comps = decompose(C).components
    if len(comps) == 1:
        return ComponentStructure(component=comps[0], multiplicity=1,
                                  components_pairwise_isomorphic=True,
                                  components_cyclic=True)
    rep = comps[0]
    for other in comps[1:]:
        if gc_isomorphic(rep, other) is None:
            raise TheoremViolationError(
                "components of a decomposable cyclic group code are not pairwise isomorphic")
    for comp in comps:
        if not is_cyclic(comp):
            raise TheoremViolationError(
                "a component projection of a cyclic group code is not cyclic")
    return ComponentStructure(component=rep, multiplicity=len(comps),
                              components_pairwise_isomorphic=True,
                              components_cyclic=True)


# point forms ----------------------------------------------------------------
#
# An isometry of A^n, |A| = q, permutes the q·n points (coordinate, symbol),
# point (i, s) numbered i·q + s: f∘σ̄ sends (σ(j), s) to (j, f_j(s)), so it
# carries the point set {(i, x_i)} of a word x onto that of its image. Hence
# compose(a, b) has the point form P_a∘P_b, one tuple index.

def to_points(iso: Isometry) -> tuple[int, ...]:
    """The point form of an isometry: entry i·q + s is the image of (i, s)."""
    maps = iso.config.maps
    q = len(maps[0]) if maps else 0
    if any(len(f) != q for f in maps):
        raise IncompatibleError("the point form needs one alphabet on every coordinate")
    return pair_points(iso.equiv.perm, maps, q)


def pair_points(perm: tuple[int, ...], maps: tuple[tuple[int, ...], ...],
                q: int) -> tuple[int, ...]:
    """The point form of f∘σ̄ given as σ and its maps, each a permutation
    of the same q symbols (unchecked)."""
    # input coordinate i is σ(j) for j = inv[i]
    inv = sorted(range(len(perm)), key=perm.__getitem__)
    return tuple([j * q + t for j in inv for t in maps[j]])


def from_points(points: Sequence[int], q: int) -> Isometry:
    """The isometry of a point form over a q-letter alphabet; validated."""
    if q < 1 or len(points) % q:
        raise PreconditionError(f"{len(points)} points are not q·n points for q = {q}")
    blocks = [tuple(points[i * q:(i + 1) * q]) for i in range(len(points) // q)]
    # σ^{-1}: the output coordinate each input coordinate's points land on
    inv = Equivalence(tuple(block[0] // q for block in blocks))
    for block, j in zip(blocks, inv.perm):
        if any(p // q != j for p in block):
            raise PreconditionError(f"the points {block} do not land on one coordinate")
    equiv = inv.inverse()
    maps = tuple(tuple(p - j * q for p in blocks[i]) for j, i in enumerate(equiv.perm))
    return Isometry(Configuration(maps), equiv)


def compose_points(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The point form of compose(A, B), given those of A and B: P_a∘P_b."""
    if len(a) != len(b):
        raise IncompatibleError(f"composing point forms on {len(a)} and {len(b)} points")
    if len(b) < 2:  # itemgetter needs an index, and returns a lone item bare
        return tuple([a[p] for p in b])
    return itemgetter(*b)(a)


def pair_product_holds(witness: GroupCodeIso) -> bool:
    """phi maps C onto D and phi(xy) = phi(x)·phi(y) for all |C|² pairs of
    codewords, with no per-coordinate test; the oracle for
    ``GroupCodeIso.verify``."""
    C, D, phi = witness.source, witness.target, witness.iso
    G = C.alphabet
    if {phi.apply(w) for w in C.words} != D.word_set:
        return False
    return all(phi.apply(word_mul(G, x, y)) == word_mul(G, phi.apply(x), phi.apply(y))
               for x in C.words for y in C.words)


def pair_scan_check_subgroup(G: FiniteGroup, n: int, words: Sequence[tuple[int, ...]]) -> None:
    """Raise ClosureError unless the words form a subgroup of G^n: the
    identity, then every inverse, then every product of two words, in word
    order, with no closure; the quadratic route that
    ``codes._check_subgroup`` replaced."""
    ws = frozenset(words)
    e = (G.identity,) * n
    if e not in ws:
        raise ClosureError("group code does not contain the identity word", witness=(e,))
    for x in words:
        if tuple(G.inverse[s] for s in x) not in ws:
            raise ClosureError(f"inverse of {x} missing", witness=(x,))
    for x in words:
        for y in words:
            if word_mul(G, x, y) not in ws:
                raise ClosureError(f"product of {x} and {y} escapes the set", witness=(x, y))
