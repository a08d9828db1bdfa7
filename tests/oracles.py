"""Reference routes the library replaced with faster ones, kept as test oracles."""

from __future__ import annotations

from typing import Sequence

from groupcodes import serialize as ser
from groupcodes.errors import ResourceLimitError
from groupcodes.isometry import Isometry, compose, to_points
from groupcodes.isomorphy import AutGroupReport, _greedy_picks


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


def greedy_generators(elements: Sequence[Isometry]) -> tuple[Isometry, ...]:
    """Greedy generators over the elements of a group, in the given order:
    take each element not generated by the ones taken before it."""
    if not elements:
        return ()
    points = [to_points(el) for el in elements]
    return tuple(elements[k] for k in _greedy_picks(points, len(points[0]), len(points)))


def expand_leaf(search, leaf) -> list[Isometry]:
    """All ambient isometries over one search leaf: every bijective extension."""
    return [Isometry._build(maps, leaf[0]) for maps in search.leaf_maps(leaf)]


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
