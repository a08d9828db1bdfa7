"""JSON schemas for alphabets, codes, witnesses, and reports.

Coordinate indices and permutations are 1-based on the wire and 0-based in
memory. Emitted documents are canonical: words sorted, alphabets written
in table form, isometries in the pull convention, so byte-identical output
for identical inputs is guaranteed. The loaders read alphabets and codes
only: they also accept the cyclic/product alphabet shorthands, and reject
an alphabet of order above ``MAX_ALPHABET_ORDER`` before building its
table.

Reports are written by ``dumps``, byte-identical to ``json.dumps`` with
``indent=2``. The ``elements`` list of an ``aut`` report, up to thousands
of isometries, is written in one pass over each element's σ and maps: each
distinct σ and each distinct maps tuple is rendered once per report, from
precomputed 1-based numbers, and every piece goes into one list that is
joined once (``aut_report_dumps``).
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .classify import Classification
from .codes import Code, GroupCode, ParameterReport, generate_group_code
from .cyclic import ComponentStructure, CyclicReport, GcdCertificate
from .decompose import Decomposition, Partition
from .errors import ClosureError, GroupCodesError, SchemaError
from .groups import FiniteGroup, cyclic_group, group_from_table, product_group
from .isometry import Isometry
from .isomorphy import AutGroupReport, ElementPair, GroupCodeIso


def dumps(obj: Any) -> str:
    """The document as JSON, byte-identical to ``json.dumps(obj, indent=2) + "\\n"``.

    With an indent, ``json.dumps`` runs its pure-Python encoder; this writer
    is a smaller recursive one that renders an all-int list, or a list of
    non-empty all-int lists such as a word list, in one join per row.
    Dictionary keys must be strings.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _int_rows_text(obj: list | tuple, nl: str) -> str | None:
    """The text of an all-int list or of a list of non-empty all-int lists,
    whose own line starts after ``nl``; None for any other list."""
    inner = nl + "  "
    if all(type(x) is int for x in obj):
        return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
    if all(type(row) in (list, tuple) and row and all(type(x) is int for x in row)
           for row in obj):
        deeper = inner + "  "
        rows = ["[" + deeper + ("," + deeper).join(map(int.__repr__, row)) + inner + "]"
                for row in obj]
        return "[" + inner + ("," + inner).join(rows) + nl + "]"
    return None


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``, whose own line starts after ``nl``."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        first = obj[0]
        if type(first) is int or (type(first) in (list, tuple) and first
                                   and type(first[0]) is int):
            text = _int_rows_text(obj, nl)
            if text is not None:
                out.append(text)
                return
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = comma
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(v, inner, out)
            sep = comma
        out.append(nl + "}")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            out.append("NaN")
        elif obj in (math.inf, -math.inf):
            out.append("Infinity" if obj > 0 else "-Infinity")
        else:
            out.append(float.__repr__(obj))
    elif isinstance(obj, _ElementList):
        out.append(obj.text(nl))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _is_int(x: Any) -> bool:
    """An integer from JSON: ``true`` and ``false`` load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_int_rows(rows: list, field: str) -> None:
    """Every row a list of plain ints: ``int()`` would turn ``true`` or
    ``0.7`` into a symbol."""
    for k, row in enumerate(rows):
        if not isinstance(row, list) or not all(_is_int(s) for s in row):
            raise SchemaError(f"item {k} (0-based) is not a list of integers", field)


# alphabets ----------------------------------------------------------------

# The largest alphabet order a document may ask for. Building a group
# validates its table in O(q^3): Z/128 takes about 0.2 s, Z/256 about 1.4 s
# and Z/512 about 12 s on one 2-vCPU core.
MAX_ALPHABET_ORDER = 128


def _declared_order(obj: Any) -> int:
    """The order an alphabet document asks for, read before any table is
    built; products stop multiplying once past ``MAX_ALPHABET_ORDER``. A
    malformed document counts 1, for ``alphabet_from_json`` to reject."""
    if not isinstance(obj, dict):
        return 1
    kind = obj.get("kind")
    if kind == "cyclic" and _is_int(obj.get("modulus")):
        return obj["modulus"]
    if kind == "product" and isinstance(obj.get("factors"), list):
        order = 1
        for factor in obj["factors"]:
            order *= _declared_order(factor)
            if order > MAX_ALPHABET_ORDER:
                break
        return order
    if kind == "table" and isinstance(obj.get("table"), list):
        return len(obj["table"])
    return 1


def alphabet_to_json(G: FiniteGroup) -> dict:
    return {"kind": "table", "order": G.order,
            "table": [list(row) for row in G.table], "label": G.label}


def alphabet_from_json(obj: Any) -> FiniteGroup:
    if not isinstance(obj, dict):
        raise SchemaError("alphabet must be an object", "alphabet")
    order = _declared_order(obj)
    if order > MAX_ALPHABET_ORDER:
        raise SchemaError(f"an alphabet of order {order} or more exceeds the cap of "
                          f"{MAX_ALPHABET_ORDER}", "alphabet")
    kind = obj.get("kind")
    if kind == "cyclic":
        modulus = obj.get("modulus")
        if not _is_int(modulus) or modulus < 1:
            raise SchemaError(f"bad modulus {modulus!r}", "alphabet.modulus")
        return cyclic_group(modulus)
    if kind == "product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or not factors:
            raise SchemaError("product needs a non-empty factor list", "alphabet.factors")
        return product_group([alphabet_from_json(f) for f in factors])
    if kind == "table":
        table = obj.get("table")
        if not isinstance(table, list):
            raise SchemaError("missing multiplication table", "alphabet.table")
        _check_int_rows(table, "alphabet.table")
        label = obj.get("label", "")
        try:
            return group_from_table(table, label=str(label))
        except GroupCodesError as err:
            raise SchemaError(str(err), "alphabet.table") from err
    raise SchemaError(f"unknown alphabet kind {kind!r}", "alphabet.kind")


# codes --------------------------------------------------------------------

def code_to_json(C: Code) -> dict:
    doc = {"alphabet": alphabet_to_json(C.alphabet), "length": C.length,
           "codewords": [list(w) for w in C.words]}
    if isinstance(C, GroupCode):
        doc["group"] = True
    return doc


def code_from_json(obj: Any) -> Code:
    if not isinstance(obj, dict):
        raise SchemaError("code must be an object")
    G = alphabet_from_json(obj.get("alphabet"))
    length = obj.get("length")
    if not _is_int(length) or length < 1:
        raise SchemaError(f"bad length {length!r}", "length")
    is_group = obj.get("group", False)
    if not isinstance(is_group, bool):
        raise SchemaError(f'"group" must be true or false, not {is_group!r}', "group")
    if "generators" in obj:
        if not is_group:
            raise SchemaError('"generators" requires "group": true', "generators")
        gens = obj["generators"]
        if not isinstance(gens, list):
            raise SchemaError("generators must be a list of words", "generators")
        _check_int_rows(gens, "generators")
        try:
            return generate_group_code(G, length, gens)
        except GroupCodesError as err:
            raise SchemaError(str(err), "generators") from err
    words = obj.get("codewords")
    if not isinstance(words, list) or not words:
        raise SchemaError("codewords must be a non-empty list of words", "codewords")
    _check_int_rows(words, "codewords")
    try:
        if is_group:
            return GroupCode.from_words(G, length, words)
        return Code.from_words(G, length, words)
    except ClosureError as err:
        raise SchemaError(f"not closed under the group operations: {err}", "codewords") from err
    except GroupCodesError as err:
        raise SchemaError(str(err), "codewords") from err


# isometries ---------------------------------------------------------------

def isometry_to_json(iso: Isometry) -> dict:
    return {"sigma": [i + 1 for i in iso.equiv.perm],
            "config": [list(f) for f in iso.config.maps],
            "convention": "pull"}


def gc_witness_to_json(w: GroupCodeIso) -> dict:
    doc = isometry_to_json(w.iso)
    doc["verified_hom"] = True
    return doc


# reports ------------------------------------------------------------------

def parameters_to_json(p: ParameterReport) -> dict:
    return {"length": p.length, "alphabet_size": p.alphabet_size, "size": p.size,
            "dimension": p.dimension_exact if p.dimension_exact is not None else p.dimension,
            "dimension_is_exact": p.dimension_exact is not None,
            "min_distance": p.min_distance,
            "correction_capacity": p.correction_capacity}


def classification_to_json(c: Classification) -> dict:
    cw = None
    if c.constant_weight is not None:
        center, radius = c.constant_weight
        cw = {"center": list(center), "radius": radius}
    return {"is_trivial": c.is_trivial,
            "is_degenerate": c.is_degenerate,
            "degenerate_coordinates": [i + 1 for i in c.degenerate_coordinates],
            "is_mds": c.is_mds,
            "is_perfect": c.is_perfect,
            "constant_weight": cw,
            "constant_weight_checked": c.constant_weight_checked,
            "correction_capacity": c.correction_capacity}


def partition_to_json(p: Partition) -> list[list[int]]:
    return [[i + 1 for i in b] for b in p.blocks]


def decomposition_to_json(d: Decomposition) -> dict:
    return {"blocks": partition_to_json(d.partition),
            "components": [code_to_json(c) for c in d.components],
            "isotypes": [{"rep": rep, "alpha": alpha} for rep, alpha in d.isotypes],
            "witness": isometry_to_json(d.witness),
            "certificates": list(d.certificates)}


def aut_report_dumps(r: AutGroupReport) -> str:
    """The ``aut`` report as JSON text; ``_ElementList`` writes its elements."""
    doc: dict = {"order": r.order,
                 "generators": [gc_witness_to_json(g) for g in r.generators],
                 "complete": r.complete,
                 "elements": (None if r.element_pairs is None
                              else _ElementList(r.element_pairs))}
    if r.structure is not None:
        doc["structure"] = [{"isotype": i, "component_aut_order": o, "alpha": a}
                            for i, o, a in r.structure]
    return dumps(doc)


class _ElementList:
    """The ``elements`` of an automorphism report, for ``dumps``: each
    element, given as (σ, maps), written as ``isometry_to_json`` gives its
    isometry, with each distinct σ and each distinct maps tuple rendered
    once per report, into one list of pieces joined once."""

    def __init__(self, elements: Sequence[ElementPair]) -> None:
        self.elements = elements

    def text(self, nl: str) -> str:
        """The JSON text of the list, whose own line starts after ``nl``."""
        if not self.elements:
            return "[]"
        e1 = nl + "  "      # an element
        e2 = e1 + "  "      # its fields
        e3 = e2 + "  "      # entries of sigma and config
        e4 = e3 + "  "      # entries of one alphabet map
        head = "," + e1 + "{" + e2 + '"sigma": '
        mid = "," + e2 + '"config": [' + e3
        tail = e2 + "]," + e2 + '"convention": "pull"' + e1 + "}"
        sep3, sep4 = "," + e3, "," + e4
        numbers = [str(i + 1) for i in range(len(self.elements[0][0]))]
        sigmas: dict[tuple[int, ...], str] = {}
        configs: dict[tuple[tuple[int, ...], ...], str] = {}
        fs: dict[tuple[int, ...], str] = {}
        pieces = []
        for perm, maps in self.elements:
            sigma = sigmas.get(perm)
            if sigma is None:
                sigma = sigmas[perm] = ("[" + e3 + sep3.join(map(numbers.__getitem__, perm))
                                        + e2 + "]")
            config = configs.get(maps)
            if config is None:
                for f in maps:
                    if f not in fs:
                        fs[f] = "[" + e4 + sep4.join(map(str, f)) + e3 + "]"
                config = configs[maps] = sep3.join(map(fs.__getitem__, maps))
            pieces += (head, sigma, mid, config, tail)
        pieces[0] = "[" + head[1:]  # the first element opens the list
        pieces.append(nl + "]")
        return "".join(pieces)


def gcd_certificate_to_json(c: GcdCertificate | None) -> dict | None:
    if c is None:
        return None
    return {"xi": c.xi, "verdict": c.verdict}


def component_structure_to_json(s: ComponentStructure | None) -> dict | None:
    if s is None:
        return None
    return {"component": code_to_json(s.component),
            "multiplicity": s.multiplicity,
            "components_pairwise_isomorphic": s.components_pairwise_isomorphic,
            "components_cyclic": s.components_cyclic}


def cyclic_report_to_json(r: CyclicReport) -> dict:
    return {"is_cyclic": r.is_cyclic,
            "shift_orbit_sizes": list(r.shift_orbit_sizes),
            "gcd_certificate": gcd_certificate_to_json(r.gcd_certificate),
            "component_structure": component_structure_to_json(r.component_structure)}
