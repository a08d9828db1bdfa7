"""JSON schema round trips and diagnostics."""

from __future__ import annotations

import json
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import groupcodes as gc
from groupcodes import serialize as ser
from groupcodes.errors import SchemaError


def test_alphabet_round_trip_table(z4):
    doc = ser.alphabet_to_json(z4)
    assert doc["kind"] == "table" and doc["order"] == 4
    again = ser.alphabet_from_json(doc)
    assert again == z4


def test_alphabet_cyclic_and_product_shorthands():
    g = ser.alphabet_from_json({"kind": "cyclic", "modulus": 5})
    assert g.order == 5 and g.table[2][4] == 1
    prod = ser.alphabet_from_json(
        {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2},
                                        {"kind": "cyclic", "modulus": 3}]})
    assert prod.order == 6


@pytest.mark.parametrize("doc,field", [
    ({"kind": "cyclic", "modulus": 0}, "modulus"),
    ({"kind": "product", "factors": []}, "factors"),
    ({"kind": "table"}, "table"),
    ({"kind": "table", "table": [[0, 1], [1, 1]]}, "table"),
    ({"kind": "nope"}, "kind"),
    ("not-an-object", "alphabet"),
])
def test_alphabet_schema_errors(doc, field):
    with pytest.raises(SchemaError):
        ser.alphabet_from_json(doc)


def test_code_round_trip_plain(z4):
    C = gc.Code.from_words(z4, 2, [(0, 0), (1, 2)])
    doc = ser.code_to_json(C)
    assert "group" not in doc
    assert ser.code_from_json(doc) == C


def test_code_round_trip_group(code_d):
    doc = ser.code_to_json(code_d)
    assert doc["group"] is True
    again = ser.code_from_json(doc)
    assert isinstance(again, gc.GroupCode)
    assert again == code_d


def test_code_from_generators(z4_code):
    doc = {"alphabet": {"kind": "cyclic", "modulus": 4}, "length": 3,
           "generators": [[2, 0, 0], [1, 2, 1]], "group": True}
    assert ser.code_from_json(doc).words == z4_code.words


def test_code_schema_errors():
    base = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2}
    with pytest.raises(SchemaError):
        ser.code_from_json({**base, "codewords": []})
    with pytest.raises(SchemaError):
        ser.code_from_json({**base, "generators": [[1, 1]]})  # no group flag
    with pytest.raises(SchemaError):
        ser.code_from_json({**base, "codewords": [[0, 5]]})
    with pytest.raises(SchemaError) as err:
        ser.code_from_json({**base, "codewords": [[0, 0], [0, 1], [1, 0]], "group": True})
    assert "escapes" in str(err.value) or "closed" in str(err.value)


def test_isometry_round_trip():
    iso = gc.Isometry(gc.Configuration(((1, 0), (0, 1), (1, 0))),
                      gc.Equivalence((2, 0, 1)))
    doc = ser.isometry_to_json(iso)
    assert doc == {"sigma": [3, 1, 2], "config": [[1, 0], [0, 1], [1, 0]],
                   "convention": "pull"}


def test_decomposition_round_trip_fields(code_d):
    dec = gc.decompose(gc.direct_sum(code_d, code_d))
    doc = ser.decomposition_to_json(dec)
    assert doc["blocks"] == [[1, 2, 3], [4, 5, 6]]
    assert doc["isotypes"] == [{"rep": 0, "alpha": 2}]
    assert doc["witness"]["sigma"] == [1, 2, 3, 4, 5, 6]
    assert len(doc["certificates"]) == 2
    for comp_doc, comp in zip(doc["components"], dec.components):
        assert ser.code_from_json(comp_doc) == comp


def test_gc_witness_has_hom_flag(code_d):
    w = gc.gc_isomorphic(code_d, code_d)
    doc = ser.gc_witness_to_json(w)
    assert doc == {**ser.isometry_to_json(w.iso), "verified_hom": True}


def test_dumps_deterministic(code_d):
    dec = gc.decompose(code_d)
    a = ser.dumps(ser.decomposition_to_json(dec))
    b = ser.dumps(ser.decomposition_to_json(gc.decompose(code_d)))
    assert a == b
    assert a.endswith("\n")


def test_parameters_and_classification_json(z4_code):
    p = ser.parameters_to_json(gc.parameters(z4_code))
    assert p["dimension"] == pytest.approx(1.5) and p["dimension_is_exact"] is False
    c = ser.classification_to_json(gc.classify(z4_code))
    assert c["is_mds"] is False and c["degenerate_coordinates"] == []


def test_cyclic_report_json(code_d):
    doc = ser.cyclic_report_to_json(gc.cyclic_report(code_d))
    assert doc["is_cyclic"] is True
    assert doc["gcd_certificate"] == {"xi": 2, "verdict": "indecomposable"}
    assert doc["component_structure"]["multiplicity"] == 1


# the report writer against json.dumps ------------------------------------

json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(-2**70, 2**70)
                | st.floats() | st.text())
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=40)


def reference_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(json_docs)
def test_dumps_matches_json_module(doc):
    assert ser.dumps(doc) == reference_dumps(doc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0, 1, 2, True, False, 0.0, 1.0]), min_size=1,
                         max_size=3), max_size=8), st.booleans())
def test_dumps_memo_tells_bools_and_floats_from_ints(rows, ints_first):
    # each row next to its all-int twin, which compares and hashes equal:
    # the memo of all-int lists must never hand one's text to the other
    twins = [[int(x) for x in row] for row in rows]
    doc = {"a": twins, "b": rows} if ints_first else {"a": rows, "b": twins}
    assert ser.dumps(doc) == reference_dumps(doc)


int_rows = st.lists(st.lists(st.sampled_from([0, 1, 2, True, False, 0.0, 1.0]), max_size=3),
                    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(int_rows, min_size=1, max_size=4), st.integers(1, 3), st.booleans(),
       st.booleans())
def test_dumps_memo_of_int_rows_tells_twins_apart(configs, repeats, ints_first, as_tuples):
    # repeated configurations, each next to its all-int twin (equal, and
    # equally hashed) and at two depths: no text may pass between them
    twins = [[[int(x) for x in row] for row in config] for config in configs]
    if as_tuples:
        twins = [tuple(tuple(row) for row in config) for config in twins]
    configs = (twins + configs if ints_first else configs + twins) * repeats
    doc = {"elements": [{"sigma": [1, 2], "config": c} for c in configs], "deeper": [configs]}
    assert ser.dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc", [
    [], {}, [[]], [{}], {"a": []}, "", "naïve ∘ σ̄   \"quoted\"\n",
    [1, True, 0, False, None], [True, 1], [1, True], [[1, 0], [True, False], [1.0, 0], [1, 0]],
    [math.log(3, 2), -0.0, 1e300, -2**200, 2**64],
    [float("nan"), float("inf"), -float("inf")],
    (1, 2, (3, [4])),
    {"order": 6, "generators": [{"sigma": [1, 2, 3], "config": [[0, 1]] * 3}] * 2},
    [[1, 0], [2]], [[1, 0], []], [[1, 0], [True]], [[1], 2], [[1], [[2]]], [(1, 0), [1, 0]],
])
def test_dumps_matches_json_module_on_edge_cases(doc):
    assert ser.dumps(doc) == reference_dumps(doc)


def test_dumps_rejects_what_json_cannot_write():
    with pytest.raises(TypeError):
        ser.dumps({"x": {1, 2}})
    with pytest.raises(TypeError):
        ser.dumps({(1, 2): 3})


# bools and non-bool flags at the JSON boundary ---------------------------

@pytest.mark.parametrize("doc,field", [
    ({"alphabet": {"kind": "cyclic", "modulus": True}, "length": 1,
      "codewords": [[0]]}, "modulus"),
    ({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": True,
      "codewords": [[0]]}, "length"),
    ({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2, "group": "false",
      "codewords": [[0, 1], [1, 0]]}, "group"),
    ({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2, "group": 1,
      "codewords": [[0, 0], [1, 1]]}, "group"),
])
def test_code_schema_rejects_bool_ints_and_non_bool_group(doc, field):
    with pytest.raises(SchemaError) as err:
        ser.code_from_json(doc)
    assert err.value.field.endswith(field)


# the alphabet order cap ---------------------------------------------------

def forbid_tables(monkeypatch):
    """Make building any group table fail the test."""
    def built(*args, **kwargs):
        raise AssertionError("a group table was built past the order cap")
    for name in ("cyclic_group", "product_group", "group_from_table"):
        monkeypatch.setattr(ser, name, built)


CYCLIC_16 = {"kind": "cyclic", "modulus": 16}
OVER_CAP = [
    {"kind": "cyclic", "modulus": 10**9},
    {"kind": "product", "factors": [CYCLIC_16, CYCLIC_16]},           # 256
    {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2},
                                    {"kind": "product", "factors": [CYCLIC_16] * 2}]},
    {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 10**9}] * 10**4},
    {"kind": "table", "table": [[0] * 129] * 129},
]


@pytest.mark.parametrize("doc", OVER_CAP)
def test_alphabet_order_cap_fires_before_any_table_is_built(doc, monkeypatch):
    forbid_tables(monkeypatch)
    with pytest.raises(SchemaError) as err:
        ser.alphabet_from_json(doc)
    assert err.value.field == "alphabet" and "cap" in str(err.value)


@pytest.mark.parametrize("doc", OVER_CAP[:2])
def test_cli_exits_2_on_an_alphabet_past_the_cap(doc, tmp_path, monkeypatch, capsys):
    from groupcodes.cli import main
    forbid_tables(monkeypatch)
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"alphabet": doc, "length": 1, "codewords": [[0]]}))
    assert main(["analyze", str(p)]) == 2
    assert "cap" in capsys.readouterr().err


def test_alphabet_order_cap_admits_its_bound():
    assert ser.MAX_ALPHABET_ORDER == 128
    G = ser.alphabet_from_json({"kind": "product", "factors": [
        {"kind": "cyclic", "modulus": 2}, {"kind": "cyclic", "modulus": 64}]})
    assert G.order == ser.MAX_ALPHABET_ORDER


# the generated-code cap ----------------------------------------------------

Z2_DOC = {"kind": "cyclic", "modulus": 2}


@pytest.mark.parametrize("doc,max_peak_mib", [
    # the identity word alone would take 8 GB
    ({"alphabet": Z2_DOC, "length": 10**9, "generators": [], "group": True}, 4),
    # 30 unit vectors generate 2^30 words of length 30
    ({"alphabet": Z2_DOC, "length": 30, "group": True,
      "generators": [[int(i == j) for i in range(30)] for j in range(30)]}, 128),
], ids=["length", "words"])
def test_cli_exits_2_on_a_generated_code_past_the_cap(doc, max_peak_mib, tmp_path, capsys):
    from groupcodes.cli import main
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        assert main(["analyze", str(p)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < max_peak_mib * 2**20
    assert "cap" in capsys.readouterr().err
