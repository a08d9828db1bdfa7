"""CLI behavior: schemas in, deterministic JSON out, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

import pytest

from groupcodes import cli
from groupcodes.cli import main
from groupcodes.errors import (ClosureError, IncompatibleError, InvalidWordError,
                               PreconditionError, ResourceLimitError, SchemaError,
                               TheoremViolationError)

Z4_DOC = {"alphabet": {"kind": "cyclic", "modulus": 4}, "length": 3,
          "generators": [[2, 0, 0], [1, 2, 1]], "group": True}
D_DOC = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 3,
         "codewords": [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]], "group": True}
REP_DOC = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 3,
           "codewords": [[0, 0, 0], [1, 1, 1]], "group": True}
D2_DOC = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 6,
          "generators": [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0],
                         [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1]], "group": True}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, doc in [("z4", Z4_DOC), ("d", D_DOC), ("rep", REP_DOC), ("d2", D2_DOC)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_analyze_z4(files, capsys):
    code, doc = run_json(capsys, ["analyze", files["z4"]])
    assert code == 0
    assert doc["parameters"]["size"] == 8
    assert doc["parameters"]["dimension"] == pytest.approx(1.5)
    assert doc["parameters"]["min_distance"] == 1
    assert len(doc["decomposition"]["blocks"]) == 1  # indecomposable
    assert doc["certificates"] == []
    assert doc["cyclic"]["is_cyclic"] is False


def test_analyze_repetition_lists_both_certificates(files, capsys):
    code, doc = run_json(capsys, ["analyze", files["rep"]])
    assert code == 0
    assert doc["certificates"][:2] == ["mds-nontrivial", "perfect-nontrivial"]
    assert doc["classification"]["is_mds"] and doc["classification"]["is_perfect"]


def test_analyze_rejects_empty_codeword_list(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 2},
                             "length": 2, "codewords": []}))
    assert main(["analyze", str(p)]) == 2
    assert "codewords" in capsys.readouterr().err


def test_analyze_rejects_broken_closure(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 2},
                             "length": 2, "group": True,
                             "codewords": [[0, 0], [0, 1], [1, 0]]}))
    assert main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert "(0, 1)" in err and "(1, 0)" in err  # witness pair named


def test_analyze_invalid_json_diagnostic(tmp_path, capsys):
    p = tmp_path / "mangled.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(p)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [json.dumps(D_DOC)[:-1].encode() + b', "label": "\xff"}',
                                 json.dumps(D_DOC).encode("utf-16")],
                         ids=["byte-ff-in-a-label", "utf-16-with-bom"])
@pytest.mark.parametrize("verb", [["analyze"], ["decompose"], ["aut"], ["iso", "{path}"],
                                  ["interleave", "--copies", "2"], ["join"]],
                         ids=lambda verb: verb[0])
def test_input_that_is_not_utf8_is_malformed_input(tmp_path, capsys, raw, verb):
    p = tmp_path / "code.json"
    p.write_bytes(raw)
    argv = [verb[0], str(p)] + [arg.format(path=p) for arg in verb[1:]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not UTF-8 text:") and "Traceback" not in err


def test_input_over_the_byte_limit_is_refused_before_parsing(tmp_path, capsys, monkeypatch):
    data = json.dumps(D_DOC).encode()
    p = tmp_path / "code.json"
    p.write_bytes(data)
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(data))
    assert main(["aut", str(p)]) == 0  # a file at the limit loads
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", len(data) - 1)
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("parsed"))
    assert main(["aut", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"error: {p}: input files are limited to {len(data) - 1} bytes\n")


def test_analyze_resource_limit_partial_report(files, capsys):
    code, doc = run_json(capsys, ["analyze", files["d"], "--max-partition-bits", "2"])
    assert code == 3
    assert doc["decomposition"] is None
    assert doc["parameters"]["size"] == 4  # partial report still complete elsewhere
    assert "decomposition" in doc["resource_limits"]


def test_analyze_byte_identical_output(files, capsys):
    main(["analyze", files["z4"]])
    first = capsys.readouterr().out
    main(["analyze", files["z4"]])
    second = capsys.readouterr().out
    assert first == second


def test_analyze_text_format(files, capsys):
    assert main(["analyze", files["z4"], "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "dimension 1.5" in out


def test_analyze_oracle_flag(files, capsys):
    code, doc = run_json(capsys, ["analyze", files["rep"], "--oracle"])
    assert code == 0
    assert doc["oracle"]["perfect_covering_agrees"] is True
    assert doc["oracle"]["weight_scan_agrees"] is True


def test_decompose_square(files, capsys):
    code, doc = run_json(capsys, ["decompose", files["d2"]])
    assert code == 0
    assert doc["blocks"] == [[1, 2, 3], [4, 5, 6]]
    assert doc["isotypes"] == [{"rep": 0, "alpha": 2}]


def test_iso_exit_codes(files, capsys):
    code, doc = run_json(capsys, ["iso", files["d"], files["d"]])
    assert code == 0 and doc["isomorphic"] is True
    assert doc["witness"]["verified_hom"] is True
    code, doc = run_json(capsys, ["iso", files["d"], files["rep"]])
    assert code == 1 and doc["isomorphic"] is False


def test_iso_swapped_sum_presentations(tmp_path, capsys):
    d_words = [[0, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]]
    rep_words = [[0, 0, 0], [1, 1, 1]]
    left = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 6, "group": True,
            "codewords": [d + r for d in d_words for r in rep_words]}
    right = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 6, "group": True,
             "codewords": [r + d for d in d_words for r in rep_words]}
    pa, pb = tmp_path / "left.json", tmp_path / "right.json"
    pa.write_text(json.dumps(left))
    pb.write_text(json.dumps(right))
    code, doc = run_json(capsys, ["iso", str(pa), str(pb)])
    assert code == 0 and doc["isomorphic"] is True
    assert doc["witness"]["verified_hom"] is True


def test_iso_plain_codes_use_equivalence(tmp_path, capsys):
    a = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2,
         "codewords": [[0, 1], [1, 0]]}
    b = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2,
         "codewords": [[0, 0], [1, 1]]}
    c = {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2,
         "codewords": [[0, 0], [0, 1], [1, 0]]}
    paths = {}
    for name, doc in [("a", a), ("b", b), ("c", c)]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    code, doc = run_json(capsys, ["iso", paths["a"], paths["b"]])
    assert code == 0 and doc["isomorphic"] is True
    assert "verified_hom" not in doc["witness"]  # plain equivalence witness
    code, doc = run_json(capsys, ["iso", paths["a"], paths["c"]])
    assert code == 1


def test_iso_alphabet_mismatch_is_input_error(files, tmp_path, capsys):
    p = tmp_path / "z3rep.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 3},
                             "length": 3,
                             "codewords": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
                             "group": True}))
    assert main(["iso", files["d"], str(p)]) == 2


def test_theorem_violation_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    from groupcodes.cli import EXIT_INTERNAL
    from groupcodes.isomorphy import GroupCodeIso
    gens = {"d_rep": [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]],
            "rep_d": [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1]]}
    paths = []
    for name, rows in gens.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 6,
                                 "generators": rows, "group": True}))
        paths.append(str(p))
    assert main(["iso", *paths]) == 0
    capsys.readouterr()
    # a witness the search accepted but the re-check rejects is a program bug
    monkeypatch.setattr(GroupCodeIso, "verify", lambda self, pair_check=None: False)
    code = main(["iso", *paths])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL == 4
    assert captured.out == "" and "internal error" in captured.err


def test_aut_command(files, capsys):
    code, doc = run_json(capsys, ["aut", files["d"], "--with-structure"])
    assert code == 0
    assert doc["order"] == 6
    assert doc["structure"] == [{"isotype": 0, "component_aut_order": 6, "alpha": 1}]
    assert doc["elements"] is not None and len(doc["elements"]) == 6


def test_aut_requires_group_code(tmp_path, capsys):
    p = tmp_path / "plain.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 2},
                             "length": 2, "codewords": [[0, 1], [1, 0]]}))
    assert main(["aut", str(p)]) == 2


def test_interleave_rows_match_reference(files, capsys):
    code, doc = run_json(capsys, ["interleave", files["d"], "--copies", "2"])
    assert code == 0
    assert doc["sigma"] == [1, 3, 5, 2, 4, 6]
    assert doc["convention"] == "push"
    assert doc["is_cyclic"] is True
    rows = {tuple(r["from"]): tuple(r["to"]) for r in doc["rows"]}
    assert rows[(1, 0, 1, 0, 1, 1)] == (1, 0, 0, 1, 1, 1)
    assert len(rows) == 16


def test_join_command(files, tmp_path, capsys):
    p = tmp_path / "z3rep2.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 3},
                             "length": 3,
                             "codewords": [[0, 0, 0], [1, 1, 1], [2, 2, 2]],
                             "group": True}))
    code, doc = run_json(capsys, ["join", files["rep"], str(p)])
    assert code == 0
    result = doc["result"]
    assert result["alphabet"]["order"] == 6
    assert len(result["codewords"]) == 6


def test_selftest_quick(capsys):
    assert main(["selftest", "--trials", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 9 and "FAIL" not in out


def test_threads_is_an_unknown_option(files, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", files["d"], "--threads", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


# each verb's flags beyond --help: exactly the ones its command reads
VERB_FLAGS = {
    "analyze": {"--format", "--max-partition-bits", "--max-search", "--center-cap",
                "--oracle", "--timings"},
    "decompose": {"--max-partition-bits", "--max-search", "--timings"},
    "aut": {"--with-structure", "--max-partition-bits", "--max-search", "--timings"},
    "iso": {"--max-search", "--timings"},
    "interleave": {"--copies", "--timings"},
    "join": {"--timings"},
    "selftest": {"--trials", "--seed", "--oracle", "--timings"},
}


def test_each_verb_takes_only_the_flags_it_reads(files, capsys):
    from groupcodes.cli import build_parser
    verbs = next(action.choices for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    taken = {verb: {flag for action in p._actions for flag in action.option_strings}
             - {"-h", "--help"} for verb, p in verbs.items()}
    assert taken == VERB_FLAGS
    assert sum(map(len, taken.values())) == 22
    # a flag the verb never reads is unknown to it, as any other is
    for argv, unknown in [
        (["iso", files["d"], files["rep"], "--seed", "1"], "--seed 1"),
        (["decompose", files["d"], "--oracle"], "--oracle"),
        (["aut", files["d"], "--center-cap", "8"], "--center-cap 8"),
        (["join", files["rep"], files["rep"], "--max-search", "5"], "--max-search 5"),
        (["interleave", files["d"], "--copies", "2", "--max-partition-bits", "2"],
         "--max-partition-bits 2"),
        (["selftest", "--format", "text"], "--format text"),
        # only analyze has a text report
        (["decompose", files["d"], "--format", "text"], "--format text"),
        (["aut", files["d"], "--format", "text"], "--format text"),
        (["iso", files["d"], files["rep"], "--format", "text"], "--format text"),
        (["interleave", files["d"], "--copies", "2", "--format", "text"], "--format text"),
        (["join", files["rep"], files["rep"], "--format", "text"], "--format text"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {unknown}" in capsys.readouterr().err


def test_emitted_code_json_reparses(files, capsys):
    from groupcodes import serialize as ser
    code, doc = run_json(capsys, ["interleave", files["d"], "--copies", "2"])
    assert code == 0
    again = ser.code_from_json(doc["result"])
    assert again.size == 16
    assert ser.code_to_json(again) == doc["result"]


def test_parser_built_once_leaks_no_state_between_calls(files, capsys):
    calls = [["aut", files["d"], "--with-structure"], ["aut", files["d"]],
             ["analyze", files["z4"], "--format", "text"], ["analyze", files["z4"]],
             ["interleave", files["d"], "--copies", "2"], ["iso", files["d"], files["rep"]],
             ["aut", files["d2"], "--timings"], ["interleave", files["rep"], "--copies", "3"],
             ["decompose", files["d2"], "--max-partition-bits", "2"],
             ["join", files["rep"], files["rep"]],
             ["analyze", files["d"], "--max-partition-bits", "2"], ["aut", files["d"]]]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append((main(argv), capsys.readouterr().out))
    shared = [(main(argv), capsys.readouterr().out) for argv in calls]
    assert shared == fresh
    assert cli._parser() is cli._parser()


@pytest.mark.parametrize("argv,phases", [
    (["analyze", "z4"], ["load", "parameters", "classification", "certificates",
                         "decomposition", "cyclic", "report"]),
    (["decompose", "d2"], ["load", "compute", "report"]),
    (["aut", "d"], ["load", "decompose", "search", "elements", "generators", "report"]),
    (["aut", "d2", "--with-structure"], ["load", "decompose", "search", "elements",
                                         "generators", "structure", "report"]),
    (["iso", "d", "rep"], ["load", "compute", "report"]),
    (["interleave", "d", "--copies", "2"], ["load", "compute", "report"]),
    (["join", "rep", "d"], ["load", "compute", "report"]),
    (["selftest", "--trials", "1"], ["compute"]),
])
def test_timings_on_every_verb_leave_stdout_alone(files, capsys, argv, phases):
    argv = [files.get(a, a) for a in argv]
    code = main(argv)
    plain = capsys.readouterr()
    assert main(argv + ["--timings"]) == code
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert "timing" not in plain.err
    rows = [line for line in timed.err.splitlines() if line.startswith("timing ")]
    assert [row.split(":")[0][len("timing "):] for row in rows] == phases


@pytest.mark.parametrize("doc", [
    {"alphabet": {"kind": "cyclic", "modulus": True}, "length": 1, "codewords": [[0]]},
    {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": True, "codewords": [[0]]},
    {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2, "group": "false",
     "codewords": [[0, 1], [1, 0]]},
])
def test_analyze_rejects_bool_ints_and_non_bool_group(tmp_path, capsys, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["analyze", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("doc,field", [
    ({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2,
      "codewords": [[True, 0], [0.7, 1]]}, "codewords"),
    ({"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 2, "group": True,
      "generators": [[True, 1.5]]}, "generators"),
    ({"alphabet": {"kind": "table", "table": [[0, 1], [1, 0.9]]}, "length": 1,
      "codewords": [[0]]}, "alphabet.table"),
])
def test_analyze_rejects_non_int_symbols(tmp_path, capsys, doc, field):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["analyze", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}:")


PLAIN_DOC = {"alphabet": {"kind": "cyclic", "modulus": 4}, "length": 3,
             "codewords": [[0, 0, 0], [1, 2, 3], [2, 3, 1], [3, 1, 1], [0, 2, 2]]}


@pytest.mark.parametrize("name,oracle,scans", [
    ("plain", False, 1),   # parameters, classify, certificates and decompose share one
    ("plain", True, 2),    # the covering oracle scans on its own
    ("d", False, 0),       # a group code reads its weight distribution
    ("d", True, 1),        # the covering and the weight-scan oracles share one
])
def test_analyze_scans_the_distance_once_per_code(files, tmp_path, capsys, monkeypatch,
                                                  name, oracle, scans):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps(PLAIN_DOC), encoding="utf-8")
    files = {**files, "plain": str(path)}
    calls = counted_scans(monkeypatch)
    code, doc = run_json(capsys, ["analyze", files[name]] + ["--oracle"] * oracle)
    assert code == 0
    assert len(doc["decomposition"]["blocks"]) == 1
    assert len(calls) == scans


def counted_scans(monkeypatch) -> list:
    """Patch every ``min_distance`` of the package to log the words it scans."""
    from groupcodes import codes
    calls = []
    original = codes.min_distance

    def counted(C):
        calls.append(C.words)
        return original(C)

    for mod in [m for key, m in sys.modules.items() if key.startswith("groupcodes")]:
        if getattr(mod, "min_distance", None) is original:
            monkeypatch.setattr(mod, "min_distance", counted)
    return calls


def test_equal_components_share_one_distance_scan(tmp_path, capsys, monkeypatch):
    # D ⊕ D as a plain code: the sum and D are the only word sets scanned
    words = [x + y for x in D_DOC["codewords"] for y in D_DOC["codewords"]]
    path = tmp_path / "dd.json"
    path.write_text(json.dumps({"alphabet": D_DOC["alphabet"], "length": 6,
                                "codewords": words}), encoding="utf-8")
    calls = counted_scans(monkeypatch)
    code, doc = run_json(capsys, ["analyze", str(path)])
    assert code == 0
    assert doc["decomposition"]["blocks"] == [[1, 2, 3], [4, 5, 6]]
    assert len(calls) == len(set(calls)) == 2


@pytest.mark.parametrize("exc", [KeyError("boom"), RecursionError("deep")])
def test_an_unexpected_exception_is_an_internal_error(files, capsys, monkeypatch, exc):
    def crash(args, phases):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "analyze", crash)
    assert main(["analyze", files["d"]]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error:")
    assert "Traceback" in captured.err and type(exc).__name__ in captured.err


@pytest.mark.parametrize("exc", [KeyboardInterrupt(), SystemExit(7)])
def test_interrupts_and_exits_pass_through(files, monkeypatch, exc):
    def stop(args, phases):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "analyze", stop)
    with pytest.raises(type(exc)):
        main(["analyze", files["d"]])


@pytest.mark.parametrize("exc,status,prefix", [
    (SchemaError("not an int", field="length"), 2, "error: "),
    (PreconditionError("needs a cyclic code"), 2, "error: "),
    (IncompatibleError("lengths 3 and 4"), 2, "error: "),
    (InvalidWordError("symbol 7 outside Z/2"), 2, "error: "),
    (ClosureError("not a subgroup", witness=((0, 1),)), 2, "error: "),
    (ResourceLimitError("search capped"), 3, "error: "),
    (TheoremViolationError("product formula failed"), 4, "internal error: "),
    (KeyError("boom"), 4, "internal error:\n"),
], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
def test_each_error_type_has_its_exit_code_and_prefix(files, capsys, monkeypatch, exc,
                                                      status, prefix):
    def fail(args, phases):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "analyze", fail)
    assert main(["analyze", files["d"]]) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    if not isinstance(exc, KeyError):
        assert captured.err == f"{prefix}{exc}\n"


# stdout digests recorded from the O(|C|·n²) orbit walk and the
# binomial-per-sphere ball size, which took over 20 s on each of these
# codes on a 2-vCPU VM
@pytest.mark.parametrize("modulus,group,digest", [
    (2, True, "f37079e7bed28b38484a14a13d59c41902bff4889b8bb26845ca334d343b69fe"),
    (4, False, "9091f637726306d7845ae01048ff4b3e001cfe37cf36abb7a92f978912f66816"),
], ids=["binary-repetition", "z4-plain"])
def test_analyze_is_fast_on_long_codes(tmp_path, capsys, modulus, group, digest):
    n = 16000
    p = tmp_path / "long.json"
    p.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": modulus}, "length": n,
                             "codewords": [[s] * n for s in range(modulus)],
                             "group": group}), encoding="utf-8")
    start = time.perf_counter()
    code = main(["analyze", str(p)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 3  # the decomposition is past --max-partition-bits
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 5
