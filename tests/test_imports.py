"""What the program loads: never numpy, and the self test only for its
verb; each run check runs in a fresh interpreter."""

from __future__ import annotations

import ast
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

D = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]


def run(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


CLI_RUN = """
import contextlib, io, json, sys
import groupcodes.cli
{patch}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = groupcodes.cli.main(sys.argv[1:])
print(json.dumps({{"exit": code, "numpy": "numpy" in sys.modules, "stdout": out.getvalue()}}))
"""


def cli_run(argv: list[str], patch: str = "") -> dict:
    return json.loads(run(CLI_RUN.format(patch=patch), *argv))


def test_cli_import_leaves_numpy_unloaded():
    assert run("import sys, groupcodes.cli; print('numpy' in sys.modules)") == "False\n"


def test_cli_import_leaves_selftest_and_catalog_unloaded():
    assert run("import sys, groupcodes.cli; "
               "print([m for m in ('groupcodes.selftest', 'groupcodes.catalog') "
               "if m in sys.modules])") == "[]\n"


def test_aut_on_a_code_of_64_words_runs_without_numpy(tmp_path):
    # over Z/2, |Aut(D)| = |Aut(R3)| = 3! = 6: D + D + R3 has 32 words and
    # 6^2 * 2! * 6 automorphisms; D + D + D has 64 words and 6^3 * 3!
    for parts, order in (([D, D, [(0, 0, 0), (1, 1, 1)]], 432), ([D, D, D], 1296)):
        words = [sum(combo, ()) for combo in itertools.product(*parts)]
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"alphabet": {"kind": "cyclic", "modulus": 2},
                                    "length": len(words[0]), "group": True,
                                    "codewords": [list(w) for w in words]}))
        got = cli_run(["aut", str(path), "--with-structure"])
        assert got["exit"] == 0 and not got["numpy"]
        assert json.loads(got["stdout"])["order"] == order


def scrambled_d4() -> tuple[list, list]:
    """D^4 over Z/2 (256 words) with its coordinates permuted, and the
    blocks the permutation makes of D's four copies, 1-based."""
    words = [sum(combo, ()) for combo in itertools.product(D, repeat=4)]
    perm = list(range(12))
    random.Random(4).shuffle(perm)
    scrambled = sorted(tuple(w[perm[j]] for j in range(12)) for w in words)
    inv = {i: j for j, i in enumerate(perm)}
    blocks = sorted(sorted(inv[i] + 1 for i in range(3 * k, 3 * k + 3)) for k in range(4))
    return scrambled, blocks


def test_no_module_imports_numpy():
    found = []
    for path in sorted((SRC / "groupcodes").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "numpy"]
    assert found == []


VERBS_RUN = """
import contextlib, io, json, sys
import groupcodes.cli
{patch}
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = groupcodes.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({{"numpy": "numpy" in sys.modules, "runs": runs}}))
"""


def test_no_verb_loads_numpy_above_64_words_and_packed_kernels_match_the_tuple_path(tmp_path):
    words, blocks = scrambled_d4()
    for group in (True, False):
        (tmp_path / f"d4_{group}.json").write_text(json.dumps(
            {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 12, "group": group,
             "codewords": [list(w) for w in words]}))
    # the even-weight code of length 8: cyclic, 128 words
    even = [list(w) for w in itertools.product((0, 1), repeat=8) if sum(w) % 2 == 0]
    (tmp_path / "even8.json").write_text(json.dumps(
        {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 8, "group": True,
         "codewords": even}))
    group, plain, cyclic = (str(tmp_path / name)
                            for name in ("d4_True.json", "d4_False.json", "even8.json"))
    argvs = [["analyze", group], ["decompose", group], ["aut", group, "--with-structure"],
             ["iso", group, group], ["analyze", plain], ["decompose", plain],
             ["iso", plain, plain], ["interleave", cyclic, "--copies", "2"],
             ["join", cyclic, cyclic], ["selftest", "--trials", "1"]]
    got = json.loads(run(VERBS_RUN.format(patch=""), json.dumps(argvs)))
    assert not got["numpy"]
    assert [code for code, _ in got["runs"]] == [0] * len(argvs)
    for _, stdout in got["runs"][1], got["runs"][5]:
        report = json.loads(stdout)
        assert report["blocks"] == blocks
        assert [iso["alpha"] for iso in report["isotypes"]] == [4]
    assert json.loads(got["runs"][1][1])["certificates"] == ["mds-nontrivial"] * 4
    assert json.loads(got["runs"][0][1])["parameters"]["min_distance"] == 2
    assert json.loads(got["runs"][4][1])["parameters"]["min_distance"] == 2
    # the same bytes with every kernel on its word-tuple path
    tuples = json.loads(run(VERBS_RUN.format(patch=(
        "import importlib\n"
        "for name in ('groupcodes.codes', 'groupcodes.decompose'):\n"
        "    importlib.import_module(name).PACKED_ABOVE_WORDS = 10**9\n")), json.dumps(argvs)))
    assert tuples == got
