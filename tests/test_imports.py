"""What the program loads: never numpy, the self test only for its verb,
and the automorphism assembly only for `aut`; each run check runs in a
fresh interpreter. And what each module's annotations read: names the
module binds."""

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
sys.path.insert(0, str(SRC.parent / "perfbench"))
import gen  # noqa: E402

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


LOADED_RUN = """
import contextlib, io, json, sys
import groupcodes.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = groupcodes.cli.main(sys.argv[1:])
print(json.dumps([code, "groupcodes.autgroup" in sys.modules]))
"""


def test_only_aut_loads_the_automorphism_assembly(tmp_path):
    def first(workload: str, verb: str) -> list[str]:
        req = next(r for r in gen.Stream(workload, 1).round(0) if r.verb == verb)
        paths = []
        for j, doc in enumerate(req.docs):
            paths.append(str(tmp_path / f"{verb}-{j}.json"))
            Path(paths[-1]).write_text(gen.dumps(doc), encoding="utf-8")
        return [verb] + paths + req.flags

    aut = first("aut-search", "aut")
    argvs = [first("analyze-mix", "analyze"), first("decompose-large", "decompose"),
             ["iso", aut[1], aut[1]], first("analyze-mix", "interleave"),
             first("analyze-mix", "join"), aut]
    loaded = [json.loads(run(LOADED_RUN, *argv)) for argv in argvs]
    assert loaded == [[0, False]] * 5 + [[0, True]]


def test_the_traced_names_stay_in_isomorphy():
    # perfbench/tracing.py wraps the public functions of each layer module
    # and _IsoSearch.run by name; they must stay where it looks
    from groupcodes import isomorphy
    for fn in (isomorphy.aut_group, isomorphy.gc_isomorphic, isomorphy._IsoSearch.run):
        assert fn.__module__ == "groupcodes.isomorphy"
    assert "run" in vars(isomorphy._IsoSearch)


def annotation_names(node: ast.expr | None) -> list[tuple[str, int]]:
    """The names an annotation reads, with their lines: the root of each
    dotted name, and the names inside string annotations."""
    found = []
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Name):
            found.append((sub.id, sub.lineno))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            inner = ast.parse(sub.value, mode="eval").body
            found += [(name, sub.lineno) for name, _ in annotation_names(inner)]
    return found


def module_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level, in any branch: imports,
    functions, classes and assignment targets."""
    bound: set[str] = set()
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack += getattr(node, field, [])
    return bound


def test_every_annotation_name_is_bound_in_its_module():
    # with postponed annotations nothing evaluates a local variable's
    # annotation, so a name missing from the module fails only a reader
    import builtins
    unbound = []
    for path in sorted((SRC / "groupcodes").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        bound = module_bindings(tree) | set(dir(builtins))
        annotations = []
        for node in ast.walk(tree):
            if isinstance(node, ast.arg):
                annotations.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                annotations.append(node.returns)
            elif isinstance(node, ast.AnnAssign):
                annotations.append(node.annotation)
        unbound += [f"{path.name}:{line} {name}" for ann in annotations
                    for name, line in annotation_names(ann) if name not in bound]
    assert unbound == []
