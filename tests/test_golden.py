"""Golden-output guard: the SHA-256 of stdout and the exit code of every verb
on a small fixed corpus, recorded in ``tests/data/golden_digests.json``.

Reports are promised byte-identical from release to release, so any change
to a digest is a change of the output format and must be deliberate. To
record the digests again after such a change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from groupcodes.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "golden_digests.json"


def cyclic_doc(m: int, n: int, words, group: bool = True) -> dict:
    doc = {"alphabet": {"kind": "cyclic", "modulus": m}, "length": n,
           "codewords": [list(w) for w in words]}
    if group:
        doc["group"] = True
    return doc


def scrambled_sum(m: int, parts, seed: int) -> dict:
    """Direct sum of word lists over Z/m, with its coordinates permuted and
    each coordinate relabelled by a unit multiple (an automorphism of Z/m)."""
    words = [sum(combo, ()) for combo in itertools.product(*parts)]
    n = len(words[0])
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    units = [u for u in range(1, m) if all((u * k) % m for k in range(1, m))]
    mult = [rng.choice(units) for _ in range(n)]
    return cyclic_doc(m, n, sorted(tuple((mult[j] * w[perm[j]]) % m for j in range(n))
                                   for w in words))


D = [(0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1)]
REP2 = [(0, 0), (1, 1)]
REP3 = [(0, 0, 0), (1, 1, 1)]
Z3_SUM0 = [(a, b, (-a - b) % 3) for a in range(3) for b in range(3)]
Z3_REP2 = [(a, a) for a in range(3)]
Z4_HALF = [(0, 0), (2, 2)]
Z4_REP2 = [(a, a) for a in range(4)]

CORPUS = {
    # the documents of tests/test_cli.py
    "z4": {"alphabet": {"kind": "cyclic", "modulus": 4}, "length": 3,
           "generators": [[2, 0, 0], [1, 2, 1]], "group": True},
    "d": cyclic_doc(2, 3, D),
    "rep": cyclic_doc(2, 3, REP3),
    "d2": {"alphabet": {"kind": "cyclic", "modulus": 2}, "length": 6,
           "generators": [[1, 1, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0],
                          [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 1, 1]], "group": True},
    "z3rep": cyclic_doc(3, 3, [(a, a, a) for a in range(3)]),
    "plain_a": cyclic_doc(2, 2, [(0, 1), (1, 0)], group=False),
    "plain_b": cyclic_doc(2, 2, [(0, 0), (1, 1)], group=False),
    "left": cyclic_doc(2, 6, [d + r for d in D for r in REP3]),
    "right": cyclic_doc(2, 6, [r + d for d in D for r in REP3]),
    # scrambled direct sums
    "d_rep3": scrambled_sum(2, [D, REP3], 1),
    "z3_sum0_rep2": scrambled_sum(3, [Z3_SUM0, Z3_REP2], 2),
    "z4_halves_rep": scrambled_sum(4, [Z4_HALF, Z4_HALF, Z4_REP2], 3),
    "d_d_rep2": scrambled_sum(2, [D, D, REP2], 4),
    "z4_half4": scrambled_sum(4, [Z4_HALF] * 4, 5),   # order 98304: generators only
}

CASES = {
    "analyze": ["analyze", "z4"],
    "analyze_rep": ["analyze", "rep"],
    "analyze_d_rep3": ["analyze", "d_rep3"],
    "analyze_plain": ["analyze", "plain_a"],
    "analyze_oracle": ["analyze", "rep", "--oracle"],
    "analyze_capped": ["analyze", "d", "--max-partition-bits", "2"],
    "decompose": ["decompose", "d2"],
    "decompose_z3": ["decompose", "z3_sum0_rep2"],
    "decompose_z4": ["decompose", "z4_halves_rep"],
    "aut": ["aut", "d"],
    "aut_d_rep3": ["aut", "d_rep3"],
    "aut_z3": ["aut", "z3_sum0_rep2"],
    "aut_z4": ["aut", "z4_halves_rep"],
    "aut_d_d_rep2": ["aut", "d_d_rep2"],
    "aut_large": ["aut", "z4_half4"],
    "aut_capped": ["aut", "d2", "--max-search", "5"],
    "aut_plain": ["aut", "plain_a"],
    "aut_structure": ["aut", "d", "--with-structure"],
    "aut_structure_d_d_rep2": ["aut", "d_d_rep2", "--with-structure"],
    "aut_structure_z4": ["aut", "z4_halves_rep", "--with-structure"],
    "iso": ["iso", "d", "d"],
    "iso_negative": ["iso", "d", "rep"],
    "iso_swapped": ["iso", "left", "right"],
    "iso_plain": ["iso", "plain_a", "plain_b"],
    "iso_mismatch": ["iso", "d", "z3rep"],
    "interleave": ["interleave", "d", "--copies", "2"],
    "interleave_rep": ["interleave", "rep", "--copies", "3"],
    "join": ["join", "rep", "z3rep"],
}
CASES.update({f"{name}_text": argv + ["--format", "text"]
              for name, argv in list(CASES.items())})


def run_case(argv: list[str], directory: Path) -> dict:
    """Exit code and stdout digest of one in-process CLI call; corpus names
    in ``argv`` become paths of files written to ``directory``."""
    resolved = []
    for arg in argv:
        if arg in CORPUS:
            path = directory / f"{arg}.json"
            if not path.exists():
                path.write_text(json.dumps(CORPUS[arg]), encoding="utf-8")
            arg = str(path)
        resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_cases_cover_the_recorded_set():
    assert sorted(CASES) == sorted(json.loads(DIGESTS.read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(CASES[name], Path(tmp)) for name in sorted(CASES)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
