"""Golden-output guard: the SHA-256 of stdout and the exit code of every verb
on a small fixed corpus, recorded in ``tests/data/golden_digests.json``.

Reports are promised byte-identical from release to release, so any change
to a digest is a change of the output format and must be deliberate. Every
case also runs with ``--format text``: a verb whose parser has that flag
has the text report's digest recorded, and any other verb must refuse the
flag (exit 2, nothing on stdout). To record the digests again after such a
change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import argparse
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

from groupcodes.cli import build_parser, main

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

# V4 = Z/2 x Z/2 as a "product" alphabet, (a, b) encoded as 2a + b, so the
# product is XOR; S3 as a "table" alphabet, the permutations of {0, 1, 2} in
# lexicographic order composed right to left, with A3 = {0, 3, 4}
V4 = {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2}] * 2}
S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1], [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]
S3 = {"kind": "table", "table": S3_TABLE, "label": "S3"}
A3 = (0, 3, 4)


def conjugate(x: int) -> int:
    """x under the inner automorphism of S3 by the transposition 1."""
    return S3_TABLE[S3_TABLE[1][x]][1]


def group_doc(alphabet: dict, words) -> dict:
    words = sorted(tuple(w) for w in words)
    return {"alphabet": alphabet, "length": len(words[0]),
            "codewords": [list(w) for w in words], "group": True}


def v4_relabel(words, perm, autos) -> list:
    """Words over V4 with coordinates permuted and relabelled by automorphisms."""
    return [tuple(autos[j][w[perm[j]]] for j in range(len(perm))) for w in words]


V4_SUM0 = [(a, b, a ^ b) for a in range(4) for b in range(4)]
V4_REP2 = [(a, a) for a in range(4)]
V4_ID, V4_SWAP, V4_SHEAR = (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)
S3_DIAG2 = [(a, a) for a in range(6)]

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
    # product and non-abelian alphabets
    "v4rep": group_doc(V4, [(a, a, a) for a in range(4)]),
    "v4sum0": group_doc(V4, V4_SUM0),
    "v4_mix": group_doc(V4, v4_relabel([x + y for x in V4_SUM0 for y in V4_REP2],
                                       (3, 0, 4, 1, 2),
                                       (V4_SWAP, V4_ID, V4_SHEAR, V4_SWAP, V4_ID))),
    "v4_mix_b": group_doc(V4, [x + y for x in V4_SUM0 for y in V4_REP2]),
    "s3_diag": group_doc(S3, [(a, a, a) for a in range(6)]),
    "s3_diag_conj": group_doc(S3, [(a, conjugate(a), a) for a in range(6)]),
    "s3_pad": group_doc(S3, [(a, a, 0) for a in range(6)]),
    "s3_gens": {"alphabet": S3, "length": 3, "generators": [[1, 1, 1], [3, 3, 3]],
                "group": True},
    "s3_a3": group_doc(S3, [(a, b, b) for a in A3 for b in range(6)]),
    "s3_a3_perm": group_doc(S3, [(b, a, b) for a in A3 for b in range(6)]),
    # the trivial Z/4 code of length 4 (order 31104: generators only), a
    # repeated S3 isotype with conjugated coordinates, and a V4 sum with a
    # zero coordinate
    "z4_trivial4": cyclic_doc(4, 4, [(0, 0, 0, 0)]),
    "s3_diag2_twice": group_doc(S3, [(conjugate(x[1]), y[0], x[0], conjugate(y[1]))
                                     for x in S3_DIAG2 for y in S3_DIAG2]),
    "v4_zero": group_doc(V4, v4_relabel([x + y + (0,) for x in V4_REP2 for y in V4_REP2],
                                        (2, 4, 0, 3, 1),
                                        (V4_SHEAR, V4_ID, V4_SWAP, V4_ID, V4_SHEAR))),
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
    "analyze_v4": ["analyze", "v4_mix"],
    "analyze_s3_diag": ["analyze", "s3_diag"],
    "analyze_s3_gens": ["analyze", "s3_gens"],
    "analyze_s3_a3": ["analyze", "s3_a3"],
    "decompose_v4": ["decompose", "v4_mix"],
    "decompose_s3_a3": ["decompose", "s3_a3"],
    "aut_v4": ["aut", "v4_mix"],
    "aut_s3_diag": ["aut", "s3_diag"],
    "aut_s3_a3": ["aut", "s3_a3"],
    "aut_structure_v4": ["aut", "v4_mix", "--with-structure"],
    "aut_structure_s3_a3": ["aut", "s3_a3", "--with-structure"],
    "aut_z4_trivial4": ["aut", "z4_trivial4"],
    "aut_s3_twice": ["aut", "s3_diag2_twice"],
    "aut_structure_s3_twice": ["aut", "s3_diag2_twice", "--with-structure"],
    "aut_v4_zero": ["aut", "v4_zero"],
    "aut_structure_v4_zero": ["aut", "v4_zero", "--with-structure"],
    "iso_v4": ["iso", "v4_mix", "v4_mix_b"],
    "iso_s3_conj": ["iso", "s3_diag", "s3_diag_conj"],
    "iso_s3_perm": ["iso", "s3_a3", "s3_a3_perm"],
    "iso_s3_negative": ["iso", "s3_diag", "s3_pad"],
    "interleave_v4": ["interleave", "v4rep", "--copies", "2"],
    "join_v4": ["join", "v4sum0", "v4rep"],
}
TEXT_VERBS = {verb for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)
              for verb, p in action.choices.items()
              if any("--format" in a.option_strings for a in p._actions)}
REFUSED = {f"{name}_text" for name, argv in CASES.items() if argv[0] not in TEXT_VERBS}
REFUSAL = {"exit": 2, "sha256": hashlib.sha256(b"").hexdigest()}
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
        try:
            code = main(resolved)
        except SystemExit as usage_error:  # argparse: a flag the verb lacks
            code = usage_error.code
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_golden_cases_cover_the_recorded_set():
    assert TEXT_VERBS == {"analyze"}
    assert sorted(set(CASES) - REFUSED) == sorted(json.loads(DIGESTS.read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    expected = REFUSAL if name in REFUSED else json.loads(
        DIGESTS.read_text(encoding="utf-8"))[name]
    assert run_case(CASES[name], tmp_path) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: run_case(CASES[name], Path(tmp))
                   for name in sorted(set(CASES) - REFUSED)}
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
