"""Tests of the benchmark itself: inputs, checks, failure accounting, tracing.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from groupcodes import cli  # noqa: E402


def written_files(tmp: Path, workload: str, seed: int, rounds: int = 2) -> dict:
    inputs = run.Inputs(gen.Stream(workload, seed), tmp)
    tmp.mkdir()
    inputs.make(rounds - 1)
    return {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = written_files(tmp_path / "a", workload, 7)
    again = written_files(tmp_path / "b", workload, 7)
    other = written_files(tmp_path / "c", workload, 8)
    assert first and first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_no_request_repeats_within_a_run(workload):
    stream = gen.Stream(workload, 3)
    keys = [req.key() for r in range(4) for req in stream.round(r)]
    assert len(keys) == len(set(keys))


def test_rounds_made_lazily_match_rounds_made_up_front():
    ahead = gen.Stream("aut-search", 5)
    upfront = [[req.key() for req in ahead.round(r)] for r in range(3)]
    lazy = gen.Stream("aut-search", 5)
    assert [[req.key() for req in lazy.round(r)] for r in range(3)] == upfront


def test_alternating_slot_takes_turns():
    stream = gen.Stream("decompose-large", 1)
    heavy = [stream.round(r)[-1].label for r in range(4)]
    assert heavy == ["decompose D+D+D+D+D+D", "decompose indecomposable n=16"] * 2


def test_brute_force_orders_of_known_components():
    assert gen.aut_order(gen.D) == 6          # Sym(3) on the even-weight [3,2] code
    assert gen.aut_order(gen.H) == 168        # GL(3,2) on the Hamming [7,4] code
    assert gen.aut_order(gen.rep(gen.Z3, 2)) == 4
    assert gen.aut_order(gen.Z4_HALF) == 8    # swap, times 2! off {0,2} per coordinate


def test_certificate_free_codes_are_indecomposable_by_exhaustive_search():
    import itertools
    import random
    rng = random.Random(1)
    for n in (6, 8):
        words = gen.certificate_free_binary(rng, n, k=4)
        for s in range(1, n):
            for rest in itertools.combinations(range(1, n), s - 1):
                J = (0,) + rest
                K = [i for i in range(n) if i not in J]
                pj = {tuple(w[i] for i in J) for w in words}
                pk = {tuple(w[i] for i in K) for w in words}
                assert len(pj) * len(pk) != len(words)


# checks ---------------------------------------------------------------------

def genuine(workload: str, label_prefix: str, tmp: Path):
    """A request from the workload's first round and the program's reply."""
    tmp.mkdir(exist_ok=True)
    inputs = run.Inputs(gen.Stream(workload, 1), tmp)
    for req, argv in inputs.make(0):
        if req.label.startswith(label_prefix):
            code, stdout, _ = run.call(cli, argv)
            assert check.judge(req, code, stdout) == ("ok", None)
            return req, code, json.loads(stdout)
    raise AssertionError(f"no {label_prefix!r} request in round 0")


def corrupted(req, code: int, report: dict, edit) -> tuple:
    bad = copy.deepcopy(report)
    edit(bad)
    return check.judge(req, code, json.dumps(bad))


def test_analyze_check_rejects_wrong_distance_and_class(tmp_path):
    req, code, report = genuine("analyze-mix", "plain", tmp_path)

    def bump(r):
        r["parameters"]["min_distance"] += 1
    assert corrupted(req, code, report, bump)[0] == "wrong"

    def flip(r):
        r["classification"]["is_perfect"] = not r["classification"]["is_perfect"]
    assert corrupted(req, code, report, flip)[0] == "wrong"


def test_decompose_check_rejects_wrong_partition_and_isotypes(tmp_path):
    req, code, report = genuine("decompose-large", "decompose D+D+D+D", tmp_path)

    def merge(r):
        r["blocks"] = [r["blocks"][0] + r["blocks"][1]] + r["blocks"][2:]
    assert corrupted(req, code, report, merge)[0] == "wrong"

    def alpha(r):
        r["isotypes"][0]["alpha"] -= 1
    assert corrupted(req, code, report, alpha)[0] == "wrong"


def test_aut_check_rejects_wrong_order(tmp_path):
    req, code, report = genuine("aut-search", "aut D+R3", tmp_path)

    def order(r):
        r["order"] *= 2
    assert corrupted(req, code, report, order)[0] == "wrong"


def test_interleave_and_join_checks_reject_a_missing_word(tmp_path):
    for prefix in ("interleave", "join"):
        req, code, report = genuine("analyze-mix", prefix, tmp_path / prefix)

        def drop(r):
            r["result"]["codewords"] = r["result"]["codewords"][1:]
        assert corrupted(req, code, report, drop)[0] == "wrong"


# failure accounting -----------------------------------------------------------

def test_cap_hits_and_wrong_answers_both_count_as_failed(tmp_path):
    req, code, report = genuine("aut-search", "aut D+D+R2", tmp_path)
    inputs = run.Inputs(gen.Stream("aut-search", 1), tmp_path)
    argv = next(a for r, a in inputs.make(0) if r.label == req.label)
    capped = run.call(cli, argv + ["--max-search", "5"])
    assert capped[0] == check.EXIT_RESOURCE
    assert check.judge(req, capped[0], capped[1])[0] == "cap"

    statuses = ["ok", "ok", "cap", "wrong"]
    records = [{"dt": 0.01 * (i + 1), "status": s, "round": 0, "round_done": i == 3}
               for i, s in enumerate(statuses)]
    metrics = run.end_to_end(records, setup_s=0.5)
    assert metrics["answered_frac"] == (0.5, "ratio")
    assert metrics["ops_per_s"] == (4 / 0.1, "1/s")
    assert check.judge(req, 2, "")[0] == "wrong"          # unexpected exit code


def test_upper_percentile_keeps_ten_samples_above():
    values = [float(i) for i in range(50)]
    value, level = run.upper_percentile(values)
    assert value == 39.0 and sum(v > value for v in values) == 10 and level == 80.0
    values = [float(i) for i in range(200)]
    value, level = run.upper_percentile(values)
    assert level == 90.0 and sum(v > value for v in values) == 20


# tracing ----------------------------------------------------------------------

def test_tracer_restores_the_program_and_keeps_output_identical(tmp_path):
    import tracing
    codes, classify = sys.modules["groupcodes.codes"], sys.modules["groupcodes.classify"]
    inputs = run.Inputs(gen.Stream("analyze-mix", 2), tmp_path)
    requests = inputs.make(0)[:6]
    plain = [run.call(cli, argv)[:2] for _, argv in requests]
    originals = (codes.min_distance, classify.min_distance,
                 codes.Code.__dict__["from_words"], cli._COMMANDS["analyze"])

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert classify.min_distance is not originals[1]
        assert cli._COMMANDS["analyze"] is not originals[3]
        traced = []
        for i, (_, argv) in enumerate(requests):
            tracer.begin_request(i)
            traced.append(run.call(cli, argv)[:2])
    finally:
        tracer.remove()

    assert traced == plain
    assert (codes.min_distance, classify.min_distance,
            codes.Code.__dict__["from_words"], cli._COMMANDS["analyze"]) == originals
    metrics = tracer.metrics()
    assert metrics["cli.calls"][0] >= len(requests)
    assert metrics["codes.min_distance.calls"][0] > 0
    assert all(own >= 0 for own in tracer.self_times())
    roots = [s for s in tracer.spans() if s[3] == -1]
    assert [tracer.names[s[0]] for s in roots] == ["cli.main"] * len(requests)
    assert [s[4] for s in roots] == list(range(len(requests)))
