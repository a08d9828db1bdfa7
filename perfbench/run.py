"""Seeded closed-loop benchmark of the groupcodes command line.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 20 --trace 0

One client sends requests to ``groupcodes.cli.main(argv)`` in process,
each after the previous one returned, and checks every report against an
answer the benchmark built itself (see gen.py and check.py). Requests come
in rounds of fixed shape; the loop stops at the first round boundary after
``--seconds`` of run time. The last stdout line is one JSON object with the
end-to-end metrics (``--trace 0``) or, after replaying the same requests
under the tracer, the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import os

# one process, one client thread: pin native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402

SETUP_ROUNDS = 2      # rounds generated and written before the first timed request
SETUP_REPEATS = 3     # set-up runs per benchmark run; setup_s is their median
MIN_REQUESTS = 100    # so that p90 has ten samples above it
HARD_STOP = 2.0       # abandon a round once the run has taken this many times --seconds


def environment() -> dict:
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.is_file() else ref[5:]
    digest = hashlib.sha256()
    for path in sorted((SRC / "groupcodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "src_sha256": digest.hexdigest()}


class Inputs:
    """Request files on disk, one directory per run."""

    def __init__(self, stream: gen.Stream, directory: Path) -> None:
        self.stream = stream
        self.directory = directory
        self.rounds: list[list[tuple[gen.Request, list[str]]]] = []

    def make(self, r: int) -> list:
        while len(self.rounds) <= r:
            k = len(self.rounds)
            batch = []
            for i, req in enumerate(self.stream.round(k)):
                paths = []
                for j, doc in enumerate(req.docs):
                    path = self.directory / f"r{k}-{i}-{j}.json"
                    path.write_text(gen.dumps(doc), encoding="utf-8")
                    paths.append(str(path))
                batch.append((req, [req.verb] + paths + req.flags))
            self.rounds.append(batch)
        return self.rounds[r]


def setup(workload: str, seed: int, directory: Path) -> tuple[Inputs, float]:
    """Generate and write the first rounds; the median time of several runs."""
    times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(directory, ignore_errors=True)
        gen.aut_order.cache_clear()
        t0 = time.perf_counter()
        directory.mkdir(parents=True)
        inputs = Inputs(gen.Stream(workload, seed), directory)
        inputs.make(SETUP_ROUNDS - 1)
        times.append(time.perf_counter() - t0)
    return inputs, statistics.median(times)


def call(cli, argv: list[str]) -> tuple[int, str, float]:
    """One request: exit code, captured stdout and wall time of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a benchmark error
            traceback.print_exc()
            code = -1
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


def upper_percentile(sorted_values: list[float]) -> tuple[float, float]:
    """p90, or the highest percentile with at least ten samples above it."""
    n = len(sorted_values)
    if n >= 100:
        idx = math.ceil(0.9 * n) - 1
    else:
        idx = max(0, n - 11)
    return sorted_values[idx], 100.0 * (idx + 1) / n


def run_loop(cli, inputs: Inputs, seconds: float) -> list[dict]:
    """Whole rounds until --seconds have passed and MIN_REQUESTS are done."""
    records = []
    start = time.perf_counter()
    r = 0
    while True:
        batch = inputs.make(r)
        for i, (req, argv) in enumerate(batch):
            code, stdout, dt = call(cli, argv)
            status, reason = check.judge(req, code, stdout)
            records.append({"req": req, "argv": argv, "round": r,
                            "round_done": i == len(batch) - 1, "code": code, "dt": dt,
                            "status": status, "reason": reason,
                            "digest": hashlib.sha256(stdout.encode()).hexdigest()})
            if time.perf_counter() - start >= HARD_STOP * seconds:
                return records
        r += 1
        if time.perf_counter() - start >= seconds and len(records) >= MIN_REQUESTS:
            return records


def replay_traced(cli, records: list[dict], spans_path: Path) -> tuple[dict, float, int]:
    """Run the same requests under the tracer; per-layer metrics, traced
    wall time, and how many replies differ from the untraced run."""
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    total = 0.0
    mismatched = 0
    try:
        for i, rec in enumerate(records):
            tracer.begin_request(i)
            code, stdout, dt = call(cli, rec["argv"])
            total += dt
            if code != rec["code"] or hashlib.sha256(stdout.encode()).hexdigest() != rec["digest"]:
                mismatched += 1
                print(f"traced reply differs: {rec['req'].label}", file=sys.stderr)
    finally:
        tracer.remove()
    tracer.write(spans_path)
    return tracer.metrics(), total, mismatched


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "groupcodes" / "cli.py").is_file():
        print(f"error: no groupcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from groupcodes import cli
    import_s = time.perf_counter() - t0

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs, generate_s = setup(args.workload, args.seed, directory)
        records = run_loop(cli, inputs, args.seconds)
        mismatched = 0
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl.gz"
            layer, traced_s, mismatched = replay_traced(cli, records, spans)
            untraced_s = sum(rec["dt"] for rec in records)
            layer["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
            metrics = layer
        else:
            metrics = end_to_end(records, import_s + generate_s)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    failed = [rec for rec in records if rec["status"] != "ok"]
    for rec in failed:
        print(f"failed [{rec['status']}] {rec['req'].label}: {rec['reason']}", file=sys.stderr)
    correct = mismatched == 0 and not any(rec["status"] == "wrong" for rec in records)
    lat = sorted(rec["dt"] for rec in records)
    _, level = upper_percentile(lat)
    print("perfbench " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": len(records),
        "rounds": records[-1]["round"] + 1,
        "upper_percentile": round(level, 1), "env": environment()}))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def round_rates(records: list[dict]) -> list[float]:
    """Requests per second of timed wall time in each complete round."""
    done = {rec["round"] for rec in records if rec["round_done"]}
    count: dict[int, int] = {}
    busy: dict[int, float] = {}
    for rec in records:
        if rec["round"] in done:
            count[rec["round"]] = count.get(rec["round"], 0) + 1
            busy[rec["round"]] = busy.get(rec["round"], 0.0) + rec["dt"]
    return [count[r] / busy[r] for r in sorted(done)]


def end_to_end(records: list[dict], setup_s: float) -> dict:
    lat = sorted(rec["dt"] for rec in records)
    upper, _ = upper_percentile(lat)
    ok = sum(rec["status"] == "ok" for rec in records)
    rates = round_rates(records) or [len(lat) / sum(lat)]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (upper * 1e3, "ms"),
        "answered_frac": (ok / len(lat), "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


if __name__ == "__main__":
    sys.exit(main())
