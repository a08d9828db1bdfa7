"""Command-line front end with deterministic JSON reports.

Exit codes: 0 success (for `iso`: isomorphic), 1 `iso` found no
isomorphism or `selftest` failed, 2 malformed input, 3 a search hit its
resource cap (a partial report is still emitted), 4 internal error (a
structure theorem checked at run time failed, or a verb raised an
unexpected exception: a bug in the program, never bad input). Reports go
to stdout, diagnostics and timings to stderr, so stdout is a pure
function of the input file and flags. Each verb takes only the flags its
command reads; any other flag is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from typing import Any, Sequence

from .classify import (DEFAULT_CENTER_CAP, DEFAULT_ENUMERATION_GATE, classify,
                       perfect_by_enumeration)
from .codes import Code, GroupCode, min_distance, min_weight_nonidentity, parameters
from .cyclic import cyclic_report, interleave_pairs, interleave_permutation, join
from .decompose import (DEFAULT_PARTITION_BITS, applicable_certificates, decompose)
from .errors import GroupCodesError, ResourceLimitError, SchemaError, TheoremViolationError
from .isomorphy import DEFAULT_MAX_NODES, aut_group, code_equivalent, gc_isomorphic
from .phases import Phases
from . import serialize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

MAX_INPUT_BYTES = 2**23  # 8 MiB: 50 times the largest benchmark input, parsed in ~31 MiB


# the shared options, each given only to the verbs whose command reads it
_OPTIONS: dict[str, dict[str, Any]] = {
    "--format": dict(choices=("json", "text"), default="json",
                     help="output format (default json)"),
    "--max-partition-bits": dict(type=int, default=DEFAULT_PARTITION_BITS, metavar="N",
                                 help="coordinate cap for the subset split search"),
    "--max-search": dict(type=int, default=DEFAULT_MAX_NODES, metavar="M",
                         help="node cap for each isomorphism search "
                              "(and leaf cap for assembled automorphism groups)"),
    "--center-cap": dict(type=int, default=DEFAULT_CENTER_CAP, metavar="W",
                         help="cap on q^n, the candidates of the constant-weight "
                              "center search"),
    "--seed": dict(type=int, default=0, help="seed for randomized self tests"),
    "--oracle": dict(action="store_true", help="enable brute-force cross-checks where gated"),
    "--timings": dict(action="store_true", help="print per-phase timings to stderr"),
}


def _options(p: argparse.ArgumentParser, *names: str) -> None:
    """Add the named shared options and --timings, which every verb reads."""
    for name in names + ("--timings",):
        p.add_argument(name, **_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="groupcodes",
                                     description="codes over finite alphabets and group codes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full parameter/classification/decomposition report")
    p.add_argument("input")
    _options(p, "--format", "--max-partition-bits", "--max-search", "--center-cap", "--oracle")

    p = sub.add_parser("decompose", help="canonical decomposition into indecomposables")
    p.add_argument("input")
    _options(p, "--max-partition-bits", "--max-search")

    p = sub.add_parser("aut", help="automorphism group of a group code")
    p.add_argument("input")
    p.add_argument("--with-structure", action="store_true",
                   help="also report the isotypes with the automorphism order of "
                        "each representative, and check the product formula")
    _options(p, "--max-partition-bits", "--max-search")

    p = sub.add_parser("iso", help="isomorphism test between two codes")
    p.add_argument("input_a")
    p.add_argument("input_b")
    _options(p, "--max-search")

    p = sub.add_parser("interleave", help="cyclic rearrangement of copies of a cyclic group code")
    p.add_argument("input")
    p.add_argument("--copies", type=int, required=True)
    _options(p)

    p = sub.add_parser("join", help="componentwise bundle of cyclic group codes over the product group")
    p.add_argument("inputs", nargs="+")
    _options(p)

    p = sub.add_parser("selftest", help="run the theorem-by-theorem property corpus")
    p.add_argument("--trials", type=int, default=100,
                   help="randomized reconstruction trials (default 100)")
    _options(p, "--seed", "--oracle")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and
    # every call gets a fresh Namespace
    return build_parser()


def _load_code(path: str) -> Code:
    try:
        with open(path, "rb") as fh:  # at most one byte past the limit, which tells a longer file
            data = bytearray()  # in blocks: one read of the limit would allocate all of it
            while block := fh.read(min(2**16, MAX_INPUT_BYTES + 1 - len(data))):
                data += block
        if len(data) > MAX_INPUT_BYTES:
            raise SchemaError(f"{path}: input files are limited to {MAX_INPUT_BYTES} bytes")
        doc = json.loads(data.decode("utf-8"))
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise SchemaError(f"{path}: not UTF-8 text: {err.reason} at byte {err.start}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}") from err
    return serialize.code_from_json(doc)


def _emit(doc: Any) -> None:
    sys.stdout.write(serialize.dumps(doc))


def _analysis_text(doc: dict) -> str:
    p = doc["parameters"]
    c = doc["classification"]
    lines = [
        f"length {p['length']}, |C| = {p['size']}, q = {p['alphabet_size']}",
        f"dimension {p['dimension']}{'' if p['dimension_is_exact'] else ' (not a power of q)'}",
        f"min distance {p['min_distance']}, corrects {p['correction_capacity']} errors",
        f"trivial: {c['is_trivial']}  degenerate: {c['is_degenerate']}  "
        f"MDS: {c['is_mds']}  perfect: {c['is_perfect']}",
        f"certificates: {', '.join(doc['certificates']) or 'none'}",
    ]
    if doc.get("decomposition"):
        blocks = doc["decomposition"]["blocks"]
        lines.append(f"decomposes into {len(blocks)} block(s): {blocks}")
    if doc.get("cyclic"):
        lines.append(f"cyclic: {doc['cyclic']['is_cyclic']}")
    if doc.get("resource_limits"):
        lines.append(f"skipped by caps: {', '.join(doc['resource_limits'])}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args: argparse.Namespace, phases: Phases) -> int:
    with phases("load"):
        code = _load_code(args.input)
    limits: list[str] = []

    report: dict[str, Any] = {"code": serialize.code_to_json(code)}
    with phases("parameters"):
        report["parameters"] = serialize.parameters_to_json(parameters(code))
    with phases("classification"):
        report["classification"] = serialize.classification_to_json(
            classify(code, center_cap=args.center_cap))
    with phases("certificates"):
        report["certificates"] = list(applicable_certificates(code))
    dec = None
    try:
        with phases("decomposition"):
            dec = decompose(code, max_bits=args.max_partition_bits, max_nodes=args.max_search)
        report["decomposition"] = serialize.decomposition_to_json(dec)
    except ResourceLimitError as err:
        print(f"decomposition skipped: {err}", file=sys.stderr)
        report["decomposition"] = None
        limits.append("decomposition")
    try:
        with phases("cyclic"):
            cyc = cyclic_report(code, dec, max_bits=args.max_partition_bits,
                                max_nodes=args.max_search)
        report["cyclic"] = serialize.cyclic_report_to_json(cyc)
    except ResourceLimitError as err:
        print(f"cyclic analysis skipped: {err}", file=sys.stderr)
        report["cyclic"] = None
        limits.append("cyclic")
    if args.oracle:
        oracle: dict[str, Any] = {}
        covering = code.alphabet.order ** code.length <= DEFAULT_ENUMERATION_GATE
        weight_scan = isinstance(code, GroupCode) and code.size >= 2
        # one pairwise scan serves both oracles
        d = min_distance(code) if covering or weight_scan else None
        if covering:
            agree = (perfect_by_enumeration(code, distance=d)
                     == report["classification"]["is_perfect"])
            oracle["perfect_covering_agrees"] = agree
            if not agree:
                raise TheoremViolationError("sphere packing disagrees with covering enumeration")
        if weight_scan:
            oracle["weight_scan_agrees"] = d == min_weight_nonidentity(code)
        report["oracle"] = oracle
    report["resource_limits"] = limits
    with phases("report"):
        sys.stdout.write(_analysis_text(report) if args.format == "text"
                         else serialize.dumps(report))
    return EXIT_RESOURCE if limits else EXIT_OK


def cmd_decompose(args: argparse.Namespace, phases: Phases) -> int:
    with phases("load"):
        code = _load_code(args.input)
    try:
        with phases("compute"):
            dec = decompose(code, max_bits=args.max_partition_bits, max_nodes=args.max_search)
    except ResourceLimitError as err:
        print(f"decomposition aborted: {err}", file=sys.stderr)
        with phases("report"):
            _emit({"decomposition": None, "certificate": err.certificate})
        return EXIT_RESOURCE
    with phases("report"):
        _emit(serialize.decomposition_to_json(dec))
    return EXIT_OK


def cmd_aut(args: argparse.Namespace, phases: Phases) -> int:
    with phases("load"):
        code = _load_code(args.input)
    if not isinstance(code, GroupCode):
        raise SchemaError("automorphism groups are computed for group codes; set \"group\": true")
    dec = None
    try:
        if args.with_structure:
            with phases("decompose"):
                dec = decompose(code, max_bits=args.max_partition_bits,
                                max_nodes=args.max_search)
        report = aut_group(code, dec, max_nodes=args.max_search,
                           max_bits=args.max_partition_bits, phases=phases)
    except ResourceLimitError as err:
        print(f"automorphism search aborted: {err}", file=sys.stderr)
        partial = {"order": None, "complete": False,
                   "generators": [serialize.gc_witness_to_json(g)
                                  for g in err.partial_generators]}
        with phases("report"):
            _emit(partial)
        return EXIT_RESOURCE
    with phases("report"):
        sys.stdout.write(serialize.aut_report_dumps(report))
    return EXIT_OK


def cmd_iso(args: argparse.Namespace, phases: Phases) -> int:
    with phases("load"):
        A = _load_code(args.input_a)
        B = _load_code(args.input_b)
    try:
        with phases("compute"):
            if isinstance(A, GroupCode) and isinstance(B, GroupCode):
                witness = gc_isomorphic(A, B, max_nodes=args.max_search)
                doc = serialize.gc_witness_to_json(witness) if witness else None
            else:
                iso = code_equivalent(A, B, max_nodes=args.max_search)
                doc = serialize.isometry_to_json(iso) if iso else None
    except ResourceLimitError as err:
        print(f"isomorphism search aborted: {err}", file=sys.stderr)
        with phases("report"):
            _emit({"isomorphic": None, "witness": None})
        return EXIT_RESOURCE
    with phases("report"):
        _emit({"isomorphic": doc is not None, "witness": doc})
    return EXIT_OK if doc is not None else EXIT_NEGATIVE


def cmd_interleave(args: argparse.Namespace, phases: Phases) -> int:
    with phases("load"):
        code = _load_code(args.input)
    if not isinstance(code, GroupCode):
        raise SchemaError("interleave expects a cyclic group code; set \"group\": true")
    with phases("compute"):
        out, pairs = interleave_pairs(code, args.copies)
        sigma = interleave_permutation(code.length, args.copies)
        rows = [{"from": list(src), "to": list(img)} for src, img in pairs]
    with phases("report"):
        doc = {"sigma": list(sigma), "convention": "push", "copies": args.copies,
               "source": serialize.code_to_json(code),
               "result": serialize.code_to_json(out),
               "rows": rows,
               # interleave_pairs raises TheoremViolationError unless out is cyclic
               "is_cyclic": True}
        _emit(doc)
    return EXIT_OK


def cmd_join(args: argparse.Namespace, phases: Phases) -> int:
    codes = []
    with phases("load"):
        for path in args.inputs:
            code = _load_code(path)
            if not isinstance(code, GroupCode):
                raise SchemaError(f"{path}: join expects cyclic group codes")
            codes.append(code)
    with phases("compute"):
        out = join(codes)
    with phases("report"):
        _emit({"result": serialize.code_to_json(out)})
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace, phases: Phases) -> int:
    # the property corpus and its catalog load only for this verb
    from .selftest import run_selftest
    with phases("compute"):
        ok = run_selftest(seed=args.seed, trials=args.trials, oracle=args.oracle)
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "analyze": cmd_analyze,
    "decompose": cmd_decompose,
    "aut": cmd_aut,
    "iso": cmd_iso,
    "interleave": cmd_interleave,
    "join": cmd_join,
    "selftest": cmd_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    phases = Phases()
    try:
        return _COMMANDS[args.command](args, phases)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except TheoremViolationError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except GroupCodesError as err:  # bad input: schema, precondition, incompatible operands
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except Exception:  # a bug in the program; KeyboardInterrupt and SystemExit pass
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if args.timings:
            phases.report(sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
