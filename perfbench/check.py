"""Checks of each CLI report against answers the benchmark knows itself.

Standard library only; nothing here calls ``groupcodes``. A check returns
None when the report is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json

from gen import ball, is_cyclic

EXIT_OK, EXIT_RESOURCE = 0, 3


def _words(doc: dict) -> list:
    return [tuple(w) for w in doc["codewords"]]


def check_analyze(req, report: dict) -> str | None:
    want = req.expect
    p, c = report["parameters"], report["classification"]
    got = (p["length"], p["alphabet_size"], p["size"], p["min_distance"])
    exp = (want["n"], want["q"], want["size"], want["d"])
    if got != exp:
        return f"(n, q, |C|, d) = {got}, expected {exp}"
    n, q, size, d = exp
    mds = size >= 2 and size == q ** (n - d + 1)
    perfect = size * ball(q, n, (d - 1) // 2) == q ** n
    if (c["is_mds"], c["is_perfect"]) != (mds, perfect):
        return f"(MDS, perfect) = {(c['is_mds'], c['is_perfect'])}, expected {(mds, perfect)}"
    return None


def check_decompose(req, report: dict) -> str | None:
    blocks = [frozenset(i - 1 for i in b) for b in report["blocks"]]
    names = dict((frozenset(b), name) for name, b in req.expect["blocks"])
    if set(blocks) != set(names) or len(blocks) != len(names):
        return f"partition {report['blocks']} differs from the construction"
    got = sorted((names[blocks[t["rep"]]], t["alpha"]) for t in report["isotypes"])
    if got != req.expect["isotypes"]:
        return f"isotypes {got}, expected {req.expect['isotypes']}"
    return None


def check_aut(req, report: dict) -> str | None:
    if report["order"] != req.expect["order"] or not report["complete"]:
        return f"order {report['order']}, expected {req.expect['order']}"
    if report["elements"] is not None and len(report["elements"]) != report["order"]:
        return f"{len(report['elements'])} elements listed for order {report['order']}"
    if "structure" in req.expect:
        got = sorted((r["component_aut_order"], r["alpha"]) for r in report["structure"])
        if got != req.expect["structure"]:
            return f"structure {got}, expected {req.expect['structure']}"
    return None


def check_interleave(req, report: dict) -> str | None:
    words = _words(report["result"])
    if len(set(words)) != req.expect["size"] or len(words[0]) != req.expect["n"]:
        return f"interleaving has {len(words)} words of length {len(words[0])}"
    if not (is_cyclic(words) and report["is_cyclic"]):
        return "interleaving is not cyclic"
    return None


def check_join(req, report: dict) -> str | None:
    words = _words(report["result"])
    if len(set(words)) != req.expect["size"]:
        return f"join has {len(words)} words, expected {req.expect['size']}"
    if not is_cyclic(words):
        return "join is not cyclic"
    return None


CHECKS = {"analyze": check_analyze, "decompose": check_decompose, "aut": check_aut,
          "interleave": check_interleave, "join": check_join}


def judge(req, code: int, stdout: str) -> tuple[str, str | None]:
    """Classify one reply: ("ok", None), ("cap", reason) or ("wrong", reason)."""
    if code == EXIT_RESOURCE:
        return "cap", "hit a resource cap (exit 3)"
    if code != EXIT_OK:
        return "wrong", f"exit {code}, expected {EXIT_OK}"
    try:
        reason = CHECKS[req.verb](req, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as err:
        reason = f"malformed report: {type(err).__name__}: {err}"
    return ("wrong", reason) if reason else ("ok", None)
