"""One SHA-256 over the `aut` reports of a fixed slice of the benchmark's
``aut-search`` streams, so any change of an `aut` report's bytes shows.

The recipe: explicit caps 1 and 10^4 outermost, then seeds 3, 9, 10 and
11, rounds 0-7 and the requests of each round in order; each report is
``serialize.aut_report_dumps(aut_group(code, dec, explicit_cap=cap))``,
with ``dec = decompose(code)`` for the ``--with-structure`` requests and
None for the rest. Cap 1 sends every group through the large-order path,
cap 10^4 lists the elements of all but the largest."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from groupcodes import serialize
from groupcodes.decompose import decompose
from groupcodes.isomorphy import aut_group

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

DIGEST = "16dfc60dfc22579e63f37d3352d742f2085e58ab49df887c7d3b6210b7a8cadc"


def test_aut_reports_of_the_aut_search_streams_keep_their_digest():
    digest = hashlib.sha256()
    for cap in (1, 10**4):
        for seed in (3, 9, 10, 11):
            stream = gen.Stream("aut-search", seed)
            for r in range(8):
                for req in stream.round(r):
                    code = serialize.code_from_json(req.docs[0])
                    dec = decompose(code) if "--with-structure" in req.flags else None
                    report = aut_group(code, dec, explicit_cap=cap)
                    digest.update(serialize.aut_report_dumps(report).encode())
    assert digest.hexdigest() == DIGEST
