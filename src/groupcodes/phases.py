"""Wall-clock timings of named phases, for ``--timings`` on stderr."""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, TextIO


class Phases:
    """Timing collector: ``with phases("name"): ...`` records one row."""

    def __init__(self) -> None:
        self.rows: list[tuple[str, float]] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((name, time.perf_counter() - t0))

    def report(self, out: TextIO) -> None:
        for name, dt in self.rows:
            print(f"timing {name}: {dt:.4f}s", file=out)
