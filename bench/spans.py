"""In-memory span recorder for the traced benchmark run.

Spans are opened around calls into the library from the benchmark's own
code, kept in a list while the run executes, and written out once when
it ends, so recording never does file I/O inside a measured interval.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records (name, start, end, parent) spans that share one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._open[-1] if self._open else None]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": index, "name": name,
                    "parent": parent, "start": start, "end": end,
                }) + "\n")
