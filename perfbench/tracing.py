"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, start_ns, end_ns, parent, request_id]``; ``parent`` is
the enclosing span's record (or None) and a child inherits its parent's
request id. Spans are taken around calls into beaconlab's public
functions and methods from the benchmark's own code: ``patch`` replaces
an attribute of a module, class or instance with a timing wrapper, and
``span`` brackets a call made directly. beaconlab itself is unchanged.
Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, request_id) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = parent[4]
        record = [name, time.perf_counter_ns(), 0, parent, request_id]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, request_id=None):
        record = self._open(name, request_id)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, fn, name: str, request_id_of=None):
        """``fn`` with a span around every call; ``request_id_of(*args)``
        names the request when the call starts one."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = request_id_of(*args) if request_id_of is not None else None
            record = self._open(name, rid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    def patch(self, owner, attr: str, name: str, request_id_of=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, request_id_of))

    # -- aggregation ----------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2]]

    def total_s(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.named(name)) / 1e9

    def mean_us(self, name: str) -> float:
        spans = self.named(name)
        return sum(s[2] - s[1] for s in spans) / len(spans) / 1e3 if spans else 0.0

    def median_us(self, name: str) -> float:
        spans = self.named(name)
        return statistics.median(s[2] - s[1] for s in spans) / 1e3 if spans else 0.0

    def child_ns(self) -> dict[int, int]:
        """Time each span's direct children cover, keyed by id(parent)."""
        covered: dict[int, int] = {}
        for s in self.spans:
            if s[3] is not None and s[2]:
                covered[id(s[3])] = covered.get(id(s[3]), 0) + s[2] - s[1]
        return covered

    def self_s(self, name: str) -> float:
        covered = self.child_ns()
        return sum(s[2] - s[1] - covered.get(id(s), 0) for s in self.named(name)) / 1e9

    def write(self, path: str) -> None:
        """One JSON array per span: index, name, start, end, parent index, request id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                parent_index = index[id(parent)] if parent is not None else None
                fh.write(json.dumps([i, name, start, end, parent_index, rid]))
                fh.write("\n")
