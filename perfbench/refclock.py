"""CPU time at the host's reference speed.

The benchmark runs on a few vCPUs of a shared host. Two things move its
timings that have nothing to do with the program. Other guests take the
vCPUs away for a while (steal), which adds wall time but no CPU time. And
the host runs the vCPUs slower or faster in spells of a few seconds: the
same ``run_scenario`` call takes 0.5 s of CPU in one spell and 0.8 s in
the next. So the benchmark times CPU, not wall clock, and rescales it by
the host's speed of the moment: a fixed piece of reference work
(``probe_ns``), run beside the measured work every ``PERIOD_S`` seconds,
shows how fast the host runs, and the CPU time is scaled by
``NOMINAL_PROBE_NS`` over the probe's median time. A change to the program
moves the rescaled time as it moves CPU time; a slow spell slows the
work and the probe alike, and cancels.

``CpuMeter`` times every thread of the process over one or more
windows. A SIGALRM handler runs the probe in the main thread, between
its bytecodes or while it waits, and the windows' CPU time, less the
probes' own, is rescaled by the median probe. The median of a few
hundred probes is steadier than rescaling each stretch between two
probes by the one probe that ends it.
"""

from __future__ import annotations

import base64
import json
import random
import signal
import statistics
import time

PERIOD_S = 0.02
# probe_ns on an unloaded 2-vCPU Xeon guest with Python 3.11: the reference speed.
NOMINAL_PROBE_NS = 100_000

_BLOBS = [random.Random(i).randbytes(96) for i in range(6)]


def probe_ns() -> int:
    """CPU time of a fixed mix of the work beaconlab does: base64, JSON, dicts, strings."""
    started = time.thread_time_ns()
    rows = {}
    for i, blob in enumerate(_BLOBS):
        text = base64.b64encode(blob).decode("ascii")
        rows[f"r{i}"] = {"body": text, "len": len(blob), "tags": [text[:8], str(i)]}
    decoded = json.loads(json.dumps(rows))
    for row in decoded.values():
        base64.b64decode(row["body"])
    " ".join(sorted(key + row["tags"][0] for key, row in decoded.items()))
    return time.thread_time_ns() - started


class CpuMeter:
    """CPU time of the whole process over the windows it brackets, each
    ``with meter:`` block one window. ``cpu_s`` is their sum; ``ref_s()``
    is that time at the reference speed, rescaled by the median probe of
    the windows (at least one probe each)."""

    def __init__(self):
        self.cpu_s = 0.0
        self.probes: list[int] = []

    def _tick(self, *_):
        started = time.process_time_ns()
        self.probes.append(probe_ns())
        self._probing_ns += time.process_time_ns() - started

    def __enter__(self):
        self._probing_ns = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._cpu = time.process_time_ns()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.cpu_s += (time.process_time_ns() - self._cpu - self._probing_ns) / 1e9
        self._tick()
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self) -> float:
        return self.cpu_s * NOMINAL_PROBE_NS / statistics.median(self.probes)
