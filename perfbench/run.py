"""Seeded end-to-end and per-layer benchmark of beaconlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; beaconlab is imported from its ``src/``.
The last line printed must hold every declared metric on every workload,
so every workload has the same three parts and differs only in the
scenario its offline part simulates and analyzes (see notes.md):

- set-up: a fresh interpreter imports beaconlab, builds the scenario and
  starts the proxy and the DNS responder (setup_probe.py);
- offline: ``run_scenario`` plus writing the logs, then
  ``build_report_from_dir`` plus ``write_report``, each stage in its own
  child process (offline.py);
- live: loopback traffic through the active proxy, with DNS lookups of
  each page's beacons (live.py).

With ``--trace 0`` the line holds the end-to-end metrics; with
``--trace 1`` both parts run once with spans around every layer call and
the line holds the per-layer metrics. Either way the correctness gate
runs: a recovered value that differs from ground truth, a wrong live
answer or a failed operation makes ``correct`` false and the exit
status 1. Without beaconlab's sources the run exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback

from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import live
except ModuleNotFoundError:  # beaconlab's sources are not beside the benchmark
    live = None
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_ROOT = os.path.join(ROOT, ".perfbench_out")

# calibrated_config keyword arguments of each workload's offline part.
WORKLOADS = {
    "offline-calibrated": {"client_count": 2000, "duration_seconds": 3600.0},
    "offline-churn": {
        "client_count": 10000,
        "duration_seconds": 3600.0,
        "visit_rate": 0.0005,
        "restart_count": 1000,
    },
}
TOY_CLIENTS = 60
ROUNDS = 3
SETUP_PROBES_PER_ROUND = 2
# Analysis reads a log of up to 52 MB, and its time at reference speed
# spreads more than the simulation's from one sample to the next, so it
# gets twice the samples.
ANALYSES_PER_ROUND = 2
CHILD_TIMEOUT_S = 150


def _scenario(workload: str, seed: int, toy: bool) -> dict:
    scenario = dict(WORKLOADS[workload], seed=seed)
    if toy:
        scenario["client_count"] = TOY_CLIENTS
        scenario["restart_count"] = min(scenario.get("restart_count", 5), 6)
    return scenario


def _declared() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Run:
    """Counts operations and gate checks across the parts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, checks: dict[str, bool], where: str) -> None:
        for name, ok in checks.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{where}: {name}")


def setup_probe(scenario: dict, work: str, env: dict) -> float:
    probe_dir = tempfile.mkdtemp(prefix="setup", dir=work)
    params = {
        "scenario": scenario,
        "dir": probe_dir,
        "zone": live.ZONE,
        "payload": live.PAYLOAD,
        "static_label": live.STATIC_LABEL,
    }
    script = os.path.join(HERE, "setup_probe.py")
    return live.run_child(script, None, params, env, CHILD_TIMEOUT_S)["setup_s"]


def offline_iteration(scenario: dict, work: str, env: dict, run: Run, samples: dict) -> None:
    """One simulate child, then ANALYSES_PER_ROUND analyze children over its
    logs, each with the ground-truth gate; appends each stage's time and
    peak RSS to ``samples``."""
    script = os.path.join(HERE, "offline.py")
    logs, report = os.path.join(work, "logs"), os.path.join(work, "report")
    sim = live.run_child(script, "simulate", {"scenario": scenario, "logs": logs}, env, CHILD_TIMEOUT_S)
    samples.setdefault("simulate_ref_s", []).append(sim["simulate_ref_s"])
    samples.setdefault("simulate_peak_rss_mb", []).append(sim["peak_rss_mb"])
    for _ in range(ANALYSES_PER_ROUND):
        ana = live.run_child(script, "analyze", {"logs": logs, "report": report}, env, CHILD_TIMEOUT_S)
        run.check(ana["checks"], "offline")
        shutil.rmtree(report)
        samples.setdefault("analyze_ref_s", []).append(ana["analyze_ref_s"])
        samples.setdefault("analyze_peak_rss_mb", []).append(ana["peak_rss_mb"])
    shutil.rmtree(logs)


def traced_offline_part(scenario: dict, work: str, env: dict, run: Run, spans: str) -> dict:
    params = {
        "scenario": scenario,
        "logs": os.path.join(work, "logs"),
        "report": os.path.join(work, "report"),
        "spans": spans,
    }
    out = live.run_child(os.path.join(HERE, "offline.py"), "traced", params, env, CHILD_TIMEOUT_S)
    run.check(out["checks"], "offline traced")
    return out["metrics"]


def _count_relay(run: Run, out: dict) -> dict:
    run.attempted += out["attempted"]
    run.failed += out["failed"]
    run.problems.extend(f"live: {w}" for w in out["wrong"])
    run.check(out["checks"], "live")
    return out["metrics"]


def untraced_parts(args, scenario: dict, work: str, env: dict, run: Run) -> dict:
    """ROUNDS rounds of SETUP_PROBES_PER_ROUND set-up probes, a live window
    of seconds/ROUNDS and one offline iteration.

    Every time but the keep-alive latency is CPU time at the host's
    reference speed (refclock.py). Each part's samples are spread over
    the whole run, so that what is left of the host's slow spells evens
    out: the keep-alive latency pools every window, and the offline
    figures and set-up time are medians of their samples.
    """
    setup: list[float] = []
    samples: dict[str, list[float]] = {}
    live_dir = tempfile.mkdtemp(prefix="live", dir=work)
    with live.Relay(args.seed, live_dir, env) as relay:
        for _ in range(ROUNDS):
            setup.extend(setup_probe(scenario, work, env) for _ in range(SETUP_PROBES_PER_ROUND))
            relay.drive(args.seconds / ROUNDS)
            offline_iteration(scenario, work, env, run, samples)
    measured = _count_relay(run, live.relay_results(relay))
    measured["setup_s"] = statistics.median(setup)
    for name, values in samples.items():
        measured[name] = statistics.median(values)
    return measured


def traced_parts(args, scenario: dict, work: str, env: dict, run: Run) -> dict:
    """One traced live window of ``seconds``, then one traced offline
    iteration; spans go to .perfbench_out/."""
    os.makedirs(TRACE_ROOT, exist_ok=True)
    stem = os.path.join(TRACE_ROOT, f"{args.workload}-seed{args.seed}")
    tracer = Tracer()
    live_dir = tempfile.mkdtemp(prefix="live", dir=work)
    with live.Relay(args.seed, live_dir, env, tracer, stem + "-dns.spans.jsonl") as relay:
        relay.drive(args.seconds)
    measured = _count_relay(run, live.relay_results(relay, tracer))
    tracer.write(stem + "-live.spans.jsonl")
    measured["traced.relay_cpu_us_per_req"] = measured["relay_cpu_us_per_req"]
    measured["traced.dns_cpu_us_per_query"] = measured["dns_cpu_us_per_query"]
    measured.update(traced_offline_part(scenario, work, env, run, stem + "-offline.spans.jsonl"))
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    if live is None or not os.path.isfile(os.path.join(SRC, "beaconlab", "__init__.py")):
        print(f"error: no beaconlab sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    env = dict(os.environ, PYTHONPATH=SRC)
    scenario = _scenario(args.workload, args.seed, args.toy)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT)
    run = Run()
    try:
        if args.trace:
            measured = traced_parts(args, scenario, work, env, run)
            declared = per_layer
        else:
            measured = untraced_parts(args, scenario, work, env, run)
            measured["success_rate"] = 1.0 - run.failed / run.attempted
            declared = end_to_end
    except Exception:  # a crashed part leaves no result to report
        traceback.print_exc()
        print(f"error: {args.workload} seed {args.seed} did not complete", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(declared) - set(measured))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    for problem in run.problems:
        print(f"gate: {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
