#!/usr/bin/env python3
"""Count the bytecode instructions simulate and analyze run, and run_scenario's bytes.

    python scripts/op_counts.py                 # this checkout's src/
    python scripts/op_counts.py REV             # REV's src/ too, e.g. HEAD~1
    python scripts/op_counts.py --clients 20    # a toy-size run

Three stages run on calibrated seed 3 at 200 clients: ``run_scenario``;
writing what ``beaconlab simulate`` writes, but its manifest (the four
logs, the ground truth and the scenario); and ``build_report_from_dir``
plus ``write_report`` over those logs. ``simulate`` is the first two
together. An instruction is one ``opcode`` event of ``sys.settrace`` with
``f_trace_opcodes`` set, in any Python frame the stage runs. Native code
(builtins, the regex engine, base64) counts nothing, so a count says how
much Python a stage runs, not how long it takes; unlike a time, it repeats
exactly.

Then ``run_scenario`` runs again, untraced, in a second child process with
``tracemalloc`` on: its retained bytes (those traced when it returns) and
its peak, each per exchange, as ``test_bytes_per_exchange`` measures them.
A line tracer would inflate the peak, which is why that child traces no
line; the figures repeat exactly too.

Each tree runs in child processes of its own with only its src/ on the
path and PYTHONHASHSEED=0, so set and dict orders repeat too. REV's src/
is extracted as scripts/same_outputs.py extracts it; with REV, each row
also gives the change from REV to this checkout (uncommitted edits
included) in %. Exit status: 0, or 2 when REV cannot be extracted or a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from same_outputs import ROOT, RunFailed, extract

STAGES = ("run_scenario", "simulate_writes", "simulate", "analyze")
MEMORY = ("retained", "peak")


def counted(fn, *args) -> tuple[object, int]:
    """``fn(*args)``, and the bytecode instructions it ran."""
    count = 0

    def on_event(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_event

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_event

    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, count


def child(clients: int) -> dict[str, int]:
    """The body of a tree's child process: each stage's count."""
    from beaconlab import clientsim, correlate, dnssim, httplog, inject

    config = clientsim.calibrated_config(seed=3, client_count=clients)
    db = clientsim.calibrated_vuln_db()
    with tempfile.TemporaryDirectory(prefix="op_counts_") as out:
        logs, report_dir = os.path.join(out, "logs"), os.path.join(out, "report")
        os.mkdir(logs)

        def write(result) -> None:  # as cli.cmd_simulate writes, but its manifest
            paths = {source: os.path.join(logs, name) for source, name in correlate.LOG_FILENAMES.items()}
            httplog.write_exchange_log(result.exchanges, paths["exchange"])
            inject.write_tag_log(result.tags, paths["tag"])
            dnssim.write_query_log(result.dns_log, paths["dns"])
            clientsim.write_fetch_log(result.fetch_log, paths["fetch"])
            httplog.write_json(result.ground_truth, os.path.join(logs, "ground_truth.json"))
            config.save(os.path.join(logs, "scenario_config.json"))

        def analyze() -> None:
            report = correlate.build_report_from_dir(logs, db, static_label=config.static_label, zone=config.zone)
            correlate.write_report(report, report_dir)

        result, simulated = counted(clientsim.run_scenario, config)
        _, written = counted(write, result)
        del result
        _, analyzed = counted(analyze)
    return {"run_scenario": simulated, "simulate_writes": written,
            "simulate": simulated + written, "analyze": analyzed}


def memory_child(clients: int) -> dict[str, float]:
    """The body of a tree's untraced child: run_scenario's retained and peak
    tracemalloc bytes, each per exchange."""
    import tracemalloc

    from beaconlab import clientsim

    config = clientsim.calibrated_config(seed=3, client_count=clients)
    tracemalloc.start()
    try:
        result = clientsim.run_scenario(config)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    count = len(result.exchanges)
    return {"retained": retained / count, "peak": peak / count}


CHILDREN = {"--child": child, "--memory-child": memory_child}


def run_tree(src: str, clients: int) -> dict[str, float]:
    """Each stage's count and each memory figure with the beaconlab in
    ``src``, from one child process of each kind."""
    figures: dict[str, float] = {}
    for flag in CHILDREN:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), flag, str(clients)],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0"),
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            raise RunFailed(f"the run of {src} exited {done.returncode}: {done.stderr[-2000:]}")
        figures.update(json.loads(done.stdout))
    return figures


def print_rows(names, ref: dict | None, new: dict, spec: str) -> None:
    """One line per figure: this tree's, or with ``ref`` REV's, this tree's
    and the change in %."""
    for name in names:
        if ref is None:
            print(f"{name:<16} {new[name]:>14{spec}}")
            continue
        change = (new[name] - ref[name]) / ref[name] * 100 if ref[name] else 0.0
        print(f"{name:<16} {ref[name]:>14{spec}} {new[name]:>14{spec}}  {change:+.2f} %")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] and argv[0] in CHILDREN:
        print(json.dumps(CHILDREN[argv[0]](int(argv[1]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev", nargs="?", help="a revision whose counts to compare with")
    parser.add_argument("--clients", type=int, default=200, help="the scenario's client count")
    args = parser.parse_args(argv)
    try:
        if args.rev is None:
            ref = None
        else:
            with tempfile.TemporaryDirectory(prefix="op_counts_") as work:
                extract(args.rev, work)
                ref = run_tree(os.path.join(work, "src"), args.clients)
        new = run_tree(os.path.join(ROOT, "src"), args.clients)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"Python bytecode instructions, calibrated seed 3, {args.clients} clients")
    if ref is not None:
        print(f"{'stage':<16} {args.rev:>14} {'this tree':>14}  change")
    print_rows(STAGES, ref, new, ",")
    print("run_scenario's tracemalloc bytes per exchange, untraced")
    print_rows(MEMORY, ref, new, ",.1f")
    return 0


if __name__ == "__main__":
    sys.exit(main())
