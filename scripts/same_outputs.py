#!/usr/bin/env python3
"""Check that this checkout's src/ writes the same outputs as a revision's.

    python scripts/same_outputs.py REV                # e.g. HEAD~1
    python scripts/same_outputs.py REV --scale 0.01   # a toy-size run

REV's src/ is extracted with ``git archive REV src | tar -x`` into a
temporary directory, so the check needs no network and leaves no worktree.
Each tree, REV's and this checkout's (uncommitted edits included), runs in
a child process of its own with only its src/ on the path. There it runs
``beaconlab simulate``, then ``beaconlab inject`` (re-tagging the simulated
exchange log) and ``beaconlab analyze`` on the simulated logs, for three
scenarios: calibrated seeds 3 and 7 (2,000 clients, one hour) and churn
seed 5 (10,000 clients, visit rate 0.0005, 1,000 restarts). ``--scale``
multiplies the client and restart counts.

Every output file except manifest.json, which holds timings, is compared
by sha256, and each file that differs, or that only one tree wrote, is
printed. Exit status: 0 when every output is the same, 1 when any
differs, 2 when REV cannot be extracted or a run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# calibrated_config keyword arguments of each scenario, at scale 1.
SCENARIOS = {
    "calibrated-3": {"seed": 3, "client_count": 2000, "duration_seconds": 3600.0},
    "calibrated-7": {"seed": 7, "client_count": 2000, "duration_seconds": 3600.0},
    "churn-5": {
        "seed": 5,
        "client_count": 10000,
        "duration_seconds": 3600.0,
        "visit_rate": 0.0005,
        "restart_count": 1000,
    },
}
SKIPPED = {"manifest.json"}


class RunFailed(Exception):
    pass


def scaled(scale: float) -> dict[str, dict]:
    """SCENARIOS with their client and restart counts times ``scale``, each
    at least 1."""
    return {
        name: {
            key: max(1, round(value * scale)) if key in ("client_count", "restart_count") else value
            for key, value in kwargs.items()
        }
        for name, kwargs in SCENARIOS.items()
    }


def extract(rev: str, dest: str) -> None:
    """REV's src/ under ``dest``, through git archive piped into tar."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev, "src"], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, capture_output=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RunFailed(f"git archive {rev} src failed")
    if untar.returncode != 0:
        raise RunFailed(f"tar failed: {untar.stderr.decode(errors='replace').strip()}")


def run_tree(src: str, out: str, scenarios: dict[str, dict]) -> None:
    """Every scenario's outputs under ``out``, written by the beaconlab in
    ``src``, in a child process."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src, out, json.dumps(scenarios)],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
    )
    if done.returncode != 0:
        raise RunFailed(f"the run of {src} exited {done.returncode}")


def child(src: str, out: str, scenarios: dict[str, dict]) -> int:
    """The body of run_tree's child process."""
    from beaconlab import cli, clientsim

    if not os.path.abspath(cli.__file__).startswith(os.path.join(os.path.abspath(src), "")):
        print(f"beaconlab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for name, kwargs in scenarios.items():
        base = os.path.join(out, name)
        sim, injected = os.path.join(base, "sim"), os.path.join(base, "inject")
        os.makedirs(injected)
        config = clientsim.calibrated_config(**kwargs)
        config_path = os.path.join(base, "scenario.json")
        config.save(config_path)
        for argv in (
            ["simulate", "--config", config_path, "--out", sim],
            ["inject", "--in", os.path.join(sim, "exchanges.jsonl"), "--zone", config.zone,
             "--out", os.path.join(injected, "exchanges.jsonl"),
             "--tags", os.path.join(injected, "tags.csv")],
            ["analyze", "--logs", sim, "--out", os.path.join(base, "report")],
        ):
            status = cli.main(argv)
            if status != 0:
                print(f"{name}: beaconlab {argv[0]} exited {status}", file=sys.stderr)
                return status
    return 0


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root`` but SKIPPED, by relative path."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name not in SKIPPED:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, root)] = hashlib.file_digest(fh, "sha256").hexdigest()
    return found


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child(argv[1], argv[2], json.loads(argv[3]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev", help="the revision whose outputs are the reference")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every scenario's client and restart counts")
    args = parser.parse_args(argv)
    scenarios = scaled(args.scale)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        ref_src = os.path.join(work, "rev")
        os.mkdir(ref_src)
        try:
            extract(args.rev, ref_src)
            run_tree(os.path.join(ref_src, "src"), os.path.join(work, "out-rev"), scenarios)
            run_tree(os.path.join(ROOT, "src"), os.path.join(work, "out-tree"), scenarios)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ref = digests(os.path.join(work, "out-rev"))
        new = digests(os.path.join(work, "out-tree"))
    differing = sorted(path for path in ref.keys() & new.keys() if ref[path] != new[path])
    for path in differing:
        print(f"differs: {path}")
    for path in sorted(ref.keys() - new.keys()):
        print(f"only at {args.rev}: {path}")
    for path in sorted(new.keys() - ref.keys()):
        print(f"only in this tree: {path}")
    same = not differing and ref.keys() == new.keys()
    print(f"{len(ref.keys() | new.keys())} files compared: "
          f"{'all the same' if same else 'outputs differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
