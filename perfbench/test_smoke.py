"""Smoke test of the benchmark at toy size.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with and without tracing at toy sizes and checks
that every metric BENCHMARK.json declares is printed with its unit and
that the correctness gate ran. Also checks that the gate flags a wrong
recovered value, and that the benchmark refuses to run, without printing
a result, where the program's sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace):
    return subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--toy",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_prints_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # offline ground-truth checks and live STATUS/log checks count as operations
    assert result["attempted"] > 7
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_gate_flags_wrong_recovered_values():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import offline

    report = {
        "unique_users": 10,
        "reappearances": [{"subdomain": "d1"}, {"subdomain": "d2"}],
        "dynamic_tags_issued": 5,
    }
    truth = {
        "unique_user_lifetimes": 10,
        "reappearance_subdomains": ["d2", "d1"],
        "taggable_responses": 5,
    }
    assert all(offline.recovered_checks(report, truth).values())
    for key, wrong in (
        ("unique_user_lifetimes", 11),
        ("reappearance_subdomains", ["d1"]),
        ("taggable_responses", 4),
    ):
        checks = offline.recovered_checks(report, dict(truth, **{key: wrong}))
        assert list(checks.values()).count(False) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
