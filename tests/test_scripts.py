import hashlib
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# sha256 of each log the desk script's simulate step writes at --clients 20
# --duration 300 (seed 101): the calibrated scenario simulate builds for
# those flags.
DESK_SIM_LOGS = {
    "exchanges.jsonl": "3d1111e75b373d27ca934d90030270b0af97b46fc885a0320d82207286b1041c",
    "tags.csv": "eff4b709409c029ebd15e66833112124b489a45ddc64f9ce24fbe95bf01cbd85",
    "dns_queries.csv": "02cd7f0f46fe49589d73d53cd46412bf3abce9f5345a6f585af10d929e92b2d0",
    "fetches.csv": "4427244df4b7eb94e7fc9e5495e40221c65236ccd2a7a8129eaabdd32ac1ac7f",
    "ground_truth.json": "8d97374c131b3b436fd1b19fd7ae227b685c075b77384493e4350edf9a71a603",
    "scenario_config.json": "b6488992499c35b40a3a8217a6e9709d112d89375f157be8c10c046c5f03d23b",
}


def test_desk_experiment_recovers_the_truth(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_desk_experiment.py"),
         "--clients", "20", "--duration", "300", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    pairs = re.findall(r"\(recovered / truth\): (\d+) / (\d+)$", done.stdout, re.MULTILINE)
    assert len(pairs) == 3, done.stdout
    assert all(recovered == truth for recovered, truth in pairs), done.stdout
    assert sorted(os.listdir(tmp_path)) == ["report", "sim"]
    for name, digest in DESK_SIM_LOGS.items():
        with open(tmp_path / "sim" / name, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_loopback_demo_resolves_both_beacons(tmp_path):
    # the demo leaves its mkdtemp directory behind, so it goes under tmp_path
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "loopback_demo.py")],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert len(re.findall(r"^  \S+ -> 127\.0\.0\.1$", done.stdout, re.MULTILINE)) == 2, done.stdout
    query_log = done.stdout.split("\nDNS query log:\n", 1)[1].split("\n\n", 1)[0]
    assert len(query_log.splitlines()) == 2, done.stdout
    assert len(os.listdir(tmp_path)) == 1, os.listdir(tmp_path)


# Four code lines: the assignment, the def, and both lines of the string
# returned, which is no docstring.
_SAMPLE = '''"""A module docstring
over two lines."""

# a comment
x = 1  # and a trailing one


def f():
    """A function docstring."""
    return """not a
docstring"""
'''


def test_code_lines_counts_each_module_and_the_total(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(_SAMPLE, encoding="utf-8")
    package = os.path.join(ROOT, "src", "beaconlab")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "code_lines.py"), str(sample), package],
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    counts = [int(count) for count, _ in rows]
    modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
    assert [path for _, path in rows] == (
        [str(sample)] + [os.path.join(package, name) for name in modules] + ["total"]
    )
    assert counts[0] == 4
    assert all(count > 0 for count in counts)
    assert counts[-1] == sum(counts[:-1])


# A sample test run under the tracer: it calls one branch of
# parse_control_command and leaves the others unrun.
_TRACED_SAMPLE = '''from beaconlab.proxy import parse_control_command


def test_status():
    assert parse_control_command("STATUS") == ("STATUS", None)
'''


def test_uncovered_lines_names_the_lines_a_sample_never_ran(tmp_path):
    sample = tmp_path / "test_sample.py"
    sample.write_text(_TRACED_SAMPLE, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "uncovered_lines.py"), str(sample),
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    path = os.path.join("src", "beaconlab", "proxy.py")
    (row,) = [line for line in done.stdout.splitlines() if line.startswith(path + ": ")]
    missed = set()
    for span in row.split(" never run: ")[1].split(", "):
        first, _, last = span.partition("-")
        missed.update(range(int(first), int(last or first) + 1))
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        numbered = {line.strip(): n for n, line in enumerate(fh, start=1)}
    ran = {numbered["parts = line.strip().split()"], numbered["return verb, None"]}
    unrun = {numbered['raise ValueError("empty command")'], numbered["return verb, parts[1].lower()"]}
    assert not missed & ran
    assert unrun <= missed
    assert done.stdout.splitlines()[-1].endswith(" lines never run")


_TRACEMALLOC_SAMPLE = '''import sys

import pytest


def test_traced():
    assert sys.gettrace() is not None


@pytest.mark.tracemalloc
def test_untraced():
    assert sys.gettrace() is None
'''


@pytest.mark.parametrize("failing", [False, True])
def test_uncovered_lines_runs_tracemalloc_tests_untraced(tmp_path, failing):
    (tmp_path / "pytest.ini").write_text("[pytest]\nmarkers =\n    tracemalloc: untraced\n")
    sample = _TRACEMALLOC_SAMPLE
    if failing:
        sample += "\n\n@pytest.mark.tracemalloc\ndef test_fails():\n    assert False\n"
    (tmp_path / "test_sample.py").write_text(sample, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "uncovered_lines.py"), "test_sample.py",
         "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode == (1 if failing else 0), done.stdout + done.stderr
    # one pass each: the traced test and the untraced one each pass once
    assert len(re.findall(r"^(?:1 failed, )?1 passed", done.stdout, re.MULTILINE)) == 2, done.stdout
    assert done.stdout.splitlines()[-1].endswith(" lines never run")


def _same_outputs(repo, *args):
    return subprocess.run(
        [sys.executable, os.path.join(repo, "scripts", "same_outputs.py"), *args],
        capture_output=True, text=True, timeout=60,
    )


def test_same_outputs_passes_the_same_tree_and_names_a_changed_file(tmp_path):
    # a repository of this src/ and the script, so REV is known and fixed
    repo = tmp_path / "repo"
    shutil.copytree(os.path.join(ROOT, "src"), repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (repo / "scripts").mkdir()
    shutil.copy(os.path.join(ROOT, "scripts", "same_outputs.py"), repo / "scripts")
    git = ["git", "-C", str(repo), "-c", "user.name=lab", "-c", "user.email=lab@example.test"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "src"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "base"], check=True)
    done = _same_outputs(repo, "HEAD", "--scale", "0.01")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].endswith(": all the same")
    # one byte of one writer: the indent of every JSON document written
    httplog = repo / "src" / "beaconlab" / "httplog.py"
    text = httplog.read_text(encoding="utf-8")
    assert text.count("json.dump(obj, fh, indent=2)") == 1
    httplog.write_text(text.replace("json.dump(obj, fh, indent=2)", "json.dump(obj, fh, indent=3)"),
                       encoding="utf-8")
    done = _same_outputs(repo, "HEAD", "--scale", "0.01")
    assert done.returncode == 1, done.stdout + done.stderr
    differing = [line for line in done.stdout.splitlines() if line.startswith("differs: ")]
    assert "differs: " + os.path.join("calibrated-3", "sim", "ground_truth.json") in differing
    assert not any(line.endswith("exchanges.jsonl") for line in differing)


def test_op_counts_repeat_exactly():
    runs = [
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "op_counts.py"), "--clients", "10"],
            capture_output=True, text=True, timeout=60,
        )
        for _ in range(2)
    ]
    for done in runs:
        assert done.returncode == 0, done.stdout + done.stderr
    assert runs[0].stdout == runs[1].stdout
    counts = dict(line.rsplit(None, 1) for line in runs[0].stdout.splitlines()[1:])
    assert list(counts) == ["run_scenario", "simulate_writes", "simulate", "analyze"]
    numbers = {stage: int(count.replace(",", "")) for stage, count in counts.items()}
    assert numbers["simulate"] == numbers["run_scenario"] + numbers["simulate_writes"]
    assert min(numbers.values()) > 0
