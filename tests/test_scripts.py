import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
