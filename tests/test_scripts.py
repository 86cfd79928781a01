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
