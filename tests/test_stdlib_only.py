"""The runtime package imports nothing outside the standard library, and the
services none of the server and parser modules they no longer need."""

import ast
import os
import subprocess
import sys

import pytest

import beaconlab

PACKAGE_DIR = os.path.dirname(beaconlab.__file__)
ALLOWED = {"__future__", "beaconlab"} | set(sys.stdlib_module_names)


def _absolute_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize(
    "module", sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))
)
def test_imports_only_the_standard_library(module):
    path = os.path.join(PACKAGE_DIR, module)
    outside = [name for name in _absolute_imports(path) if name.split(".")[0] not in ALLOWED]
    assert outside == []


def test_proxy_imports_no_http_server_or_email_parser():
    # The proxy splits heads itself and the DNS responder reads its socket
    # itself; these modules would only add start-up time.
    unused = {"http.client", "http.server", "email.parser", "socketserver"}
    script = f"import sys, beaconlab.proxy; print(sorted({unused!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
