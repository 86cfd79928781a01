"""The runtime package imports nothing outside the standard library."""

import ast
import os
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
