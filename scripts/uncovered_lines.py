#!/usr/bin/env python3
"""Print the lines of src/beaconlab that a pytest run never executes.

A stdlib line-coverage run: the tests run in this process under
``sys.settrace`` and ``threading.settrace``, so the threads they start (the
proxy's event loop, the DNS responder) are traced too. Only frames of
modules under src/beaconlab are traced line by line. A module's executable
lines are those its code objects map to (``co_lines()``); each module with
one that never ran is printed with those lines, then the total:

    python scripts/uncovered_lines.py               # the tier-1 tests
    python scripts/uncovered_lines.py tests/test_ua.py -k classify

Arguments are passed to pytest as given; with none, it runs ``tests``.
Lines that run only in a child process show as never run, since no child
is traced. The tests run the ``proxy`` and ``dns`` subcommands in this
process as well, with their signal wait replaced, so those lines count. Tracing makes the run about twice as slow as an untraced one.
The tests marked ``tracemalloc`` bound a peak that tracing would inflate
(at each trace event CPython copies the traced frame's locals into a
dict), so they run in a second pass, untraced, and their lines do not
count. Each pass appends its own ``-m`` to the arguments, which overrides
any ``-m`` given. The exit code is the worse of the two passes'; a pass
that selects no test counts as passed unless neither selects one.
"""

from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "beaconlab")


def executable_lines(path: str) -> set[int]:
    """The line numbers that any code object compiled from ``path`` maps to."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None, or 0 before line 1
        todo.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, ``a-b`` for consecutive ones."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def traced_run(paths: list[str], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run in each of ``paths``."""
    executed: dict[str, set[int]] = {path: set() for path in paths}

    def trace(frame, event, arg):
        seen = executed.get(frame.f_code.co_filename)
        if seen is None:
            return None  # no line events for this frame

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), executed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, os.path.dirname(PACKAGE))  # beaconlab, imported by the tests once traced
    paths = [os.path.join(PACKAGE, name) for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")]
    pytest_args = args or ["tests"]
    status, executed = traced_run(paths, [*pytest_args, "-m", "not tracemalloc"])
    untraced = int(pytest.main([*pytest_args, "-m", "tracemalloc"]))
    total = 0
    for path in paths:
        missed = sorted(executable_lines(path) - executed[path])
        total += len(missed)
        if missed:
            print(f"{os.path.relpath(path, ROOT)}: {len(missed)} never run: {spans(missed)}")
    print(f"{total} lines never run")
    return worse_status(status, untraced)


def worse_status(*statuses: int) -> int:
    """The worst of pytest exit codes, ignoring a pass that selected no test."""
    ran = [s for s in statuses if s != pytest.ExitCode.NO_TESTS_COLLECTED]
    return max(ran) if ran else int(pytest.ExitCode.NO_TESTS_COLLECTED)


if __name__ == "__main__":
    sys.exit(main())
