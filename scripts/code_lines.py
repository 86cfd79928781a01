#!/usr/bin/env python3
"""Count the code lines of Python source files.

A code line is one that holds a token other than a comment, not counting
docstrings: the string that opens a module, class or function body is left
out, and so is a line that holds nothing else. Blank lines, comment lines
and the lines of a docstring are therefore not counted; a line of a string
that is not a docstring is.

Prints one count per file, then their total:

    python scripts/code_lines.py src/beaconlab

Each PATH is a .py file or a directory, whose .py files are counted at any
depth, in sorted order.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

# Tokens that hold no code: comments, line ends, indentation and the end.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in a parsed module."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[str]:
    """The .py files the paths name, directories walked in sorted order."""
    files = []
    for path in paths:
        if not os.path.isdir(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs.sort()
            files.extend(os.path.join(root, name) for name in sorted(names) if name.endswith(".py"))
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", metavar="PATH", help="a .py file or a directory")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with tokenize.open(path) as fh:  # decoded as Python decodes a module
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
