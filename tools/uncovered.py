#!/usr/bin/env python3
"""Statements of a package that no test executes.

    python3 tools/uncovered.py src/baggrasp -- tests -q -x

Runs pytest in this process, with the arguments after `--`, under a
`sys.settrace` line tracer (standard library only), then prints
`file:line: source` for every statement in PACKAGE_DIR's `.py` files that
no line event reached, in file and line order. Only frames whose code comes
from a file in PACKAGE_DIR are traced line by line, and only those files
are read. Run it from a directory where the package imports from the
PACKAGE_DIR given (for this repo: PYTHONPATH=src); a copy imported from
elsewhere is not counted.

Code that runs in another process never reaches the tracer, so its lines
always show: the body of `sim._Draws`' forked child, and whatever the CLI
tests run through `subprocess`. A statement counts as run when any line of
its own (for a compound statement: its header, up to its first body
statement) got a line event; statements that compile to no code, such as
docstrings, are not listed. The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path


def code_lines(code) -> set:
    """Line numbers that code and every code object nested in it run."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: Path) -> list:
    """(line, own lines) per statement of the file that compiles to code."""
    source = path.read_text()
    runnable = code_lines(compile(source, str(path), "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        own = set(range(first, max(first, last) + 1)) & runnable
        if own:
            out.append((node.lineno, own))
    return sorted(out)


class LineTracer:
    """Records (file, line) line events of frames whose code is in one directory."""

    def __init__(self, directory: Path):
        self.prefix = str(directory.resolve()) + os.sep
        self.hits = set()
        self._ours = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = os.path.realpath(name).startswith(self.prefix)
        return self._local if ours else None


def uncovered(directory: Path, hits: set) -> list:
    """(file, line, source) of every statement in directory not in hits."""
    ran = {}
    for name, line in hits:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    out = []
    for path in sorted(directory.rglob("*.py")):
        lines = ran.get(os.path.realpath(path), set())
        text = path.read_text().splitlines()
        out += [(path, line, text[line - 1].strip())
                for line, own in statements(path) if not own & lines]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", type=Path, help="directory of the package's .py files")
    parser.add_argument("pytest_args", nargs=argparse.REMAINDER,
                        help="-- then the arguments pytest gets")
    args = parser.parse_args(argv)
    if not args.package.is_dir():
        parser.error(f"{args.package} is not a directory")
    pytest_args = args.pytest_args[1:] if args.pytest_args[:1] == ["--"] else args.pytest_args

    import pytest

    tracer = LineTracer(args.package)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, line, source in uncovered(args.package, tracer.hits):
        print(f"{path}:{line}: {source}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
