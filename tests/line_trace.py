"""List the statements of the package that the tier-1 suite never runs.

    python tests/line_trace.py

Runs the tier-1 suite (pytest -q --continue-on-collection-errors) in this
process under sys.settrace and threading.settrace.  Then prints each
executable statement of src/triseq/*.py that never ran, as
`path:line: source`, and their count.  A statement is executable when the
compiler emits code for one of its lines; docstrings do not count.  Code
that runs only in a subprocess (the demos, the closed-stdout CLI test)
shows as unrun.  The exit status is pytest's.  pytest does not collect
this file.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "triseq"


def _code_lines(code) -> set:
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _code_lines(const)
    return lines


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def statements(path: Path) -> dict:
    """First line of each executable statement -> the code lines it owns.

    A code line belongs to the innermost statement spanning it, so a
    compound statement owns only its header and a call spread over
    several lines is one statement.
    """
    text = path.read_text()
    tree = ast.parse(text)
    lines = _code_lines(compile(text, str(path), "exec")) - _docstring_lines(tree)
    spans = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
             if isinstance(node, ast.stmt)]
    owned = {}
    for line in lines:
        first = max((a for a, b in spans if a <= line <= b), default=line)
        owned.setdefault(first, set()).add(line)
    return owned


def main() -> int:
    sources = {os.path.realpath(p): p for p in sorted(SRC.glob("*.py"))}
    ran = {key: set() for key in sources}
    keys = {}  # co_filename -> key in ran, or None for code outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            ran[keys[frame.f_code.co_filename]].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keys:
            key = os.path.realpath(name)
            keys[name] = key if key in ran else None
        return trace_lines if keys[name] else None

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for key, path in sources.items():
        source = path.read_text().splitlines()
        for first, lines in sorted(statements(path).items()):
            if not lines & ran[key]:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{unrun} executable statements never ran")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
