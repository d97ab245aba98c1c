"""List the statements of ``src/ribboncalc`` that a pytest run never executes.

A stdlib line collector: ``sys.settrace`` records the lines run in the
package's files while ``pytest.main`` runs the suite in this process.  A
statement is an ``ast`` statement whose first line carries bytecode, so a
function's docstring or a comment never counts.  Lines run only in child
processes (the CLI's ``-m`` entry point, the benchmark subprocess) are not
seen.

Usage, from the repository root::

    PYTHONPATH=src python tools/linecov.py [PYTEST ARGS...]

It prints ``FILE:LINE  SOURCE`` for each statement never executed and a
total.  The exit code is pytest's.  Tracing makes the suite about three
times slower, so time-gated tests may fail under it; this tool is not part
of the test suite.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ribboncalc"


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[int]:
    """First lines of the statements of ``path`` that carry bytecode."""
    source = path.read_text("utf-8")
    runnable = _code_lines(compile(source, str(path), "exec"))
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.stmt) and node.lineno in runnable})


def main(argv: list[str]) -> int:
    import pytest

    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    seen: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in seen:
            seen[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = total = 0
    for name, path in files.items():
        lines = path.read_text("utf-8").splitlines()
        stmts = statements(path)
        total += len(stmts)
        for n in stmts:
            if n not in seen[name]:
                missed += 1
                print(f"{path.relative_to(PACKAGE.parent.parent)}:{n}  "
                      f"{lines[n - 1].strip()}")
    print(f"{missed} of {total} statements in src/ribboncalc never executed")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
