"""Print, per module of ``src/luresim``, the executable lines that a pytest
run never runs: a line count by the standard library's ``sys.settrace``,
with no coverage package::

    PYTHONPATH=src python3 tools/linecov.py [pytest arguments]

The arguments go to pytest as given (by default ``-q -p no:cacheprovider
tests``), in this process, after the tracer is set, so that the modules'
import counts as well.  A line is executable when its module's compiled
code maps bytecode to it; it ran when the tracer saw it start.  Each
module gets one line: how many of its executable lines never ran, and
which (as ranges); a total follows.  The exit status is pytest's.

Tracing slows the tests several times over, and tests that bound their
own wall clock may fail under it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "luresim"


def executable_lines(path: Path) -> set[int]:
    """The lines of a module that its compiled code maps bytecode to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers written as ranges: 3, 7-9, 12."""
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def main(argv: list[str]) -> int:
    modules = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in modules}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, path in modules.items():
        lines = executable_lines(path)
        never = lines - ran[name]
        total, missed = total + len(lines), missed + len(never)
        print(f"{path.relative_to(ROOT / 'src')}: {len(never)} of {len(lines)} "
              f"lines never run" + (f": {ranges(never)}" if never else ""))
    print(f"total: {missed} of {total} executable lines never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
