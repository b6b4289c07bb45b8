"""Line census: which lines of ``src/mixcast`` the Tier-1 suite never runs.

    PYTHONPATH=src python tests/line_census.py [pytest args...]

Runs the test suite in this process under a line tracer (``sys.settrace``,
and ``threading.settrace`` for the threads tests start), then lists every
executable line of the package that no test ran, with its text.  A line is
executable if some code object compiled from the file maps an instruction to
it (``co_lines``).  Code that a test runs in a subprocess is not seen, so its
lines are listed too.  Extra arguments go to pytest; the exit code is
pytest's.  Standard library only: no coverage package is needed.

This is a by-hand tool, not a Tier-1 test: the tracer slows the suite
several times over.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mixcast"


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the file's code objects maps to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """Records the (file, line) pairs run in the files of ``paths``."""

    def __init__(self, paths):
        self.ran = {str(path): set() for path in paths}
        self.seen: dict[str, set | None] = {}  # a code filename -> its set, or None

    def _lines_of(self, filename: str):
        if filename not in self.seen:
            self.seen[filename] = self.ran.get(os.path.realpath(filename))
        return self.seen[filename]

    def __call__(self, frame, event, arg):
        ran = self._lines_of(frame.f_code.co_filename)
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local
        return local


def main(argv: list[str]) -> int:
    import pytest

    paths = sorted(path.resolve() for path in SRC.glob("*.py"))
    tracer = LineTracer(paths)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")] + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missing = 0
    print()
    for path in paths:
        lines = executable_lines(path)
        text = path.read_text().splitlines()
        never = sorted(lines - tracer.ran[str(path)])
        total, missing = total + len(lines), missing + len(never)
        for line in never:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{missing} of {total} executable lines in {SRC.relative_to(ROOT)} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
