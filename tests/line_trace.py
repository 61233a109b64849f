"""The lines of sincprod that neither the digest corpus nor ``verify --suite full`` runs.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/line_trace.py

It runs every request of ``test_cli_digests.corpus()`` and then
``verify.run_suite("full")`` under ``sys.settrace``, and prints, for each
module of ``src/sincprod``, the executable lines inside functions and
methods that never ran, as ranges with the text of their first line.
Module and class bodies run on import and are not counted.  The
executable lines are those ``co_lines`` gives for each function's code
object, so a line of a statement that spans several lines counts only
where it holds bytecode.  It needs the standard library only; a traced
run takes about 30 s on a 2-CPU host.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from pathlib import Path

SRC = Path(importlib.util.find_spec("sincprod").origin).resolve().parent  # found, not imported


def executable_lines(path: Path) -> set:
    """Line numbers of the bytecode of every function in the module at path."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function body, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def tracer(seen: dict):
    """A sys.settrace function that adds each line run in SRC to seen[file name]."""
    prefix = str(SRC)

    def local(frame, event, arg):
        seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix) or not frame.f_code.co_flags & inspect.CO_OPTIMIZED:
            return None  # a module or class body shares its def lines with the functions it defines
        seen.setdefault(name, set()).add(frame.f_lineno)
        return local

    return start


def ranges(lines) -> list:
    """Sorted lines as (first, last) runs of consecutive numbers."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return out


def main():
    seen = {}
    sys.settrace(tracer(seen))  # before sincprod is imported, so that calls made on import count
    try:
        import test_cli_digests
        from sincprod import verify

        requests = test_cli_digests.corpus()
        for request in requests:
            test_cli_digests.run(request)
        verify.run_suite("full")
    finally:
        sys.settrace(None)
    print("%d corpus requests and verify --suite full" % len(requests))
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        missed = lines - seen.get(str(path), set())
        text = path.read_text().splitlines()
        print("\n%s: %d of %d lines never ran" % (path.name, len(missed), len(lines)))
        for first, last in ranges(missed):
            where = str(first) if first == last else "%d-%d" % (first, last)
            print("  %-9s %s" % (where, text[first - 1].strip()[:90]))


if __name__ == "__main__":
    main()
