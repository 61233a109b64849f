"""Whole-process wall times of one argv per subcommand, against two source trees.

Run by hand from the repository root (pytest does not collect it):

    python tests/process_times.py OTHER/src src [RUNS]

Each argv of ARGVS, and ``python -c pass`` as the floor, runs RUNS times
(default 11) as a fresh process per tree, with PYTHONPATH set to that
tree; the tree that goes first alternates from run to run.  It prints,
per argv, the median [q1, q3] wall time under each tree and the ratio
of the second median to the first, and stops if the two trees print a
different stdout or exit code.  Processes run with
PYTHONDONTWRITEBYTECODE=1, so each compiles the modules it imports
unless a tree already holds their bytecode.  ``verify`` is left out:
its checks take seconds, which would hide what loading costs.  It needs
the standard library only.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

ARGVS = [
    "integral --betas 1,1/3",
    "weighted-integral --betas 1,1/3 --weights 1",
    "deficit --family odd-harmonic --n 56 --weights 1",
    "spline-dump --family sinc-power --n 6",
    "breakpoint --threshold 3",
    "breakpoint --threshold 5",
    "sum --scales 5pi/4,1,1",
    "lower-bound --a0 5pi/4 --rest 1,1",
    "example5 --a 0.5,0.3 --b 1",
]
MAIN = "import sys; from sincprod.cli import main; sys.exit(main())"  # what the sincprod script runs


def timed(src: str, args: list):
    """(seconds, stdout, exit code) of one fresh process with src on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    return time.perf_counter() - start, proc.stdout, proc.returncode


def summary(seconds: list) -> str:
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return "%.3f s [%.3f, %.3f]" % (median, q1, q3)


def main(first: str, second: str, runs: int = 11):
    print("%-48s %-24s %-24s %s" % ("argv", first, second, "ratio"))
    for line in ["python -c pass", *ARGVS]:
        args = ["-c", "pass"] if line == "python -c pass" else ["-c", MAIN, *line.split()]
        seconds = {first: [], second: []}
        outputs = set()
        for run in range(runs):
            for src in (first, second)[::1 if run % 2 == 0 else -1]:
                elapsed, out, code = timed(src, args)
                seconds[src].append(elapsed)
                outputs.add((out, code))
        if len(outputs) != 1:
            sys.exit("%s: stdout or exit code differs between the trees (or from run to run)" % line)
        ratio = statistics.median(seconds[second]) / statistics.median(seconds[first])
        print("%-48s %-24s %-24s %.2f" % (line, summary(seconds[first]), summary(seconds[second]), ratio))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], *(int(arg) for arg in sys.argv[3:4]))
