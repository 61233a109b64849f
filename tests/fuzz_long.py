"""A long seeded fuzz of the CLI: the exceptions that escape ``main`` and the argv that run long.

Run by hand from the repository root (pytest does not collect it):

    PYTHONPATH=src python tests/fuzz_long.py [FIRST_SEED LAST_SEED [BOUND_S]]

For each seed from FIRST_SEED to LAST_SEED (default 1 to 100) it draws
500 argv with ``test_cli._fuzz_argv``, the generator of the tier-1
``test_seeded_cli_fuzz_exits_cleanly``, from its wider pools too
(``wide=True``): scales down to 1e-400 and pi/1e300, and family sizes
up to 1,000, which the tier-1 test leaves out because their requests
may run for seconds.  It runs each through ``cli.main`` in this
process, from a temporary working directory, with stdout and stderr
captured.  It prints each argv whose run

- raises an exception out of ``main`` (with the exception's last line),
- ends in other than exit 0, one "usage error: ..." line with exit 2
  or one JSON error line with exit 3, or
- runs past BOUND_S seconds of wall time (default 5), where a
  ``signal.setitimer`` alarm cuts it off,

and then one line with the seeds, the argv count, the wall time and
the number of each.  A slow argv is a cost to price, not a fault: name
its class as a request in ROADMAP items 9 or 16 rather than bound it in
a test.  It needs the standard library and what ``tests/test_cli.py``
imports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import test_cli  # noqa: E402  (after the path insert above)
from sincprod import cli  # noqa: E402

ARGV_PER_SEED = 500  # as the tier-1 fuzz draws


class Slow(BaseException):
    """Raised by the alarm; a BaseException, so that no ``except Exception`` in sincprod catches it."""


def _alarm(signum, frame):
    raise Slow


def run(argv, bound_s: float):
    """('ok' | 'escape' | 'bad exit' | 'slow', detail) of one argv through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, bound_s)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Slow:
        return "slow", "cut off at %g s" % bound_s
    except Exception as exc:
        return "escape", traceback.format_exception_only(exc)[-1].strip()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    out, err = out.getvalue(), err.getvalue()
    if code == 0 and "Traceback" not in out + err:
        return "ok", None
    if code == 2 and out == "" and err.startswith("usage error: ") and err.count("\n") == 1:
        return "ok", None
    if code == 3 and err == "" and out.count("\n") == 1:
        with contextlib.suppress(ValueError):
            if list(json.loads(out)) == ["error"]:
                return "ok", None
    return "bad exit", "exit %r, stdout %r, stderr %r" % (code, out[:200], err[:200])


def main(first: int = 1, last: int = 100, bound_s: float = 5.0):
    found = {"escape": 0, "bad exit": 0, "slow": 0}
    previous = signal.signal(signal.SIGALRM, _alarm)
    start, count = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # a mutated --output names a file in the working directory
        try:
            for seed in range(first, last + 1):
                rng = random.Random(seed)
                for _ in range(ARGV_PER_SEED):
                    argv = test_cli._fuzz_argv(rng, os.path.join(tmp, "spline.csv"), wide=True)
                    kind, detail = run(argv, bound_s)
                    count += 1
                    if kind != "ok":
                        found[kind] += 1
                        print("%-8s seed %d  %s\n         %s" % (kind, seed, " ".join(argv), detail), flush=True)
        finally:
            os.chdir(cwd)
            signal.signal(signal.SIGALRM, previous)
    print("seeds %d-%d: %d argv in %.1f s; %d escaped, %d bad exits, %d past %g s"
          % (first, last, count, time.perf_counter() - start, found["escape"], found["bad exit"], found["slow"],
             bound_s))


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:3]), *(float(a) for a in sys.argv[3:4]))
