"""Reference figures: single timings of the costs the workloads are built on.

    python3 bench/figures.py

Run from the root of a source checkout.  Each row is one run in this
process, timed with perf_counter; the tier-1 suite runs as a
subprocess.  Writes bench/figures.json and prints one line per row.
This takes about a quarter of an hour, most of it
fourier_spline(odd_harmonic(14)), `sincprod verify --suite fast` and
the tier-1 suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ.pop("SINCPROD_PRECISION_BITS", None)  # read at import time

import mpmath  # noqa: E402

import sincprod  # noqa: E402
from sincprod import cli, verify  # noqa: E402
from sincprod.borwein_engine import _point_eval_pruned_stats  # noqa: E402


def timed(fn):
    t0 = perf_counter()
    value = fn()
    return perf_counter() - t0, value


def cli_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue().strip()


def main():
    rows = []

    def row(name, fn, detail=lambda v: ""):
        seconds, value = timed(fn)
        rows.append({"workload": name, "seconds": round(seconds, 3), "detail": detail(value)})
        print("%-58s %9.3f s  %s" % (name, seconds, rows[-1]["detail"]), flush=True)
        return value

    odd = sincprod.HarmonicFamily.odd_harmonic()
    row("breaking_point(odd_harmonic, 7)", lambda: sincprod.breaking_point(odd, 7), lambda n: "n = %d" % n)
    row("sincprod breakpoint --threshold 9", lambda: cli_run(["breakpoint", "--threshold", "9"]),
        lambda r: "n = %s" % r[1])
    row("57-factor deficit, deficit_report(odd_harmonic(56), CosineWeightSpec(0))",
        lambda: sincprod.deficit_report(sincprod.SincProductSpec.odd_harmonic(56), sincprod.CosineWeightSpec(0)),
        lambda r: r.decimal)
    for n in (10, 12, 14):
        row("fourier_spline(odd_harmonic(%d))" % n,
            lambda n=n: sincprod.fourier_spline(sincprod.SincProductSpec.odd_harmonic(n)),
            lambda F: "%d pieces" % len(F.pieces))
    row("fourier_spline(sinc_power(40))", lambda: sincprod.fourier_spline(sincprod.SincProductSpec.sinc_power(40)),
        lambda F: "%d pieces" % len(F.pieces))
    stats = row("point_eval_pruned(sinc_power(20), 0)",
                lambda: _point_eval_pruned_stats(sincprod.SincProductSpec.sinc_power(20), 0)[1],
                lambda s: "%d nodes visited, %d surviving" % (s.visited, s.surviving))
    rows[-1]["seconds_per_million_nodes"] = round(rows[-1]["seconds"] / stats.visited * 1e6, 3)
    row("integral --family sinc-power --n 30 --node-budget 20000",
        lambda: cli_run(["integral", "--family", "sinc-power", "--n", "30", "--node-budget", "20000"]))
    row("numeric_sum([5pi/4, 1, 1], abs_tol=1e-10)",
        lambda: sincprod.numeric_sum([5 * mpmath.pi / 4, 1, 1], abs_tol=1e-10),
        lambda r: "%d terms" % r.truncation_m)
    row("example5_integral(['0.5', '0.3'], 1)", lambda: sincprod.example5_integral(["0.5", "0.3"], 1),
        lambda v: mpmath.nstr(v, 12))

    # per-criterion seconds of `sincprod verify --suite fast`, with the
    # time criterion 10 spends in mpmath.expint
    expint_s = [0.0]
    original = mpmath.expint

    def expint(*a, **k):
        t0 = perf_counter()
        try:
            return original(*a, **k)
        finally:
            expint_s[0] += perf_counter() - t0

    mpmath.expint = expint
    try:
        checks = []
        for check in verify.run_suite("fast"):
            checks.append({"criterion": check.criterion, "name": check.name, "passed": check.passed,
                           "seconds": round(check.seconds, 3)})
            print("verify criterion %-3s %-50s %8.3f s  %s" % (check.criterion, check.name, check.seconds,
                                                              "PASS" if check.passed else "FAIL"), flush=True)
    finally:
        mpmath.expint = original
    expint_total = round(expint_s[0], 3)

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    tier1 = {"seconds": round(perf_counter() - t0, 1), "summary": proc.stdout.strip().splitlines()[-1]}
    print("tier-1: %s" % tier1, flush=True)

    result = {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "rational_backend": "%s.%s" % (sincprod.Rat.__module__, sincprod.Rat.__qualname__),
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "rows": rows,
        "verify_fast": checks,
        "verify_fast_expint_seconds": expint_total,
        "tier1": tier1,
    }
    with open(BENCH_DIR / "figures.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
