"""Byte identity of the CLI and the oracle on a seeded corpus, one digest
per request.

The corpus is built in code from fixed seeds: the CLI argv of the three
benchmark workloads at seeds 1 to 3 (``bench/workloads.build``), then
1,500 random exact requests, then the library requests of
``oracle-crosscheck`` at seeds 1 to 3 (``numeric_integral`` rendered to
40 digits and ``verify_theorem1`` reports), each run as the benchmark
worker runs it (``bench/worker._prepare``), then 150 random ``sum`` and
``lower-bound`` requests, the near-resonant sums of d scales 2 pi / d
and three sums of 8 to 12 factors, then 91 seeded ``spline-dump``
requests and 110 ``integral``, ``weighted-integral`` and ``deficit`` requests
in csv and plain format, then 27 ``example5`` requests: kernels on and off
the plateau, small scales, transform samples and two refusals, then 194
``breakpoint`` thresholds: near hits on both sides of partial sums below and
past the exact/interval switch, gallops up and down, the estimate in mpmath
and the refusals, then the library requests of ``breakpoint-scan`` at
seeds 1 to 3 (``odd_harmonic_sum`` and ``breaking_point_report`` on
constant and custom families).  Each argv runs through ``cli.main`` in this process;
its exit code, stdout and stderr are hashed to 16 hex digits, as is each
library request's success flag and JSON output, and compared, in corpus
order, with ``cli_digests.txt``.

A change that moves an output on purpose rewrites that file with

    PYTHONPATH=src python tests/test_cli_digests.py

and lists each moved request, with its old and new output, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import sincprod
from sincprod import cli
from sincprod.exact_core import EXACT_PROBE_CUTOFF, EXACT_TERM_CUTOFF, odd_harmonic_sum
from sincprod.numeric_oracle import parse_scale
from sincprod.rational import rat_str

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.txt")
WORKLOADS = ("exact-deficits", "breakpoint-scan", "oracle-crosscheck")


def _bench(module: str):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        return __import__(module)
    finally:
        sys.path.remove(str(ROOT / "bench"))


@functools.cache
def _workload_payloads(workload: str) -> list:
    """The request payloads of one workload at seeds 1 to 3, built once."""
    return [req.payload for seed in (1, 2, 3) for req in _bench("workloads").build(workload, seed)]


def _workload_argv() -> list:
    return [payload["cli"] for name in WORKLOADS for payload in _workload_payloads(name) if "cli" in payload]


def _library_requests(workload: str) -> list:
    return [payload for payload in _workload_payloads(workload) if "lib" in payload]


def _random_exact_argv(count: int = 1500, seed: int = 24) -> list:
    """1 to 12 scales a/d (a <= 5, d <= 6), a unit scale added with
    probability 0.85, shuffled; one of the three exact commands, with a
    node budget drawn from 1 to 3000."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        scales = ["%d/%d" % (rng.randint(1, 5), rng.randint(1, 6)) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.85:
            scales.append("1")
        rng.shuffle(scales)
        command = rng.choice(["integral", "weighted-integral", "deficit"])
        argv = ["--format", "json", command, "--betas", ",".join(scales)]
        if command == "weighted-integral":
            argv += ["--weights", str(rng.randint(1, 4))]
        elif command == "deficit":
            argv += ["--weights", str(rng.randint(0, 4))]
        out.append(argv + ["--node-budget", str(rng.randint(1, 3000))])
    return out


def _random_sum_argv(count: int = 150, seed: int = 30) -> list:
    """2 to 6 scales of sum's grammar ('1', a/b with a <= 5 and b <= 6, 'pi',
    '5pi/4', '2pi/3'), plain, alternating or one-sided, or one lower-bound
    check of up to 6 such scales whose a0 is mostly the largest; abs_tol
    from 1e-8 to 1e-30."""
    rng = random.Random(seed)

    def scale():
        k = rng.random()
        if k < 0.3:
            return "1"
        return "%d/%d" % (rng.randint(1, 5), rng.randint(1, 6)) if k < 0.65 else rng.choice(["pi", "5pi/4", "2pi/3"])

    out = []
    for _ in range(count):
        scales = [scale() for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.8:
            argv = ["sum", "--scales", ",".join(scales)] + rng.choice([[], ["--alternating"], ["--one-sided"]])
        else:
            if rng.random() < 0.9:
                scales.sort(key=parse_scale, reverse=True)
            argv = ["lower-bound", "--a0", scales[0], "--rest", ",".join(scales[1:])]
        out.append(["--format", "json"] + argv + ["--abs-tol", "1e-%d" % rng.randint(8, 30)])
    return out


def _resonant_sum_argv() -> list:
    """d scales 2 pi / d, d = 3 to 11, whose frequencies meet 2 pi and its
    multiples exactly, plain and alternating, at abs_tol 1e-10 and 1e-30;
    then pi / (2k + 1) for 1 <= k <= 8, 1 / (2k + 1) for k < 8 (alternating) and
    pi / (2k + 1) for k < 12 (one-sided), whose factor sinc(pi m) leaves only m = 0."""
    out = [["--format", "json", "sum", "--scales", ",".join(["2pi/%d" % d] * d), *alternating, "--abs-tol", tol]
           for d in range(3, 12) for alternating in ([], ["--alternating"]) for tol in ("1e-10", "1e-30")]
    for scales, ks, extra in [("pi/%d", range(1, 9), ["--abs-tol", "1e-20"]), ("1/%d", range(8), ["--alternating"])]:
        out.append(["--format", "json", "sum", "--scales", ",".join(scales % (2 * k + 1) for k in ks), *extra])
    return out + [["--format", "json", "sum", "--scales", ",".join("pi/%d" % (2 * k + 1) for k in range(12)),
                   "--one-sided"]]


def _spline_and_format_argv(seed: int = 31) -> list:
    """spline-dump on 60 specs of 1 to 7 factors drawn from a pool of 1 to 3
    scales a/d (a <= 3, d <= 9), so single, repeated and non-unit scales occur,
    on odd-harmonic n = 0 to 11 and on sinc-power n = 1 to 12 and 16 to 40 by 4;
    then 110 exact requests in csv and plain format, on such specs with a unit
    scale added half the time, or on a family of n up to 60."""
    rng = random.Random(seed)

    def betas():
        pool = ["%d/%d" % (rng.randint(1, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        return [rng.choice(pool) for _ in range(rng.randint(1, 7))]

    out = [["spline-dump", "--betas", ",".join(betas())] for _ in range(60)]
    out += [["spline-dump", "--family", "odd-harmonic", "--n", str(n)] for n in range(12)]
    out += [["spline-dump", "--family", "sinc-power", "--n", str(n)] for n in [*range(1, 13), *range(16, 41, 4)]]
    for _ in range(110):
        command = rng.choice(["integral", "weighted-integral", "deficit"])
        weights = ["--weights", str(rng.randint(command == "weighted-integral", 3))] if command != "integral" else []
        if rng.random() < 0.4:
            family = rng.choice(["odd-harmonic", "sinc-power"])
            # odd-harmonic F at 2 needs seconds to minutes of DP past n = 20
            top = 20 if family == "odd-harmonic" and weights[1:] in ([], ["0"]) else 60
            spec = ["--family", family, "--n", str(rng.randint(1, top))]
        else:
            spec = ["--betas", ",".join(betas() + ["1"] * (rng.random() < 0.5))]
        argv = ["--format", rng.choice(["csv", "plain"]), command, *spec, *weights]
        out.append(argv + ["--digits", str(rng.randint(1, 30))] * (rng.random() < 0.3))
    return out


def _example5_argv() -> list:
    """example5 on the plateau (sum a_k < b, value pi), at its edge (a = b = 1)
    and off it, on the small scales whose head spans 9 to 65 half-periods, at
    tol 1e-6 to 1e-30; transform samples at 0, +-1/2, 1 and 3/2; and the two
    heads past the work cap, a = 1e-9 and omega = 1e9."""
    cases = [("0.5,0.3", "1", "1e-6"), ("0.5,0.3", "1", "1e-20"), ("0.2", "1", "1e-12"), ("pi/8,pi/10", "1", "1e-8"),
             ("1", "1", "1e-12"), ("1", "1", "1e-30"), ("0.9", "0.5", "1e-12"), ("0.5,0.5", "0.7", "1e-6"),
             ("0.3,0.3,0.3", "1/2", "1e-6"), ("0.3,0.3,0.3", "1/2", "1e-12"),
             ("355/113000", "1/7", "1e-6"), ("355/113000", "1/7", "1e-12"), ("355/113000", "1/7", "1e-20"),
             ("0.02", "1", "1e-6"), ("0.02", "1", "1e-16"), ("0.1", "1", "1e-10"), ("0.1", "1", "1e-20"),
             ("1/300", "1/50", "1e-14"), ("1/300", "1/50", "1e-20")]
    out = [["--format", "json", "example5", "--a", a, "--b", b, "--tol", tol] for a, b, tol in cases]
    out += [["--format", "json", "example5", "--ft-omegas=" + omegas, "--tol", tol]
            for omegas, tol in [("0,1/2,-1/2,1,3/2", "1e-6"), ("0", "1e-16"), ("1/2", "1e-12"), ("-1/2", "1e-20"),
                                ("1", "1e-16"), ("3/2", "1e-10")]]
    return out + [["--format", "json", "example5", "--a", "1e-9", "--b", "1"],
                  ["--format", "json", "example5", "--ft-omegas", "1e9"]]


def _breakpoint_argv(seed: int = 12) -> list:
    """breakpoint at S_m - 2^-k, S_m and S_m + 2^-k, k from 20 to 600, for 44 m
    below EXACT_PROBE_CUTOFF and 10 from there to EXACT_TERM_CUTOFF (log-uniform),
    and at S_m -+ 2^-k for 2 m past it and at S_m for the last, whose enclosures
    straddle up to their series limit; each in a random format.  Then 1/2 and 1
    (refused: S_0 = 1), 1 + 2^-60, 39/2 and 59/3 (estimates 13 short and 25 past:
    a gallop up or down, then a bisection), 20, 25 and 100 (the estimate in mpmath)
    and 6000 (past MAX_PRECISION_BITS), each in json, csv and plain format."""
    rng = random.Random(seed)
    ms = [rng.randrange(1, EXACT_PROBE_CUTOFF) for _ in range(44)]
    ms += [int(EXACT_PROBE_CUTOFF * (EXACT_TERM_CUTOFF / EXACT_PROBE_CUTOFF) ** rng.random()) for _ in range(10)]
    past = [EXACT_TERM_CUTOFF + 1 + rng.randrange(40) for _ in range(2)]
    thresholds = []
    for m in ms + past:
        s, step = odd_harmonic_sum(m), Fraction(1, 1 << rng.randint(20, 600))
        thresholds += [s - step, s + step] + [s] * (m <= EXACT_TERM_CUTOFF or m == past[-1])
    out = [["--format", rng.choice(["json", "csv", "plain"]), "breakpoint", "--threshold", rat_str(t)]
           for t in thresholds]
    specials = [Fraction(1, 2), 1, 1 + Fraction(1, 1 << 60), Fraction(39, 2), Fraction(59, 3), 20, 25, 100, 6000]
    return out + [["--format", fmt, "breakpoint", "--threshold", rat_str(t)]
                  for t in specials for fmt in ("json", "csv", "plain")]


def corpus() -> list:
    """CLI argv (lists) and library requests (dicts, as bench/workloads writes them)."""
    return (_workload_argv() + _random_exact_argv() + _library_requests("oracle-crosscheck") + _random_sum_argv()
            + _resonant_sum_argv() + _spline_and_format_argv() + _example5_argv() + _breakpoint_argv()
            + _library_requests("breakpoint-scan"))


def run(request) -> tuple:
    """(exit code, stdout, stderr) of one cli.main call, or the success flag
    and JSON output of one library request."""
    if isinstance(request, dict):
        ok, output = _bench("worker")._prepare(request, sincprod, mp)()
        return ok, json.dumps(output, sort_keys=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(request))
    return code, out.getvalue(), err.getvalue()


def digest(result) -> str:
    return hashlib.sha256(b"\0".join(b"%d" % r if isinstance(r, int) else r.encode() for r in result)).hexdigest()[:16]


def test_corpus_outputs_are_byte_identical():
    requests = corpus()
    want = DIGESTS.read_text().split()
    assert len(want) == len(requests), "corpus has %d requests, %s holds %d digests" % (
        len(requests), DIGESTS.name, len(want))
    moved = []
    for request, old in zip(requests, want):
        result = run(request)
        if digest(result) != old:
            name = json.dumps(request, sort_keys=True) if isinstance(request, dict) else " ".join(request)
            moved.append("%s\n  -> %r" % (name, tuple(r if isinstance(r, int) else r[:1000] for r in result)))
    assert not moved, "%d of %d requests moved:\n%s" % (len(moved), len(requests), "\n".join(moved))


if __name__ == "__main__":
    DIGESTS.write_text("".join(digest(run(request)) + "\n" for request in corpus()))
