"""Workload process: issues one workload's requests back to back.

Reads {"src", "requests", "passes", "trace", "trace_file"} as JSON on
stdin and writes one JSON report on stdout.  It is a closed loop with
one client: ``passes`` whole passes over the request list.  Only the
first pass returns full outputs; every pass returns a digest per output,
so the parent can check every output without shipping large CSVs again.

A request is either {"cli": argv}, run as ``sincprod.cli.main(argv)``
with stdout captured, or {"lib": name, ...}, a call to a public library
function for which no CLI subcommand exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
from fractions import Fraction
from time import perf_counter


def _prepare(req, sincprod, mp):
    """Turn a request into a zero-argument call; decoding stays untimed."""
    if "cli" in req:
        argv = list(req["cli"])

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = sincprod.cli.main(argv)
            return rc == 0, {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}

        return call

    name = req["lib"]
    if name == "breaking_point_report":
        fam = req["family"]
        if fam[0] == "constant":
            family = sincprod.HarmonicFamily.constant(Fraction(fam[1]))
        else:
            family = sincprod.HarmonicFamily.custom([Fraction(b) for b in fam[1]])
        threshold = Fraction(req["threshold"])

        def fn():
            r = sincprod.breaking_point_report(family, threshold)
            return {"n": r.n, "mode": r.mode, "precision_bits": r.precision_bits, "terms_scanned": r.terms_scanned}

    elif name == "odd_harmonic_sum":
        n = req["n"]

        def fn():
            s = sincprod.odd_harmonic_sum(n)
            return "%x/%x" % (s.numerator, s.denominator)

    elif name == "numeric_integral":
        with mp.workprec(256):
            scales = tuple(mp.pi * mp.mpf(Fraction(b).numerator) / Fraction(b).denominator for b in req["pi_betas"])
        weight = sincprod.CosineWeightSpec(req["weight"]) if req["weight"] is not None else None
        spec = sincprod.RealScales(scales, weight=weight)

        def fn():
            return mp.nstr(sincprod.numeric_integral(spec, rel_tol=req["rel_tol"]), 40)

    elif name == "verify_theorem1":
        if "pi_betas" in req:
            with mp.workprec(256):
                scales = [mp.pi * mp.mpf(Fraction(b).numerator) / Fraction(b).denominator for b in req["pi_betas"]]
        else:
            scales = list(req["scales"])

        def fn():
            return sincprod.verify_theorem1(scales, alternating=req["alternating"])

    else:
        raise ValueError("unknown library request %r" % name)

    def call():
        try:
            return True, fn()
        except Exception as exc:  # a raising request is a failed operation
            return False, {"error": type(exc).__name__, "message": str(exc)}

    return call


def fraction_probe():
    """A fixed piece of Fraction arithmetic, about a millisecond."""
    s = Fraction(0)
    for k in range(300):
        s += Fraction(1, 2 * k + 1)
    return s


def _odd_sum(n):
    num, den = 0, 1
    for k in range(n + 1):
        d = 2 * k + 1
        mult = d // math.gcd(den, d)
        den *= mult
        num = num * mult + den // d
    return num, den


BIGINT_FROM = 5000
_CHECKPOINT = _odd_sum(BIGINT_FROM)  # numerator and denominator of about 14,000 bits


def bigint_probe():
    """60 steps of the odd-harmonic sum over the running lcm, on integers
    of about 14,000 bits: linear-time big-integer work, about 0.65 ms."""
    num, den = _CHECKPOINT
    for k in range(BIGINT_FROM + 1, BIGINT_FROM + 61):
        d = 2 * k + 1
        mult = d // math.gcd(den, d)
        den *= mult
        num = num * mult + den // d
    return num


# timed before every request, to gauge how fast the host runs this
# process just then (see run.py)
PROBES = {"fraction": fraction_probe, "bigint": bigint_probe}


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import mpmath as mp

    import sincprod
    import sincprod.cli

    if not sincprod.__file__.startswith(job["src"]):
        raise SystemExit("sincprod imported from %s, not from %s" % (sincprod.__file__, job["src"]))
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calls = [_prepare(req, sincprod, mp) for req in job["requests"]]
    passes, first_outputs = [], None
    for _ in range(job["passes"]):
        if tracer is not None:
            tracer.reset()
        latency, status, digest, outputs = [], [], [], []
        probes = {name: [] for name in PROBES}
        for call in calls:
            for name, probe in PROBES.items():
                t0 = perf_counter()
                probe()
                probes[name].append(perf_counter() - t0)
            t1 = perf_counter()
            ok, output = call()
            latency.append(perf_counter() - t1)
            text = json.dumps(output, sort_keys=True)
            status.append(ok)
            digest.append(hashlib.sha256(text.encode()).hexdigest())
            if first_outputs is None:
                outputs.append(output)
        record = {"latency": latency, "probe": probes, "ok": status, "digest": digest}
        if tracer is not None:
            record["layers"] = tracer.layer_metrics()
        passes.append(record)
        if first_outputs is None:
            first_outputs = outputs

    if tracer is not None:
        with open(job["trace_file"], "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans}, fh)
    report = {
        "passes": passes,
        "outputs": first_outputs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rational_backend": "%s.%s" % (sincprod.Rat.__module__, sincprod.Rat.__qualname__),
        "mpmath_version": mp.__version__,
    }
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
