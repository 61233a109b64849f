"""The three workloads: seeded request lists and the check for each output.

Each request is a ``Req``: the payload the worker executes, and a check
that takes the worker's output and returns None when it is right or a
one-line reason when it is not.  Expected values come from ``refs``
(independent of sincprod) or from properties the method must have;
never from a saved copy of an earlier run's output.

Why these workloads:

* exact-deficits spends nearly all of its time in spline_engine,
  borwein_engine and rational, and never touches the scan or the oracle.
* breakpoint-scan spends nearly all of its time in exact_core's
  partial-sum scan, including thresholds at or within 2^-512 of a
  partial sum, which force an exact decision on a long p/q or a run of
  precision escalations.
* oracle-crosscheck spends nearly all of its time in numeric_oracle and
  mpmath; the exact engine stays idle.

Every request count is fixed, whatever the seed, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable

import mpmath

import refs

EXACT_TERM_CUTOFF = 10_000  # sincprod.exact_core's exact/interval switch
ANCHORS = ((2, 6), (3, 55), (5, 3090), (7, 168802))
NEAR_HIT_BITS = 512  # a dyadic threshold this close to S_m escalates 128 -> 1024 bits
EXAMPLE6 = (("5pi/4,1,1", "0.8999999997"), ("5pi/4,5pi/4,5pi/4", "0.9960000000"))
EXAMPLE6_TOL = mpmath.mpf("5e-9")
EXAMPLE6_ABS_TOL = "4e-9"  # the sums' own tolerance, below the check's 5e-9
ORACLE_REL_TOL = 1e-12
THEOREM1_TOL = 1e-7  # verify_theorem1's default tol


@dataclass
class Req:
    payload: dict
    check: Callable[[object], str | None]
    known_failure: bool = False

    @property
    def label(self) -> str:
        if "cli" in self.payload:
            return "sincprod " + " ".join(a if len(a) <= 24 else a[:21] + "..." for a in self.payload["cli"])
        args = {k: v for k, v in self.payload.items() if k != "lib"}
        return "%s(%s)" % (self.payload["lib"], json.dumps(args)[:80])


def verdict(req: Req, output) -> str | None:
    """The request's check; output it cannot read is wrong output."""
    try:
        return req.check(output)
    except (ValueError, KeyError, TypeError, ZeroDivisionError, AttributeError) as exc:
        return "unreadable output: %s: %s" % (type(exc).__name__, str(exc)[:200])


def _rat(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _fmt(betas) -> str:
    return ",".join(_rat(Fraction(b)) for b in betas)


def _cli_json(output):
    if output["rc"] != 0:
        return None, "exit code %d: %s" % (output["rc"], (output["err"] or output["out"])[:200])
    return json.loads(output["out"]), None


# ---------------------------------------------------------------------------
# checks: exact engine
# ---------------------------------------------------------------------------


def check_exact_report(report: dict, betas, expected: Fraction, digits: int) -> str | None:
    """An integral / weighted-integral / deficit JSON report against the
    reference rational `expected` and the scales it was asked about."""
    exact = refs.parse_rat(report["exact"])
    if exact != expected:
        return "exact %s, reference %s" % (report["exact"][:60], _rat(expected)[:60])
    if Decimal(report["decimal"]) != refs.rounded(expected, digits):
        return "decimal %s, reference %s" % (report["decimal"], refs.rounded(expected, digits))
    if [refs.parse_rat(b) for b in report["spec"]] != [Fraction(b) for b in betas]:
        return "spec %s does not echo the scales asked for" % report["spec"][:4]
    if refs.parse_rat(report["support_radius"]) != sum(Fraction(b) for b in betas):
        return "support radius %s" % report["support_radius"]
    return None


def exact_request(command: str, betas, weights: int | None, argv_spec, digits: int, literal=None) -> Req:
    """One integral-flavoured CLI request; `weights` counts cosine terms
    as the CLI does (0 or None: unweighted)."""
    betas = [Fraction(b) for b in betas]
    argv = ["--format", "json", command] + argv_spec
    if command != "integral":
        argv += ["--weights", str(weights)]
    argv += ["--digits", str(digits)]
    weighted = command != "integral" and weights

    def expected():
        value = refs.weighted_integral(betas, weights - 1) if weighted else refs.plain_integral(betas)
        return 1 - value if command == "deficit" else value

    def check(output):
        report, err = _cli_json(output)
        if err:
            return err
        problem = check_exact_report(report, betas, expected(), digits)
        if problem is None and literal is not None and report["decimal"] != literal:
            problem = "decimal %s, paper value %s" % (report["decimal"], literal)
        return problem

    return Req({"cli": argv}, check)


def check_spline_csv(text: str, betas, probes) -> str | None:
    """A dumped spline: contiguous pieces in lowest terms, total mass 2,
    the unit-scale sample identities, and agreement with the reference
    transform at the probe points."""
    rows = refs.parse_spline_csv(text)
    if refs.spline_integral(rows) != 2:
        return "integral of the dumped spline is %s, not 2" % refs.spline_integral(rows)
    betas = [Fraction(b) for b in betas]
    top = math.floor(sum(betas)) + 2
    if 1 in betas:
        even = sum((refs.spline_at(rows, 2 * k) for k in range(1, top)), Fraction(0))
        odd = sum((refs.spline_at(rows, 2 * k + 1) for k in range(0, top)), Fraction(0))
        if refs.spline_at(rows, 0) + 2 * even != 1 or 2 * odd != 1:
            return "unit-scale sample identities fail"
    for x in probes:
        if refs.spline_at(rows, x) != refs.transform_at(betas, x):
            return "dumped spline differs from the reference transform at x=%s" % x
    return None


def spline_dump_request(betas, argv_spec) -> Req:
    betas = [Fraction(b) for b in betas]
    radius = sum(betas)
    probes = [Fraction(0), Fraction(1, 2), Fraction(1), radius / 3, radius / 2, radius * 7 / 8]

    def check(output):
        if output["rc"] != 0:
            return "exit code %d" % output["rc"]
        return check_spline_csv(output["out"], betas, probes)

    return Req({"cli": ["spline-dump"] + argv_spec}, check)


def exact_deficits(seed: int) -> list:
    rng = random.Random(seed)
    reqs = []
    # odd-harmonic n = 0..60; the unweighted ones stop at 16 because
    # the pruned search at x = 2 grows about 4x per two more factors
    for n in range(61):
        spec = ["--family", "odd-harmonic", "--n", str(n)]
        betas = refs.odd_harmonic_betas(n)
        for w in (0, 1, 2):
            if w == 0 and n > 16:
                continue
            if n % 2:
                reqs.append(exact_request("deficit", betas, w, spec, 10))
            else:
                reqs.append(exact_request("weighted-integral" if w else "integral", betas, w, spec, 12))
    reqs.append(exact_request("deficit", refs.odd_harmonic_betas(56), 1,
                              ["--family", "odd-harmonic", "--n", "56"], 10, literal="1.484870809e-138"))
    # sinc powers: the default-budget pruned search at x = 0 doubles per factor
    for n in range(1, 13):
        spec = ["--family", "sinc-power", "--n", str(n)]
        reqs.append(exact_request("integral", [1] * n, None, spec, 12))
        reqs.append(exact_request("weighted-integral", [1] * n, 1 + n % 2, spec, 12))
    # pruning runs out of budget and falls back to the full spline
    reqs.append(exact_request("integral", [1] * 16, None,
                              ["--family", "sinc-power", "--n", "16", "--node-budget", "1000"], 12))
    reqs.append(spline_dump_request(refs.odd_harmonic_betas(6), ["--family", "odd-harmonic", "--n", "6"]))
    reqs.append(spline_dump_request([1] * 16, ["--family", "sinc-power", "--n", "16"]))
    # seeded corpus: sizes cycle 1..5 factors, scales a/d with d <= 9;
    # with up to 7 factors the corpus cost alone moved 0.72-1.18 s by seed
    for i in range(100):
        betas = []
        for _ in range(1 + i % 5):
            d = rng.randint(1, 9)
            betas.append(Fraction(rng.randint(1, min(2, d)), d))
        spec = ["--betas", _fmt(betas)]
        if 1 in betas:
            reqs.append(exact_request("deficit", betas, i % 3, spec, 10))
        elif i % 2 == 0:
            reqs.append(exact_request("integral", betas, None, spec, 12))
        else:
            reqs.append(exact_request("weighted-integral", betas, 1 + (i // 2) % 2, spec, 12))
        if i % 10 == 9:
            reqs.append(spline_dump_request(betas, spec))
    return reqs


# ---------------------------------------------------------------------------
# checks: breaking points
# ---------------------------------------------------------------------------


def check_odd_harmonic_breakpoint(threshold: Fraction, n: int) -> str | None:
    """S_n < t <= S_{n+1} by the digamma closed form."""
    below, above = refs.partial_sum_gaps(threshold, n)
    if below > refs.GAP_MARGIN and above > refs.GAP_MARGIN:
        return None
    return "n=%d: t - S_n = %s, S_(n+1) - t = %s" % (n, mpmath.nstr(below, 5), mpmath.nstr(above, 5))


def breakpoint_cli_request(threshold: Fraction, expected_n: int | None = None) -> Req:
    def check(output):
        report, err = _cli_json(output)
        if err:
            return err
        n = report["breaking_point"]
        if expected_n is not None and n != expected_n:
            return "t=%s gave %d, expected %d" % (_rat(threshold), n, expected_n)
        if refs.parse_rat(report["threshold"]) != threshold:
            return "threshold echoed as %s" % report["threshold"]
        return check_odd_harmonic_breakpoint(threshold, n)

    return Req({"cli": ["--format", "json", "breakpoint", "--threshold", _rat(threshold)]}, check)


def check_family_breakpoint(betas, threshold: Fraction, n: int) -> str | None:
    """sum of the first n+1 scales < t <= sum of the first n+2 scales."""
    below, upto = sum(betas[: n + 1], Fraction(0)), sum(betas[: n + 2], Fraction(0))
    return None if below < threshold <= upto else "n=%d: partial sums %s, %s around t=%s" % (
        n, below, upto, threshold)


def family_breakpoint_request(family, threshold: Fraction) -> Req:
    """breaking_point_report on a 'constant' or 'custom' family."""
    kind, arg = family
    payload = {"lib": "breaking_point_report", "family": [kind, arg], "threshold": _rat(threshold)}

    def check(result):
        n = result["n"]
        if kind == "constant":
            beta = Fraction(arg)
            return check_family_breakpoint([beta] * (n + 2), threshold, n)
        return check_family_breakpoint([Fraction(b) for b in arg], threshold, n)

    return Req(payload, check)


def near_partial_sum_request(m: int, threshold: Fraction) -> Req:
    """`breakpoint` at a threshold in (S_(m-1), S_m] that is S_m itself or
    within 2^-NEAR_HIT_BITS below it, closer than the closed form can
    resolve.  The exact partial sums place it, so n must be m - 1."""
    s_m = refs.exact_partial_sum(m)
    if not s_m - Fraction(1, 2 * m + 1) < threshold <= s_m:
        raise ValueError("threshold is not in (S_(m-1), S_m]")

    def check(output):
        report, err = _cli_json(output)
        if err:
            return err
        if refs.parse_rat(report["threshold"]) != threshold:
            return "threshold echoed as %s" % report["threshold"][:60]
        n = report["breaking_point"]
        return None if n == m - 1 else "t in (S_%d, S_%d] gave n=%d, expected %d" % (m - 1, m, n, m - 1)

    return Req({"cli": ["--format", "json", "breakpoint", "--threshold", _rat(threshold)]}, check)


def below_by_bits(x: Fraction, bits: int) -> Fraction:
    """The largest multiple of 2^-bits strictly below x (x not dyadic)."""
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def odd_sum_request(n: int) -> Req:
    def check(text):
        p, q = text.split("/")
        value = Fraction(int(p, 16), int(q, 16))
        if value != refs.exact_partial_sum(n):
            return "odd_harmonic_sum(%d) differs from the Fraction sum" % n
        with mpmath.workdps(refs.CLOSED_FORM_DPS):
            if abs(refs.closed_form_partial_sum(n) - mpmath.mpf(value.numerator) / value.denominator) > 1e-50:
                return "odd_harmonic_sum(%d) differs from the closed form" % n
        return None

    return Req({"lib": "odd_harmonic_sum", "n": n}, check)


def breakpoint_scan(seed: int) -> list:
    rng = random.Random(seed)
    reqs = [breakpoint_cli_request(Fraction(t), n) for t, n in ANCHORS]
    # one seeded rational in each of 24 strata over [2, 3), 16 over
    # [3, 5) and 8 over [5, 7), so the scan length (about 0.14 e^(2t)
    # terms) varies little between seeds; past S_10000 (about 5.6) every
    # threshold pays the whole exact phase, so the cost flattens there.
    # The [2, 3) strata, at most 55 terms each, hold the median request.
    for lo, width in [(2 + Fraction(i, 24), Fraction(1, 24)) for i in range(24)] + \
                     [(3 + Fraction(i, 8), Fraction(1, 8)) for i in range(16)] + \
                     [(5 + Fraction(i, 4), Fraction(1, 4)) for i in range(8)]:
        q = rng.randint(2, 60)
        reqs.append(breakpoint_cli_request(lo + width * Fraction(rng.randrange(q), q)))
    # t = S_m exactly, below the exact/interval switch: the exact phase
    # compares against a p/q of about 1,700 digits
    m = 2000 + rng.randrange(40)
    reqs.append(near_partial_sum_request(m, refs.exact_partial_sum(m)))
    # t within 2^-512 below S_m, just past the switch: the interval scan
    # straddles at 128, 256 and 512 bits and decides at 1024
    m = EXACT_TERM_CUTOFF + 1 + rng.randrange(40)
    reqs.append(near_partial_sum_request(m, below_by_bits(refs.exact_partial_sum(m), NEAR_HIT_BITS)))
    for lo in (100, 400, 1600):
        reqs.append(odd_sum_request(lo + rng.randrange(lo)))
    for _ in range(2):
        beta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        reqs.append(family_breakpoint_request(("constant", _rat(beta)),
                                              beta * (2 + Fraction(rng.randrange(10**6), rng.randint(1, 97)))))
    betas = [Fraction(rng.randint(1, 5), rng.randint(1, 9)) for _ in range(50)]
    partial = [sum(betas[: j + 1], Fraction(0)) for j in range(50)]
    j = rng.randrange(2, 49)
    for t in (partial[j], partial[j] - betas[j] / rng.randint(2, 9)):  # an exact hit and an interior point
        reqs.append(family_breakpoint_request(("custom", [_rat(b) for b in betas]), t))
    return reqs


# ---------------------------------------------------------------------------
# checks: numeric oracle
# ---------------------------------------------------------------------------


def check_close(value, reference, tol, what: str) -> str | None:
    diff = abs(value - reference)
    return None if diff <= tol else "%s: %s vs reference %s (|diff| %s > %s)" % (
        what, mpmath.nstr(value, 15), mpmath.nstr(reference, 15), mpmath.nstr(diff, 3), tol)


def _as_mpf(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def check_oracle_integral(value, expected: Fraction, rel_tol=ORACLE_REL_TOL) -> str | None:
    """Within the requested rel_tol of the reference rational."""
    with mpmath.workdps(50):
        e = _as_mpf(expected)
        return check_close(value, e, rel_tol * abs(e), "integral")


def numeric_integral_request(pi_betas, weight: int | None) -> Req:
    betas = [Fraction(b) for b in pi_betas]
    expected = refs.weighted_integral(betas, weight) if weight is not None else refs.plain_integral(betas)
    payload = {"lib": "numeric_integral", "pi_betas": [_rat(b) for b in betas], "weight": weight,
               "rel_tol": ORACLE_REL_TOL}
    return Req(payload, lambda text: check_oracle_integral(mpmath.mpf(text), expected))


def check_theorem1(report: dict, expected: Fraction | None) -> str | None:
    """Both sides agree within tol, the hypothesis holds, and when the
    scales are rational multiples of pi both sides equal the reference."""
    if not report.get("hypothesis_holds"):
        return "hypothesis reported as violated"
    lhs, rhs, tol = mpmath.mpf(report["lhs"]), mpmath.mpf(report["rhs"]), report["tolerance"]
    problem = check_close(lhs, rhs, tol, "sum vs integral")
    if problem is None and not report["equal_within_tol"]:
        problem = "equal_within_tol is false although |lhs - rhs| <= tol"
    if problem is None and expected is not None:
        problem = check_close(lhs, _as_mpf(expected), tol, "sum") or check_close(rhs, _as_mpf(expected), tol, "integral")
    return problem


def theorem1_request(pi_betas, alternating: bool) -> Req:
    betas = [Fraction(b) for b in pi_betas]
    expected = refs.weighted_integral(betas, 0) if alternating else refs.plain_integral(betas)
    payload = {"lib": "verify_theorem1", "pi_betas": [_rat(b) for b in betas], "alternating": alternating}
    return Req(payload, lambda report: check_theorem1(report, expected))


def check_lower_bound(report: dict) -> str | None:
    if report["hypothesis_holds"] or report["inequality_holds"]:
        return "expected a violated hypothesis with a failing inequality"
    return (check_close(mpmath.mpf(report["lhs"]), mpmath.mpf(EXAMPLE6[0][1]), EXAMPLE6_TOL, "lhs")
            or check_close(mpmath.mpf(report["rhs"]), mpmath.mpf(EXAMPLE6[1][1]), EXAMPLE6_TOL, "rhs"))


def _cli_check(argv, fn) -> Req:
    def check(output):
        report, err = _cli_json(output)
        return err or fn(report)

    return Req({"cli": ["--format", "json"] + argv}, check)


def known_failure_request() -> Req:
    """verify_theorem1([2, 1], alternating=True) raises today:
    numeric_sum bounds an alternating two-factor tail by the absolute
    series, which cannot reach tol/8 within MAX_SUM_TERMS.  Once mended,
    the two sides must agree within tol."""
    return Req({"lib": "verify_theorem1", "scales": [2, 1], "alternating": True},
               lambda report: check_theorem1(report, None), known_failure=True)


def oracle_crosscheck(seed: int) -> list:
    rng = random.Random(seed)
    reqs = []
    # lower-bound computes both Example 6 sums; the check holds each to its paper value
    reqs.append(_cli_check(["lower-bound", "--a0", "5pi/4", "--rest", "1,1", "--abs-tol", EXAMPLE6_ABS_TOL],
                           check_lower_bound))
    # 2 to 5 factors; 6, 7 and 8 take 1, 2 and 4.5 s
    for p in range(2, 6):
        reqs.append(numeric_integral_request(refs.odd_harmonic_betas(p - 1), None))
    # weighted: sinc^2(pi t) sinc(beta pi t) against 2 cos(pi t)
    reqs.append(numeric_integral_request([1, 1, Fraction(rng.randint(3, 11), 12)], 0))
    # ten short two-factor quadratures with scales pi(3/4 +- d), one d in
    # each of ten strata of [0, 1/4): the fixed sum keeps the panel count
    # the same, and the cost, which moves with d between 0.09 and 0.16 s,
    # is spread the same way for every seed; they hold the median request
    for j in range(10):
        q = rng.randint(2, 24)
        d = (j + Fraction(rng.randrange(q), q)) / 40
        reqs.append(numeric_integral_request([Fraction(3, 4) + d, Fraction(3, 4) - d], None))
    for alternating in (False, True):
        # three scales pi*beta with sum(beta) < 2 (plain) or < 3 (alternating)
        lo, hi = (4, 7) if not alternating else (8, 11)
        reqs.append(theorem1_request([Fraction(rng.randint(lo, hi), 12) for _ in range(3)], alternating))
    reqs.append(known_failure_request())
    return reqs


WORKLOADS = {
    "exact-deficits": exact_deficits,
    "breakpoint-scan": breakpoint_scan,
    "oracle-crosscheck": oracle_crosscheck,
}


# One pass, probes included, on a 2-CPU Xeon VM, Python 3.11, Fraction
# backend, with the host at its slower speed.  Fixed, not measured per
# run, so that a run's pass count never flips with the machine's speed.
NOMINAL_PASS_S = {"exact-deficits": 3.5, "breakpoint-scan": 3, "oracle-crosscheck": 6}
MIN_PASSES = 3

# The worker's probes whose time scales a pass (see run.py).  They
# should slow down with the host as the pass does.  Fraction arithmetic
# tracks exact-deficits and oracle-crosscheck.  About 40% of a
# breakpoint-scan pass is big-integer work of the exact phase, which
# slowed far less; scaled by the Fraction probe alone, that pass spread
# by 0.13 over ten runs.
PASS_PROBES = {
    "exact-deficits": ["fraction"],
    "breakpoint-scan": ["fraction", "bigint"],
    "oracle-crosscheck": ["fraction"],
}


def passes(workload: str, seconds: float) -> int:
    """Whole passes that fit in `seconds` at the nominal pass length;
    at least MIN_PASSES, so that two are timed after the warm-up pass."""
    return max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))


def build(workload: str, seed: int) -> list:
    """The workload's requests, spread out: request i of the generated
    list goes to the place given by the fractional part of i times the
    golden ratio.  Requests of similar cost are generated together.
    Spread over the pass, each one's timings fall in other stretches of
    the host's load than its neighbours', so the times of a group do not
    all hang on the same stretches.  The order does not depend on
    the seed, so neither does which caches are warm for a request."""
    reqs = WORKLOADS[workload](seed)
    return [reqs[i] for i in sorted(range(len(reqs)), key=lambda i: (i * 0.6180339887498949) % 1)]
