"""Each output check accepts a right answer and rejects a perturbed one.

Run with ``python -m pytest bench``.  Nothing here imports sincprod:
right answers come from refs.py, or are written out by hand.
"""

import json
from fractions import Fraction

import mpmath
import pytest

import refs
import workloads as wl


def cli_output(report, rc=0):
    return {"rc": rc, "out": report if isinstance(report, str) else json.dumps(report), "err": ""}


def bump_digit(text: str, index: int) -> str:
    """Change the digit at `index` (counted from the end) of a "p/q" string."""
    chars = list(text)
    pos = len(chars) - 1 - index
    chars[pos] = "1" if chars[pos] != "1" else "2"
    return "".join(chars)


# ---------------------------------------------------------------------------
# breaking points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t,n", wl.ANCHORS)
def test_breakpoint_anchor_and_off_by_one(t, n):
    req = wl.breakpoint_cli_request(Fraction(t), n)
    right = {"breaking_point": n, "threshold": "%d/1" % t}
    assert wl.verdict(req, cli_output(right)) is None
    for wrong in (n - 1, n + 1):
        assert wl.verdict(req, cli_output(dict(right, breaking_point=wrong)))
        assert wl.check_odd_harmonic_breakpoint(Fraction(t), wrong)


def test_breakpoint_on_seeded_threshold_uses_closed_form():
    t = Fraction(1037, 132)  # 7.856...
    lo, hi = 0, 10**7  # largest n with S_n < t, by bisection on the closed form
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if refs.partial_sum_gaps(t, mid)[0] > 0 else (lo, mid - 1)
    n = lo
    req = wl.breakpoint_cli_request(t)
    assert wl.verdict(req, cli_output({"breaking_point": n, "threshold": "1037/132"})) is None
    assert wl.verdict(req, cli_output({"breaking_point": n + 1, "threshold": "1037/132"}))
    assert wl.verdict(req, cli_output({"breaking_point": n, "threshold": "1037/131"}))


def test_exact_and_near_hits_require_m_minus_one():
    s60 = refs.exact_partial_sum(60)
    for t in (s60, wl.below_by_bits(s60, wl.NEAR_HIT_BITS)):
        req = wl.near_partial_sum_request(60, t)
        echo = "%d/%d" % (t.numerator, t.denominator)
        assert wl.verdict(req, cli_output({"breaking_point": 59, "threshold": echo})) is None
        assert wl.verdict(req, cli_output({"breaking_point": 60, "threshold": echo}))
        assert wl.verdict(req, cli_output({"breaking_point": 58, "threshold": echo}))
    assert 0 < s60 - wl.below_by_bits(s60, wl.NEAR_HIT_BITS) < Fraction(1, 2 ** wl.NEAR_HIT_BITS)
    with pytest.raises(ValueError):
        wl.near_partial_sum_request(60, s60 + Fraction(1, 10**6))


def test_family_breakpoints_off_by_one():
    const = wl.family_breakpoint_request(("constant", "1/3"), Fraction(5, 2))  # 7 * 1/3 < 5/2 <= 8 * 1/3
    assert wl.verdict(const, {"n": 6}) is None
    assert wl.verdict(const, {"n": 7})
    betas = ["1/2", "1/3", "1/4", "1/5"]
    hit = wl.family_breakpoint_request(("custom", betas), Fraction(13, 12))  # = 1/2 + 1/3 + 1/4
    assert wl.verdict(hit, {"n": 1}) is None
    assert wl.verdict(hit, {"n": 2})


def test_reference_partial_sums():
    assert refs.exact_partial_sum(300) == sum((Fraction(1, 2 * k + 1) for k in range(301)), Fraction(0))
    assert refs.exact_partial_sum(6) == Fraction(88069, 45045)
    s = refs.exact_partial_sum(300)
    with mpmath.workdps(refs.CLOSED_FORM_DPS):
        assert abs(refs.closed_form_partial_sum(300) - mpmath.mpf(s.numerator) / s.denominator) < 1e-50


def test_odd_harmonic_sum_digit_change():
    req = wl.odd_sum_request(40)
    s = refs.exact_partial_sum(40)
    assert wl.verdict(req, "%x/%x" % (s.numerator, s.denominator)) is None
    assert wl.verdict(req, "%x/%x" % (s.numerator + 16, s.denominator))


# ---------------------------------------------------------------------------
# exact engine
# ---------------------------------------------------------------------------


def exact_report(betas, value, digits):
    return {
        "exact": "%d/%d" % (value.numerator, value.denominator),
        "decimal": str(refs.rounded(value, digits)),
        "spec": ["%d/%d" % (b.numerator, b.denominator) for b in betas],
        "support_radius": "%d/%d" % (sum(betas).numerator, sum(betas).denominator),
    }


def test_exact_report_rejects_changed_digit():
    betas = refs.odd_harmonic_betas(7)
    value = refs.plain_integral(betas)
    assert value < 1  # the first odd-harmonic integral below 1
    req = wl.exact_request("integral", betas, None, ["--family", "odd-harmonic", "--n", "7"], 12)
    right = exact_report(betas, value, 12)
    assert wl.verdict(req, cli_output(right)) is None
    for index in (0, 3, len(right["exact"]) // 2 + 2):
        assert wl.verdict(req, cli_output(dict(right, exact=bump_digit(right["exact"], index))))
    assert wl.verdict(req, cli_output(dict(right, decimal="0.999999999986")))
    assert wl.verdict(req, cli_output(right, rc=3))


def test_deficit_of_57_factors_checks_paper_decimal():
    betas = refs.odd_harmonic_betas(56)
    deficit = 1 - refs.weighted_integral(betas, 0)
    req = wl.exact_request("deficit", betas, 1, [], 10, literal="1.484870809e-138")
    right = exact_report(betas, deficit, 10)
    right["decimal"] = "1.484870809e-138"
    assert wl.verdict(req, cli_output(right)) is None
    assert wl.verdict(req, cli_output(dict(right, exact=bump_digit(right["exact"], 5))))


def test_spline_dump_checks():
    # F for sinc^2(pi t) is the hat (2 - |x|) / 2 on [-2, 2]
    hat = "-2/1,0/1,1/1,1/2\n0/1,2/1,1/1,-1/2\n"
    req = wl.spline_dump_request([1, 1], [])
    assert wl.verdict(req, cli_output(hat)) is None
    assert wl.verdict(req, cli_output(hat.replace("-1/2", "-1/3")))
    assert wl.verdict(req, cli_output(hat.replace("1/1,1/2", "1/1,1/3")))
    assert wl.verdict(req, cli_output("-2/1,0/1,1/1,1/2\n1/1,2/1,1/1,-1/2\n"))  # a gap


def test_reference_transform_matches_hand_values():
    assert refs.transform_at([1], 0) == 1 and refs.transform_at([1], 1) == Fraction(1, 2)
    assert refs.transform_at([1, 1], Fraction(1, 2)) == Fraction(3, 4)
    # Borwein: the integral stays 1 through 1/13, then drops below
    assert refs.plain_integral(refs.odd_harmonic_betas(6)) == 1
    assert refs.plain_integral(refs.odd_harmonic_betas(7)) == Fraction(
        467807924713440738696537864469, 467807924720320453655260875000)


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------


def test_oracle_integral_moved_by_ten_tol():
    betas = refs.odd_harmonic_betas(7)
    req = wl.numeric_integral_request(betas, None)
    exact = refs.plain_integral(betas)
    with mpmath.workdps(50):
        e = mpmath.mpf(exact.numerator) / exact.denominator
        tol = wl.ORACLE_REL_TOL * e
        assert wl.verdict(req, mpmath.nstr(e + tol / 10, 40)) is None
        assert wl.verdict(req, mpmath.nstr(e + 10 * tol, 40))
        assert wl.verdict(req, mpmath.nstr(mpmath.mpf(1), 40))  # misses the 1.47e-11 deficit


def test_example6_sums_moved_by_ten_tol():
    good = {"lhs": "0.8999999997", "rhs": "0.996", "hypothesis_holds": False, "inequality_holds": False}
    assert wl.check_lower_bound(good) is None
    assert wl.check_lower_bound(dict(good, inequality_holds=True))
    for side, (_, reference) in zip(("lhs", "rhs"), wl.EXAMPLE6):
        value = mpmath.mpf(reference)
        assert wl.check_lower_bound(dict(good, **{side: mpmath.nstr(value + wl.EXAMPLE6_TOL / 10, 17)})) is None
        assert wl.check_lower_bound(dict(good, **{side: mpmath.nstr(value + 10 * wl.EXAMPLE6_TOL, 17)}))
    assert wl.check_lower_bound(dict(good, lhs="0.90000005"))


def test_theorem1_moved_by_ten_tol():
    betas = [Fraction(1, 2), Fraction(1, 2), Fraction(7, 12)]
    req = wl.theorem1_request(betas, False)
    value = refs.plain_integral(betas)
    v = mpmath.mpf(value.numerator) / value.denominator
    tol = wl.THEOREM1_TOL

    def report(lhs, rhs):
        return {"lhs": mpmath.nstr(lhs, 17), "rhs": mpmath.nstr(rhs, 17), "tolerance": tol,
                "hypothesis_holds": True, "equal_within_tol": abs(lhs - rhs) <= tol}

    assert wl.verdict(req, report(v, v + tol / 10)) is None
    assert wl.verdict(req, report(v + 10 * tol, v + 10 * tol))  # agree, but not with the reference
    assert wl.verdict(req, report(v, v + 10 * tol))
    known = wl.known_failure_request()
    assert known.known_failure
    assert wl.verdict(known, report(v, v)) is None
    assert wl.verdict(known, report(v, v + 10 * tol))


def test_request_counts_do_not_depend_on_seed():
    for build in wl.WORKLOADS.values():
        counts = {len(build(seed)) for seed in (0, 1, 7)}
        assert len(counts) == 1


def _report(oks, outputs):
    digests = [json.dumps(o, sort_keys=True) for o in outputs]
    return {"passes": [{"ok": oks, "digest": digests}], "outputs": outputs}


def test_only_the_known_failure_may_fail():
    import run

    def right(output):
        return None if output == "right" else "wrong"

    reqs = [wl.Req({"lib": "a"}, right), wl.Req({"lib": "b"}, right, known_failure=True)]
    failure = {"error": "ToleranceUnreachableError", "message": ""}
    assert run.check_reports(reqs, [_report([True, False], ["right", failure])]) == (2, 1, [])
    attempted, failed, problems = run.check_reports(reqs, [_report([False, False], [failure, failure])])
    assert (attempted, failed) == (2, 2) and len(problems) == 1 and problems[0].startswith("FAILED")
    attempted, failed, problems = run.check_reports(reqs, [_report([True, True], ["right", "moved"])])
    assert (attempted, failed) == (2, 0) and len(problems) == 1 and problems[0].startswith("WRONG")
