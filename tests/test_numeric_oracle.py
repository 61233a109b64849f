import itertools
import math
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sincprod.borwein_engine import (
    CosineWeightSpec,
    SincProductSpec,
    integral_exact,
    point_eval_pruned,
    weighted_integral_exact,
)
from sincprod import numeric_oracle
from sincprod.numeric_oracle import (
    MAX_ORACLE_WORK,
    RealScales,
    ToleranceUnreachableError,
    _by_parts,
    _differences,
    _drift_bound,
    _fixed,
    _head_length,
    _kernel_terms,
    _near_prefix,
    _sinc_terms,
    _tail,
    bandlimited_kernel,
    example5_integral,
    lower_bound_check,
    numeric_integral,
    numeric_sum,
    parse_scale,
    verify_ft_example5,
    verify_theorem1,
)
from sincprod.rational import rat


def _pi_scales(n):
    with mp.workprec(200):
        return [mp.pi / (2 * k + 1) for k in range(n + 1)]


def _pi_times(betas):
    with mp.workprec(200):
        return tuple(mp.pi * rat(b).numerator / rat(b).denominator for b in betas)


# -- integrals ----------------------------------------------------------------


def test_integral_odd_harmonic_six_is_one():
    v = numeric_integral(_pi_scales(6), rel_tol=1e-10)
    assert abs(v - 1) < 1e-8


def test_integral_sinc_squared():
    v = numeric_integral([float(mp.pi)] * 2, rel_tol=1e-10)
    assert abs(v - 1) < 1e-9


def test_integral_matches_exact_engine_n7():
    exact = integral_exact(SincProductSpec.odd_harmonic(7)).exact_value
    v = numeric_integral(_pi_scales(7), rel_tol=1e-12)
    with mp.workprec(120):
        e = mp.mpf(exact.numerator) / mp.mpf(exact.denominator)
        assert abs(v - e) / e < 1e-6


def test_integral_weighted_matches_exact_engine():
    # 2 cos(pi t) weight over nine factors, against the exact deficit path
    exact = SincProductSpec.odd_harmonic(8)
    want = weighted_integral_exact(exact, CosineWeightSpec(0)).exact_value
    v = numeric_integral(RealScales(tuple(_pi_scales(8)), weight=CosineWeightSpec(0)), rel_tol=1e-10)
    with mp.workprec(120):
        w = mp.mpf(want.numerator) / mp.mpf(want.denominator)
        assert abs(v - w) < 1e-9


CROSS_SEED, CROSS_SPECS = 10, 60


def _random_spec(rng):
    """2 to 9 scales beta = a/d with a <= 4 and d <= 9, and no weight or W_m with m <= 2."""
    return [rat(rng.randint(1, 4), rng.randint(1, 9)) for _ in range(rng.randint(2, 9))], rng.choice([None, 0, 1, 2])


def _oracle_minus_exact(betas, m, oracle_betas):
    """|numeric_integral - the exact engine's value| for prod sinc(pi beta t),
    times W_m unless m is None, with the oracle given oracle_betas, read
    by parse_scale, at rel_tol = abs_tol = 1e-15."""
    weight = None if m is None else CosineWeightSpec(m)
    spec = SincProductSpec(tuple(betas))
    exact = integral_exact(spec) if weight is None else weighted_integral_exact(spec, weight)
    scales = tuple(parse_scale("%dpi/%d" % (b.numerator, b.denominator)) for b in oracle_betas)
    v = numeric_integral(RealScales(scales, weight=weight), rel_tol=1e-15, abs_tol=1e-15)
    with mp.workprec(200):
        return abs(v - _exact_float(exact.exact_value))


def test_oracle_matches_exact_engine_on_random_specs():
    # the two engines share no representation: exact rationals from the
    # knot measure against a series head plus an E_p tail in floating point
    rng = random.Random(CROSS_SEED)
    for _ in range(CROSS_SPECS):
        betas, m = _random_spec(rng)
        assert _oracle_minus_exact(betas, m, betas) <= 1e-15, (betas, m)


def test_random_spec_cross_check_catches_a_wrong_beta():
    # the corpus's first unweighted spec (a weighted one may be 0 near its
    # betas), its largest beta off by 1e-9 on the oracle's side
    rng, m = random.Random(CROSS_SEED), 0
    while m is not None:
        betas, m = _random_spec(rng)
    wrong = sorted(betas)[:-1] + [max(betas) + rat(1, 10**9)]
    assert _oracle_minus_exact(betas, m, betas) <= 1e-15
    assert _oracle_minus_exact(betas, m, wrong) > 1e-15


def test_integral_kernel_factor_counts():
    # sin(2t)/t = 2 sinc(2t) is one more scale: the integral of
    # sinc(t) sin(2t)/t dt is pi, as the wider band covers the narrower
    v = 2 * numeric_integral([1.0, 2.0], rel_tol=1e-9)
    assert abs(v - float(mp.pi)) < 1e-7


def _expint(p, x):
    """E_p(-i x) from one mp.expint call: E_1, then
    p E_(p+1)(z) = e^(-z) - z E_p(z) in mpc arithmetic (mpmath's own
    E_p, p >= 2, takes 20 ms at 296 bits and 370 ms at 840)."""
    if x == 0:
        return mp.mpf(1) / (p - 1)
    E, z = mp.expint(1, mp.mpc(0, -x)), mp.mpc(0, -x)
    for q in range(1, p):
        E = (mp.exp(-z) - z * E) / q
    return E


def test_expint_reference_matches_mpmath():
    with mp.workprec(296):
        for p, x in [(2, mp.mpf(3) / 1000), (5, mp.pi), (12, mp.mpf(1) / 3), (3, mp.mpf(14))]:
            assert abs(_expint(p, x) - mp.expint(p, mp.mpc(0, -x))) <= mp.ldexp(1, -280)


def _naive_tail(factors, T):
    """The tail with one E_p per expansion term, unmerged; E_p comes from
    _expint, and an equal (w, p) reuses it."""
    total, seen = mp.mpf(0), {}
    for combo in itertools.product(*factors):
        c = mp.fprod(term[0] for term in combo)
        w = mp.fsum(term[1] for term in combo)
        p = sum(term[2] for term in combo)
        if (w, p) not in seen:
            seen[w, p] = _expint(p, w * T)
        total += (c * T ** (1 - p) * seen[w, p]).real
    return total


@pytest.mark.parametrize(
    "scales, weight",
    [
        ([1] * 6, None),
        (_pi_scales(4), CosineWeightSpec(1)),
        (_pi_times([rat(2, 3)] * 3), CosineWeightSpec(0)),  # coincident frequencies
    ],
)
def test_tail_merge_matches_naive_sum(scales, weight):
    with mp.workprec(128):
        a_mp = [mp.mpf(a) for a in scales]
        omega_max = mp.fsum(a_mp) + (2 * weight.m + 1) * mp.pi if weight else mp.fsum(a_mp)
        T = mp.pi / omega_max
        factors = [_sinc_terms(a) for a in a_mp]
        if weight:  # 2 cos(k pi t) = e^(i k pi t) + e^(-i k pi t)
            factors.append([(mp.mpc(1), s * k * mp.pi, 0) for k in range(1, 2 * weight.m + 2, 2) for s in (1, -1)])
        got = _tail(factors, T, MAX_ORACLE_WORK)
        with mp.extraprec(128):
            want = _naive_tail(factors, T)
        assert abs(got - want) <= mp.mpf("1e-30") * abs(want)


@pytest.mark.parametrize("a, T, J", [([mp.mpf(1) / 2], 9, 2), ([mp.mpf(1) / 2, mp.mpf(3) / 10], 14, 1)])
def test_kernel_tail_merge_matches_naive_sum(a, T, J):
    # sin(t)/t times f_J(a_k t): terms of several p share each frequency,
    # and E_p past E_1 comes from the recurrence
    with mp.workprec(128):
        factors = [_sinc_terms(mp.mpf(1))] + [_kernel_terms(x, J) for x in a]
        got = _tail(factors, mp.mpf(T), MAX_ORACLE_WORK)
        with mp.extraprec(128):
            want = _naive_tail(factors, mp.mpf(T))
        assert abs(got - want) <= mp.mpf("1e-30") * abs(want)


def _tail_count(factors, T, P):
    """_tail_sum's rounding count, in units of 2^-P: over the unmerged terms
    grouped by their folded (w, p), (d + s 2^-19 + 1) |E_p| + (s + 2^-P) e_p,
    for the terms weighted c' = c T^(q - p), q the least p of their factor,
    R = T^(1 - sum of the q) and u = 2^(e - P) (1 + 2^-16) for each factor,
    2^e above the largest part of its c' at P + 20 bits."""
    least = [min(p for _, _, p in f) for f in factors]
    with mp.workprec(P + 20):
        weighted = [[c * T ** (q - p) for c, _, p in f] for f, q in zip(factors, least)]
    us = [mp.ldexp(1 + mp.ldexp(1, -16), max(mp.mag(v) for c in f for v in (c.real, c.imag) if v) - P)
          for f in weighted]
    R, groups = T ** (1 - sum(least)), {}
    for combo in itertools.product(*factors):
        w, p = abs(mp.fsum(term[1] for term in combo)), sum(term[2] for term in combo)
        l1 = [(abs(mp.re(c)) + abs(mp.im(c))) * T ** (q - p) for (c, _, p), q in zip(combo, least)]
        s0, s = groups.get((w, p), (0, 0))
        groups[w, p] = s0 + mp.fprod(l1) * R, s + mp.fprod(map(sum, zip(l1, us))) * R
    count = 0
    for (w, p), (s0, s) in groups.items():
        x, e = w * T, 1
        if w:
            K = 0
            if x <= 4:  # the first k with x^k / k! < 2^-P
                K = next(k for k in itertools.count(1) if x**k / mp.factorial(k) < mp.ldexp(1, -P))
            e = h = 6 * K + 9
            for q in range(1, p):
                e = (h + x * e) / q + 2
        size = 1 / mp.mpf(p - 1) if p >= 2 else abs(mp.log(x)) + 3
        count += (mp.ldexp(s - s0, P) + mp.ldexp(s, -19) + 1) * size + (s + mp.ldexp(1, -P)) * e
    return count


def _sinc_tail_factors(scales, m=None):
    """The tail terms of prod_k sinc(a_k t), times W_m(t) when m is given, and T = pi / omega_max."""
    a_mp = [mp.mpf(a) for a in scales]
    factors, omega_max = [_sinc_terms(a) for a in a_mp], mp.fsum(a_mp)
    if m is not None:
        factors.append([(mp.mpc(1), s * k * mp.pi, 0) for k in range(1, 2 * m + 2, 2) for s in (1, -1)])
        omega_max += (2 * m + 1) * mp.pi
    return factors, mp.pi / omega_max


@pytest.mark.parametrize("prec", [128, 400])
@pytest.mark.parametrize(
    "build",
    [
        lambda: _sinc_tail_factors([1, 1]),  # frequencies 2 and 0
        lambda: _sinc_tail_factors([1, mp.mpf(1) / 3, mp.mpf(2) / 7]),
        lambda: _sinc_tail_factors(_pi_scales(3)),
        lambda: _sinc_tail_factors(_pi_scales(4), 1),
        lambda: _sinc_tail_factors(_pi_scales(6)),
        lambda: _sinc_tail_factors([1] * 8, 0),
        lambda: _sinc_tail_factors([1] * 6 + [mp.mpf(1) / 2] * 6),
        lambda: _sinc_tail_factors([1] * 3 + [mp.mpf(1) / 2] * 3 + [mp.mpf(1) / 3] * 3, 0),
        lambda: ([_sinc_terms(mp.mpf(1)), _kernel_terms(mp.mpf(1) / 2, 2)], mp.mpf(9)),
        lambda: ([_sinc_terms(mp.mpf(1))] + [_kernel_terms(a, 1) for a in (mp.mpf(1) / 2, mp.mpf(3) / 10)], mp.mpf(14)),
        # a kernel factor's c grow as a^(-2j): 10^18 apart at j = 0 and 9
        lambda: ([_sinc_terms(mp.mpf(1)), _kernel_terms(mp.mpf(1) / 10, 10)], mp.mpf(40)),
    ],
    ids=["2", "3", "4", "5-weighted", "7", "8-weighted", "12", "9-weighted", "kernel-9", "kernel-14", "kernel-40"],
)
def test_tail_sum_within_its_rounding_count(build, prec):
    # the integer sum before its one division, at P = prec + 16, against the
    # unmerged terms at 2 prec + 40 bits: within the docstring's count, no slack
    with mp.workprec(prec):
        factors, T = build()
        S, P = numeric_oracle._tail_sum(factors, T, MAX_ORACLE_WORK)
    with mp.workprec(2 * prec + 40):
        error = abs(mp.ldexp(S, -2 * P) - _naive_tail(factors, T))
        assert error <= mp.ldexp(_tail_count(factors, T, prec + 16), -prec - 16)


@pytest.mark.parametrize("scales, calls", [([1] * 8, 4), (_pi_scales(4), 16)])
def test_tail_one_log_call_per_distinct_frequency(monkeypatch, scales, calls):
    # a sinc tail seeds E_1 from its power series: no expint call, and one
    # natural logarithm per distinct nonzero frequency (the one-argument
    # calls; the guard bits and the precision take logarithms to base 2)
    seen = {"expint": [], "log": []}
    for name in seen:
        f = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda *args, f=f, name=name: seen[name].append(args) or f(*args))
    numeric_integral(scales, rel_tol=1e-12)
    assert seen["expint"] == [] and sum(len(args) == 1 for args in seen["log"]) == calls


def _exact_float(x):
    with mp.workprec(200):
        return mp.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize(
    "scales, want",
    [
        (RealScales(_pi_times([rat(1, 1000)] * 3 + [rat(2)])),
         integral_exact(SincProductSpec((rat(1, 1000),) * 3 + (rat(2),))).exact_value),
        (RealScales(_pi_times([1] * 12)), integral_exact(SincProductSpec.sinc_power(12)).exact_value),
        (RealScales(tuple(_pi_scales(5)), weight=CosineWeightSpec(3)),
         weighted_integral_exact(SincProductSpec.odd_harmonic(5), CosineWeightSpec(3)).exact_value),
        (RealScales((1, 2)), None),  # integral of sinc(t) sinc(2t) is pi / 2
    ],
)
def test_short_head_tail_keeps_working_precision(monkeypatch, scales, want):
    # T = pi / omega_max makes the tail terms cancel by up to 2^26; at
    # 106 working bits, 1e-25 needs the tail's guard bits
    monkeypatch.setattr(numeric_oracle, "DEFAULT_PREC_BITS", 106)
    with mp.workprec(200):
        want = mp.pi / 2 if want is None else _exact_float(want)
    v = numeric_integral(scales, rel_tol=1e-20)
    assert abs(v - want) <= mp.mpf("1e-25") * abs(want)


def test_integral_error_estimate_checked(monkeypatch):
    head = numeric_oracle._series_head
    monkeypatch.setattr(numeric_oracle, "_series_head", lambda *args: (head(*args)[0], mp.mpf("1e-3")))
    with pytest.raises(ToleranceUnreachableError, match="rel_tol"):
        numeric_integral([1, 1], rel_tol=1e-12)
    assert numeric_integral([1, 1], rel_tol=1e-2) > 0
    # abs_tol replaces the relative check; the bound counts twice, for both half-lines
    assert numeric_integral([1, 1], rel_tol=1e-12, abs_tol=2e-3) > 0
    with pytest.raises(ToleranceUnreachableError, match="abs_tol"):
        numeric_integral([1, 1], rel_tol=1e-2, abs_tol=1e-3)


@pytest.mark.parametrize("bad", [0, -1.0, float("nan"), float("inf")])
def test_bad_tolerances_rejected(bad):
    with pytest.raises(ValueError, match="rel_tol must be a positive finite number"):
        numeric_integral([1, 1], rel_tol=bad)
    with pytest.raises(ValueError, match="abs_tol must be a positive finite number"):
        numeric_integral([1, 1], abs_tol=bad)
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        example5_integral(["0.5"], 1, tol=bad)
    with pytest.raises(ValueError, match="^tol must be a positive finite number"):
        verify_ft_example5([0], tol=bad)


@pytest.mark.parametrize(
    "scales",
    [
        # sinc(2t) sinc(t) has its transform in |w| <= 3 < pi, so against
        # 2 cos(pi t) the integral is exactly 0: no relative check can pass
        RealScales((2, 1), weight=CosineWeightSpec(0)),
        # in sampling-normalized units the support is 1/100 + 1/3 < 1, so F(1) = 0
        RealScales((mp.pi / 100, mp.pi / 3), weight=CosineWeightSpec(0)),
    ],
)
def test_zero_integral_checked_to_an_absolute_tolerance(scales):
    with pytest.raises(ToleranceUnreachableError, match="rel_tol"):
        numeric_integral(scales, rel_tol=1.25e-8)
    assert abs(numeric_integral(scales, rel_tol=1.25e-8, abs_tol=1.25e-8)) < 1e-30
    rep = verify_theorem1(scales.scales, alternating=True)
    assert rep["hypothesis_holds"] and rep["equal_within_tol"]
    assert mp.mpf(rep["tail_bound"]) <= 1e-7 / 8


@pytest.mark.parametrize("rel_tol, J", [(1e-12, 28), (1e-60, 40)])
def test_series_head_makes_no_transcendental_call(monkeypatch, rel_tol, J):
    # a count, not a time: no sine, cosine, exponential or exponential
    # integral anywhere in the integral (the tail takes one mp.log per
    # frequency), and the head's series is cut at 28 terms at 128 bits and
    # 40 at 239 bits
    calls, lengths = [], []
    for name in ("sin", "cos", "cos_sin", "expj", "expint", "exp"):
        f = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda *args, f=f: calls.append(args) or f(*args))
    length = numeric_oracle._series_length
    monkeypatch.setattr(numeric_oracle, "_series_length",
                        lambda *args: lengths.append(length(*args)[0]) or length(*args))
    v = numeric_integral(_pi_scales(4), rel_tol=rel_tol)
    assert calls == [] and lengths == [J]
    assert abs(v - 1) < rel_tol


def _float_series_length(C):
    """_series_length as a product of prec-bit roundings, its first form."""
    J, term, pi2 = 2, mp.pi**4 / 24, mp.pi**2
    while 2 * C * term > mp.ldexp(1, -mp.mp.prec - 20):
        term *= pi2 / ((2 * J + 1) * (2 * J + 2))
        J += 1
    return J, 2 * C * term


def test_series_length_matches_the_float_loop():
    # the same J at every precision from 72 to 1,200 bits and C up to 2^20,
    # and a bound no smaller than the rounded product's
    for prec in range(72, 1201, 23):
        with mp.workprec(prec):
            for C in [1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 32, 64, 100, 1000, 2**20]:
                J, bound = numeric_oracle._series_length(mp.mpf(C), mp.pi)
                float_J, float_bound = _float_series_length(mp.mpf(C))
                assert J == float_J and float_bound <= bound <= float_bound * (1 + mp.ldexp(1, -50)), (prec, C)


def _integrand(series):
    """The product of _series_head's factors, each a sum of c g(w t) over
    its terms (c, w, kind), g = cos, sinc or bandlimited_kernel by kind:
    the independent reference every head is checked against."""
    def g(kind, x):
        if kind == 2:
            return bandlimited_kernel(x)
        return mp.cos(x) if kind == 0 else (mp.sin(x) / x if x else mp.mpf(1))

    return lambda t: mp.fprod(mp.fsum(c * g(kind, w * t) for c, w, kind in f) for f in series)


def _reference(series, T, theta):
    """tanh-sinh of the product over [0, T] at the current precision, on
    panels of at most 8 of the span theta's half-periods."""
    return mp.quad(_integrand(series), mp.linspace(0, T, -(-int(mp.nint(theta / mp.pi)) // 8) + 1))


def _series_heads(run):
    """(factors, T, theta, prec, head, bound) of each _series_head call run() makes."""
    seen, series_head = [], numeric_oracle._series_head

    def spy(factors, T, theta):
        out = series_head(factors, T, theta)
        seen.append((factors, T, theta, mp.mp.prec) + out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric_oracle, "_series_head", spy)
        run()
    return seen


def _series(betas, m):
    """The head factors of prod sinc(pi beta t), times W_m(t) unless m is
    None, T = pi / omega_max at the working precision, and the span pi."""
    series = [[(1, +a, 1)] for a in _pi_times(betas)]
    if m is not None:
        series.append([(2, k * mp.pi, 0) for k in range(1, 2 * m + 2, 2)])
    return series, mp.pi / mp.fsum(max(w for _, w, _ in f) for f in series), mp.pi


def _kernel_series(a, g, n):
    """The head factors of g(t) prod_k f(a_k t), f the band-limited kernel
    and g = [(c, w, kind)] (sinc(w t) or 2 cos(w t)), over n half-periods:
    T = n pi / omega_max at the working precision, and the span n pi."""
    a = [mp.mpf(rat(x).numerator) / rat(x).denominator for x in a]
    g = [(c, mp.mpf(rat(w).numerator) / rat(w).denominator, kind) for c, w, kind in g]
    return [g] + [[(1, x, 2)] for x in a], n * mp.pi / (mp.fsum(a) + g[0][1]), n * mp.pi


@pytest.mark.parametrize("J, P", [(3, 100), (28, 150), (296, 420)])
def test_kernel_taylor_coefficients_within_their_rounding_count(J, P):
    # the premise of the kernel's series head: each integer coefficient
    # (-1)^j mu_(2j) / (2j)! is at most 1 / (2j)! (0 <= mu <= 1), and each
    # mu_(2j) is at most m_(2j) / (1 - 1/e), m_n = integral_0^1 w^n e^(-w) dw
    # by an independent tanh-sinh, and at least the stated 10 ulp below it
    mu = numeric_oracle._kernel_moments(J, P)
    assert len(mu) == J and all(0 <= m <= 1 << P for m in mu)
    with mp.workprec(P + 40):
        for j in range(J) if J < 50 else [0, 1, 2, 3, J // 2, J - 3, J - 2, J - 1]:
            exact = mp.ldexp(mp.quad(lambda w: w ** (2 * j) * mp.exp(-w), [0, 1]) / (1 - mp.exp(-1)), P)
            assert 0 <= exact - mu[j] <= 10, j


@settings(max_examples=15, deadline=None)
@given(
    betas=st.lists(st.fractions(min_value=rat(1, 8), max_value=2, max_denominator=12), min_size=2, max_size=6),
    m=st.sampled_from([None, 0, 1, 2]),
    rel_tol=st.sampled_from([1e-12, 1e-40]),
)
@example(betas=[rat(1)] * 2, m=None, rel_tol=1e-12)
@example(betas=[rat(1, 8)] * 6, m=2, rel_tol=1e-40)
@example(betas=[1, rat(1, 3), rat(1, 5), rat(1, 7)], m=None, rel_tol=1e-200)
def test_head_within_its_bound(betas, m, rel_tol):
    # the series head within its bound plus one rounding of it, against
    # tanh-sinh at twice its precision
    spec = RealScales(_pi_times(betas), weight=None if m is None else CosineWeightSpec(m))
    heads = _series_heads(lambda: numeric_integral(spec, rel_tol=rel_tol, abs_tol=rel_tol))
    assert len(heads) == 1
    for factors, T, theta, prec, head, bound in heads:
        with mp.workprec(2 * prec):
            assert abs(head - _reference(factors, T, theta)) <= bound + mp.ldexp(abs(head), 1 - prec), prec


SINC_HEADS = [([1, 1], None), ([rat(1, 8)] * 6, 2), ([1, rat(1, 3), rat(1, 5), rat(1, 7)], None),
              ([rat(1, 2), rat(2, 3), 1], 0)]
# kernels f(a t) against sinc(b t) or 2 cos(w t): over the oracle's own
# half-periods (spans 6 to 188), over 95 (spans of 298, where the oracle takes
# 60 and 2), and f(t) at a t = 63 and 261, where the terms of its series
# reach e^(a t) and only the guard bits keep the head
KERNEL_HEADS = {
    "kernel-1": ([128, 239], lambda: _kernel_series(["1"], [(1, "1", 1)], 3)),
    "kernel-1-cos": ([128, 239], lambda: _kernel_series(["1"], [(2, "1/2", 0)], 2)),
    "kernel-0.5,0.3": ([128], lambda: _kernel_series(["1/2", "3/10"], [(1, "1", 1)], 8)),
    "kernel-0.1": ([128, 239], lambda: _kernel_series(["1/10"], [(1, "1", 1)], 15)),
    "kernel-355/113000": ([80, 128], lambda: _kernel_series(["355/113000"], [(1, "1/7", 1)], 60)),
    "kernel-355/113000-95": ([80], lambda: _kernel_series(["355/113000"], [(1, "1/7", 1)], 95)),
    "kernel-1-cos0-20": ([128], lambda: _kernel_series(["1"], [(2, "0", 0)], 20)),
    "kernel-1-95": ([80], lambda: _kernel_series(["1"], [(1, "1/7", 1)], 95)),
}


@pytest.mark.parametrize(
    "prec, case",
    [pytest.param(prec, lambda b=betas, m=m: _series(b, m), id="%d-betas%d-%s" % (prec, i, m))
     for prec in (128, 239) for i, (betas, m) in enumerate(SINC_HEADS)]
    + [pytest.param(prec, case, id="%d-%s" % (prec, name))
       for name, (precs, case) in KERNEL_HEADS.items() for prec in precs],
)
def test_series_head_within_its_bound_at_its_own_scale(monkeypatch, prec, case):
    # the series cut where _series_length cuts it at prec, but summed at
    # prec + 40 bits: the truncation then dominates, and the head must lie
    # within the bound with no slack for a rounding
    with mp.workprec(prec + 40):
        series, T, theta = case()
    with mp.workprec(prec):
        chosen = numeric_oracle._series_length(mp.fprod(sum(c for c, _, _ in f) for f in series), theta)
    monkeypatch.setattr(numeric_oracle, "_series_length", lambda *args: chosen)
    with mp.workprec(prec + 40):
        head, bound = numeric_oracle._series_head(series, T, theta)
    with mp.workprec(2 * prec + 40):
        assert abs(head - _reference(series, T, theta)) <= bound


@pytest.mark.parametrize(
    "run",
    [
        lambda: example5_integral(["0.5", "0.3"], 1, tol=1e-6),
        lambda: example5_integral(["0.9"], "0.5", tol=1e-4),
        lambda: example5_integral(["355/113000"], "1/7", tol=1e-4),  # 60 half-periods
        lambda: verify_ft_example5([0], tol=1e-6),
        lambda: verify_ft_example5(["3/2"], tol=1e-6),
        lambda: example5_integral(["0.3", "0.02"], 1, tol=1e-6),  # 85 half-periods, a T = 61 at 0.3
    ],
    ids=["0.5,0.3", "0.9", "355/113000", "ft-0", "ft-3/2", "0.3,0.02"],
)
def test_kernel_heads_within_their_bound(run):
    # each kernel head the oracle forms, at its working precision, within its
    # bound plus one rounding of it, against tanh-sinh on bandlimited_kernel
    # at twice that precision
    for factors, T, theta, prec, head, bound in _series_heads(run):
        with mp.workprec(2 * prec):
            assert abs(head - _reference(factors, T, theta)) <= bound + mp.ldexp(abs(head), 1 - prec), prec


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-40, 1e-60])
@pytest.mark.parametrize("p", range(2, 9))
def test_head_matches_the_gauss_legendre_ladder(p, rel_tol):
    # a second reference beside tanh-sinh: on the head of numeric_integral's
    # sinc factors, at its working precision, the series head lies within its
    # bound plus one rounding of mpmath's Gauss-Legendre ladder at twice that
    # precision
    prec = numeric_oracle._working_prec(rel_tol)
    with mp.workprec(prec):
        series, T, theta = _series(["1/%d" % (2 * k + 1) for k in range(p)], None)
        head, bound = numeric_oracle._series_head(series, T, theta)
    with mp.workprec(2 * prec):
        ladder = mp.quad(_integrand(series), [0, T], method="gauss-legendre")
        assert abs(head - ladder) <= bound + mp.ldexp(abs(head), 1 - prec)


def test_integral_rejects_single_factor():
    with pytest.raises(ValueError):
        numeric_integral([1.0], rel_tol=1e-8)


@pytest.mark.parametrize("bad", [float("inf"), mp.inf, float("nan"), mp.nan])
def test_real_scales_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        RealScales((bad, 1.0))


# -- sums ---------------------------------------------------------------------


def test_sum_counterexample_values():
    a0 = 5 * mp.mp.pi / 4
    s1 = numeric_sum([a0, 1.0, 1.0], abs_tol=1e-10, one_sided=True)
    s2 = numeric_sum([a0, a0, a0], abs_tol=1e-10, one_sided=True)
    assert abs(s1.value - mp.mpf("0.8999999997")) < 5e-9
    assert abs(s2.value - mp.mpf("0.9960000000")) < 5e-9
    assert s1.tail_bound <= 1e-10


def test_sum_integer_scales_collapse():
    s = numeric_sum([float(mp.pi)] * 3, abs_tol=1e-9)
    assert abs(s.value - 1) < 1e-9  # only m = 0 survives


def test_sum_one_sided_relation():
    scales = [1.5, 1.0, 0.5]
    two = numeric_sum(scales, abs_tol=1e-11)
    one = numeric_sum(scales, abs_tol=1e-11, one_sided=True)
    assert abs((two.value + 1) / 2 - one.value) < 1e-10


def test_sum_tail_bound_is_rigorous():
    # halving the tolerance moves the value by at most the old bound
    scales = [1.25, 1.0, 0.75]
    a = numeric_sum(scales, abs_tol=1e-8)
    b = numeric_sum(scales, abs_tol=5e-9)
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


@pytest.mark.parametrize("one_sided", [False, True])
def test_sum_checks_its_bound_before_it_returns(monkeypatch, one_sided):
    # a tail bound past abs_tol is refused, not returned
    by_parts = numeric_oracle._by_parts

    def loose(*args):
        out = by_parts(*args)
        return out and (out[0], mp.ldexp(out[1], 40))

    scales = [1.25, 1.0, 0.75]  # a tail bound of 8.6e-26 at abs_tol 1e-20
    assert numeric_sum(scales, abs_tol=1e-20, one_sided=one_sided).tail_bound <= 1e-20
    monkeypatch.setattr(numeric_oracle, "_by_parts", loose)
    with pytest.raises(ToleranceUnreachableError, match="tail bound .* exceeds abs_tol 1e-20"):
        numeric_sum(scales, abs_tol=1e-20, one_sided=one_sided)


def test_sum_alternating_two_factors_allowed():
    s = numeric_sum([2.0, 1.5], alternating=True, abs_tol=1e-6)
    assert s.truncation_m > 10


def test_sum_preconditions():
    with pytest.raises(ValueError):
        numeric_sum([2.0, 1.5], abs_tol=1e-8)  # two factors, not alternating
    # 2 + a + pi is 1e-9 past 2 pi: the tail needs a head of about 4e10 terms
    with pytest.raises(ToleranceUnreachableError, match="cap"):
        numeric_sum([2.0, float(mp.pi) - 2 + 1e-9], alternating=True, abs_tol=1e-14)
    # no factor count is refused: equal scales merge, and 20 distinct ones pass the work cap at once
    assert numeric_sum([1.0] * 17).truncation_m > 0
    t0 = time.perf_counter()
    with pytest.raises(ToleranceUnreachableError, match="cap"):
        numeric_sum(_pi_scales(19))
    assert time.perf_counter() - t0 < 1
    # every frequency of 200 equal scales is summed as a resonance, and the head alone passes the cap
    with pytest.raises(ToleranceUnreachableError, match="cap"):
        numeric_sum([1.0] * 200)


@pytest.mark.parametrize(
    "scales, kwargs, message",
    [
        ([2.0, float(mp.pi) - 2 + 1e-9], dict(alternating=True, abs_tol=1e-14),
         "a tail within abs_tol 1e-14 needs a direct head of 40000001588 terms, past the 59994-term cap "
         "(a frequency of the summand is 1.0e-9 from resonance)"),
        (_pi_scales(19), {}, "the tail needs more terms than the 60000 the work cap leaves"),
        ([1.0] * 200, {}, "a tail within abs_tol 1e-10 needs a direct head of 415 terms, past the 198-term cap"),
        ([1.0, 1.0, 2 * float(mp.pi) - 2 + 1e-7], dict(abs_tol=1e-14),
         "a tail within abs_tol 1e-14 needs a direct head of 439999999 terms, past the 39992-term cap "
         "(a frequency of the summand is 1.0e-7 from resonance)"),
    ],
)
def test_sum_refusals_keep_their_messages(scales, kwargs, message):
    with pytest.raises(ToleranceUnreachableError) as info:
        numeric_sum(scales, **kwargs)
    assert str(info.value) == message


def test_sum_with_a_small_scale_agrees_with_the_integral():
    # the scales sum below 2 pi, so the sum over the integers equals the integral
    s = numeric_sum([0.01, 1, 1])
    assert abs(s.value - numeric_integral([0.01, 1, 1], abs_tol=1e-10)) <= s.tail_bound + 1e-10


def test_sum_near_resonance_refused_at_once():
    t0 = time.perf_counter()
    with pytest.raises(ToleranceUnreachableError):
        numeric_sum([1.0, 1.0, 2 * float(mp.pi) - 2 + 1e-7], abs_tol=1e-14)
    assert time.perf_counter() - t0 < 1


def _near_prefix_linear(freqs, dists, p, limit):
    """The reference for _near_prefix: grow the prefix one frequency at
    a time until its drift bound passes limit."""
    near = 0
    while near < len(freqs):
        N = _head_length(p, dists[near + 1] if near + 1 < len(freqs) else 2)
        if mp.fsum(abs(c) * _drift_bound(p, N, w) for c, w in freqs[: near + 1]) > limit:
            break
        near += 1
    return near


@pytest.mark.parametrize("p", [2, 3, 4, 7, 12])
def test_near_prefix_bisection_matches_linear_scan(p):
    rng = random.Random(p)
    seen = set()
    for _ in range(60):
        # merged frequencies are distinct, at distances to resonance over many decades, one of them maybe 0
        ws = sorted({mp.mpf(10) ** rng.uniform(-12, 0.49) for _ in range(rng.randint(0, 30))})
        ws = [mp.mpf(0)] * (rng.random() < 0.3) + ws
        freqs = [(mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)), w) for w in ws]
        dists = [abs(1 - mp.expj(w)) for w in ws]
        limit = mp.mpf(10) ** rng.uniform(-8 * p, -2)
        near, N = _near_prefix(freqs, dists, p, limit)
        assert near == _near_prefix_linear(freqs, dists, p, limit), (ws, limit)
        assert N == _head_length(p, dists[near] if near < len(ws) else 2)
        seen.add(0 < near < len(ws))
    assert seen == {False, True}  # both whole and partial prefixes occur


@pytest.mark.parametrize(
    "p, N, delta",
    [(2, 1, 2**-7), (2, 20, 2**-7), (2, 256, 2**-7), (2, 1024, 2**-7), (2, 1, 0.3), (2, 30, 0.3),
     (3, 1, 2**-7), (3, 10, 2**-7), (3, 1, 1.5), (5, 1, 2**-7), (5, 3, 0.3)],
)
def test_drift_bound_holds_the_drift_at_its_own_scale(p, N, delta):
    # the drift sum_{m>=N} |e^(i delta m) - 1| m^(-p), with |e^(i delta m) - 1| = 2 |sin(delta m / 2)|,
    # summed directly at twice the precision up to M = N + 16 K (K = 2 / delta: 256, 6.7 or 1.3), past
    # which it is at most 2 sum_{m>=M} m^(-p) <= 2 (M - 1)^(1-p) / (p - 1); the terms are positive and each
    # within 8 ulp (2^(4 - 2 prec), relative), and so is their sum
    prec = 128
    with mp.workprec(prec):
        bound = _drift_bound(p, N, mp.mpf(delta))
    M = N + math.ceil(32 / delta)
    with mp.workprec(2 * prec):
        head = mp.fsum(2 * abs(mp.sin(mp.mpf(delta) * m / 2)) / mp.mpf(m) ** p for m in range(N, M))
        drift = head * (1 + mp.ldexp(1, 4 - 2 * prec)) + 2 * mp.mpf(M - 1) ** (1 - p) / (p - 1)
        assert drift <= bound, (mp.nstr(drift, 8), mp.nstr(bound, 8))


def _differences_reference(p, N, K):
    """Delta^k g(N) = sum_j (-1)^(k-j) C(k, j) (N+j)^(-p) for k < K,
    each as an exact numerator over D, the product of the (N+j)^p."""
    powers = [(N + j) ** p for j in range(K)]
    D = math.prod(powers)
    over = [D // q for q in powers]
    return [sum((-1) ** (k - j) * math.comb(k, j) * over[j] for j in range(k + 1)) for k in range(K)], D


def test_difference_table_is_exact():
    rng = random.Random(16)
    cases = [(10**5, 16, 193), (4 * 10**4, 8, 257), (1, 2, 40)]
    cases += [(rng.randint(1, 5000), rng.randint(2, 16), rng.randint(1, 80)) for _ in range(12)]
    for N, p, K in cases:
        numerators, D = _differences_reference(p, N, K)
        table, P = _differences(p, N, K)
        # the same differences over the reference's denominator, a multiple of P
        assert D % P == 0 and [n * (D // P) for n in table] == numerators, (N, p, K)


def test_fixed_rounds_as_nint():
    # _fixed rounds on the mantissas; the reference scales by 2^bits and
    # takes mpmath's nearest integer, ties to even
    rng = random.Random(29)
    for _ in range(3000):
        prec, bits = rng.choice([53, 138, 400]), rng.choice([0, 3, 60, 128, 410])
        with mp.workprec(prec):
            tie = mp.ldexp(2 * rng.randrange(-10**6, 10**6) + 1, -bits - 1)  # exactly half an ulp off
            z = mp.mpc(tie, mp.expj(mp.mpf(rng.uniform(-9, 9))).imag * mp.mpf(10) ** rng.randrange(-5, 6))
            want = tuple(int(mp.nint(mp.ldexp(v, bits))) for v in (z.real, z.imag))
            assert _fixed(z, bits) == want, (z, bits)


def _head_reference(scales, N, alternating):
    """sum_{m=1}^{N-1} (+-1)^m prod_k sin(a_k m) / (a_k m), one mp.sin per
    factor per term at the current precision."""
    return mp.fsum((-1) ** (m * alternating) * mp.fprod(mp.sin(a * m) / (a * m) for a in scales)
                   for m in range(1, N))


@settings(max_examples=40, deadline=None)
@given(
    pool=st.lists(st.floats(min_value=-3, max_value=1).map(lambda e: 10**e), min_size=1, max_size=6),
    picks=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=6),
    N=st.integers(min_value=1, max_value=300),
    alternating=st.booleans(),
)
@example(pool=[1.0], picks=[0, 0, 0], N=1, alternating=False)  # an empty head
@example(pool=[0.5, 3.0], picks=[0, 1, 1], N=2, alternating=True)
@example(pool=[2.0, 1.14], picks=[0, 1], N=25_116, alternating=True)  # numeric_sum's head at 1e-10
@example(pool=[1e-3, 0.01], picks=[0, 1, 1], N=300, alternating=False)
def test_fixed_point_head_within_its_bound(pool, picks, N, alternating):
    # the bound of _head's docstring, against a sum of mp.sin terms at twice the precision
    scales = [mp.mpf(pool[i % len(pool)]) for i in picks]
    p, prec = len(scales), 128
    guard = int(mp.ceil(-mp.log(mp.fprod(min(a, 1) for a in scales), 2)))  # numeric_sum's guard bits
    with mp.workprec(prec + guard):
        head = numeric_oracle._head(scales, N, alternating)
    with mp.workprec(2 * prec):
        want = _head_reference(scales, N, alternating)
        P = prec + guard + N.bit_length() + 8
        bound = (N + 3 * p * (mp.log(N) + 2)) / mp.fprod(scales) + (p + 1) * abs(want)
        assert abs(head - want) <= mp.ldexp(bound, -P) + N * mp.ldexp(1, 4 - 2 * prec)


def _by_parts_reference(freqs, p, N, K):
    """_by_parts's sums and bounds by the mpc loop over the rounded
    differences: t_k = z^(N+k) / (1 - z)^(k+1) turned in mpc arithmetic."""
    numerators, D = _differences_reference(p, N, K)
    value = bound = mp.mpf(0)
    for c, w in freqs:
        z = mp.expj(w)
        t, s, last = mp.expj(w * N) / (1 - z), mp.mpc(0), mp.inf
        for k, n in enumerate(numerators):
            d = mp.fdiv(n, D)
            if abs(d) / abs(1 - z) ** (k + 1) >= last:
                break
            s, t, last = s + t * d, t * z / (1 - z), abs(d) / abs(1 - z) ** (k + 1)
        value, bound = value + (c * s).real, bound + abs(c) * last
    return value, bound


@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_by_parts_matches_the_mpc_loop(p):
    rng = random.Random(p)
    for _ in range(4):
        prec = rng.choice([128, 200])
        with mp.workprec(prec):
            ws = sorted(mp.mpf(10) ** rng.uniform(-3, 0.49) for _ in range(rng.randint(1, 4)))
            freqs = [(mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)), w) for w in ws]
            dists = [abs(1 - mp.expj(w)) for w in ws]
            N = _head_length(p, dists[0])
            value, bound = _by_parts(freqs, dists, p, N, mp.inf)
        K = int(N * dists[0]) + 1
        with mp.workprec(2 * prec):
            want, want_bound = _by_parts_reference(freqs, p, N, K)
            # each sum is within a few roundings of its first term, |c| N^(-p) / |1 - z|
            scale = mp.fsum(abs(c) / dist for (c, _), dist in zip(freqs, dists)) * mp.mpf(N) ** -p
            assert abs(value - want) <= mp.ldexp(scale, 4 - prec), (ws, N)
            # a bound is a power up to K of |1 - z| rounded to prec bits
            assert abs(bound - want_bound) <= (K + 2) * mp.ldexp(want_bound, 1 - prec)


@pytest.mark.parametrize("prec", [128, 300])
@pytest.mark.parametrize("p", [2, 3, 5, 9])
def test_by_parts_sums_within_their_rounding_count(monkeypatch, p, prec):
    # sr and si before their one division, against t_k at 2 Q + 40 bits: within
    # the docstring's count at its Q, with no slack; w = 3 puts |1 - z| near 2
    rng = random.Random(13 * p + prec)
    with mp.workprec(prec):
        ws = sorted(mp.mpf(10) ** rng.uniform(-2, 0.3) for _ in range(3)) + [mp.mpf(3)]
        dists = [abs(1 - mp.expj(w)) for w in ws]
        N = _head_length(p, dists[0])
        calls, fdiv = [], mp.fdiv
        monkeypatch.setattr(mp, "fdiv", lambda *args: calls.append(args) or fdiv(*args))
        _by_parts([(mp.mpc(1), w) for w in ws], dists, p, N, mp.inf)
        monkeypatch.undo()
    K = int(N * dists[0]) + 1
    diffs, P = _differences(p, N, K)
    Q = prec + K + K.bit_length() + 8
    sums = [num for num, den in calls if den != P]  # sr and si of each frequency, over P << Q'
    Q_own = (calls[-1][1] // P).bit_length() - 1
    for w, dist, sr, si in zip(ws, dists, sums[::2], sums[1::2]):
        ratio = Fraction(dist.man) * Fraction(2) ** dist.exp
        kept = next((k for k in range(1, K) if abs(diffs[k]) >= abs(diffs[k - 1]) * ratio), K)
        with mp.workprec(2 * Q + 40):
            z, root2 = mp.expj(w), mp.sqrt(2)
            a, t, q = 1 / abs(1 - z), mp.expj(w * N) / (1 - z), z / (1 - z)
            e, h = root2 / 2 + a * (abs(w * N) + a + 4) / 512, root2 / 2 + a * (a + 4) / 512
            want = count = 0
            for k in range(kept):
                want, count = want + t * diffs[k], count + e * abs(diffs[k])
                t, e = t * q, (a + mp.ldexp(h, -Q)) * e + a ** (k + 1) * h + root2
            error = abs(mp.ldexp(sr, Q - Q_own) - mp.ldexp(want.real, Q)) + abs(mp.ldexp(si, Q - Q_own) - mp.ldexp(want.imag, Q))
            assert error <= root2 * count, (w, N, kept)


@pytest.mark.parametrize(
    "scales, alternating, merged, head",
    [
        ([5 * mp.pi / 4, 1.0, 1.0], False, 3, 124),
        # the conjugate pairs fold before the pi shift: 3.14 and 0.86 shift to
        # pi + 3.14 and pi + 0.86, which fold to 0.0016 and 2.28, once each
        ([2.0, 1.14], True, 2, 25_115),
        # 5 pi / 4 + 1 - 1 and 5 pi / 4 - 1 + 1 are one frequency, not two a rounding apart
        ([parse_scale("5pi/4"), 1, 1], False, 3, 124),
    ],
)
def test_sum_makes_no_transcendental_call_per_term(monkeypatch, scales, alternating, merged, head):
    # a count, not a time: e^(i a) once per distinct scale, and |1 - e^(i w)|,
    # e^(i w) and e^(i w N) once per merged frequency, whatever the head length
    calls = []
    for name in ("sin", "cos", "expj", "exp"):
        f = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda *args, f=f: calls.append(args) or f(*args))
    s = numeric_sum(scales, alternating=alternating)
    assert s.truncation_m == head
    assert len(calls) == len(set(scales)) + 3 * merged


@pytest.mark.parametrize("tokens, alternating", [("pi/3,2,pi", False), ("2,pi,3pi/8", False), ("pi,1.25,2,pi", True)])
def test_sum_with_a_pi_scale_has_no_tail(tokens, alternating):
    # sinc(pi m) = 0 for m != 0: the frequencies w + pi and w - pi of the
    # tail are one modulo 2 pi, reduced exactly, so their coefficients cancel
    s = numeric_sum([parse_scale(t) for t in tokens.split(",")], alternating=alternating)
    assert (s.value, s.tail_bound) == (1, 0) and s.truncation_m < 30


class _Planned(Exception):
    pass


@pytest.mark.parametrize("d", [3, 5, 7, 9, 11])
def test_sum_frequencies_reduce_into_zero_to_pi(monkeypatch, d):
    # d scales 2 pi / d: frequencies j 2 pi lie on the period itself, and a
    # reduction by a rounded quotient w / (2 pi) can leave them a rounding
    # below 0; reduced exactly, every one lies in [0, pi] at every precision
    seen = []

    def plan(freqs, *args):
        seen.append((mp.mp.prec, all(0 <= w <= mp.pi for _, w in freqs)))
        raise _Planned

    monkeypatch.setattr(numeric_oracle, "_near_prefix", plan)
    scales = [parse_scale("2pi/%d" % d)] * d
    for bits in range(128, 400):
        with pytest.raises(_Planned):
            # _working_prec(abs_tol) = bits
            numeric_sum(scales, abs_tol=float(mp.ldexp(0.9, 40 - bits)))
    assert [prec for prec, inside in seen if not inside] == []


def _poisson(betas, alternating):
    """The exact sum over all integers m of prod sinc(beta_k pi m), by
    Poisson summation over the exact transform F: 2 sum_j F(2j + 1)
    (alternating) or F(0) + 2 sum_j F(2j)."""
    spec = SincProductSpec(tuple(rat(b) for b in betas))
    top = int(sum(spec.betas)) + 1
    if alternating:
        return 2 * sum(point_eval_pruned(spec, x) for x in range(1, top + 1, 2))
    return point_eval_pruned(spec, 0) + 2 * sum(point_eval_pruned(spec, x) for x in range(2, top + 1, 2))


@pytest.mark.parametrize(
    "scales, alternating, one_sided, want",
    [
        (_pi_times(["5/4"]) + (1, 1), False, True, rat(9, 10)),  # Example 6
        (_pi_times(["5/4"] * 3), False, True, rat(249, 250)),
        (_pi_times(["3/4", "2/3", "1/2"]), False, False, rat(167, 144)),
        (_pi_times(["3/4", "2/3", "1/2"]), True, False, rat(121, 144)),
    ],
)
@pytest.mark.parametrize("tol", [1e-10, 1e-20])
def test_sum_known_values_within_tail_bound(scales, alternating, one_sided, want, tol):
    s = numeric_sum(scales, alternating=alternating, one_sided=one_sided, abs_tol=tol)
    with mp.workprec(200):
        assert abs(s.value - _exact_float(want)) <= s.tail_bound <= tol
    assert s.truncation_m < 1000


@pytest.mark.parametrize(
    "betas",
    [
        # 3/4 + 1/4 + 2/3 - 2/3 = 1: shifted by pi for the alternating
        # sign, that frequency is 2 pi, so z = 1 up to rounding
        ["3/4", "2/3", "1/4", "2/3"],
        # 3/4 + 2/3 - beta = 1 - 1e-12: z = 1 is missed by 1e-12 pi, and
        # the coefficient there is imaginary, so the drift is first order
        ["3/4", "2/3", rat(5, 12) + rat(1, 10**12)],
    ],
)
def test_sum_resonant_frequency_takes_hurwitz_zeta(monkeypatch, betas):
    calls = []
    zeta = mp.zeta
    monkeypatch.setattr(mp, "zeta", lambda *args: calls.append(args) or zeta(*args))
    s = numeric_sum(_pi_times(betas), alternating=True, abs_tol=1e-12)
    assert [args[0] for args in calls] == [len(betas)]
    want = _poisson(betas, True)
    with mp.workprec(200):
        assert abs(s.value - _exact_float(want)) <= s.tail_bound <= 1e-12
    # the same scales in floats miss the resonance by about 1e-16 more
    calls.clear()
    s53 = numeric_sum([float(a) for a in _pi_times(betas)], alternating=True, abs_tol=1e-12)
    assert len(calls) == 1
    with mp.workprec(200):
        assert abs(s53.value - _exact_float(want)) <= s53.tail_bound + 1e-15


def test_sinc_cubed_tight_tolerance_is_fast():
    t0 = time.perf_counter()
    s = numeric_sum(_pi_times(["5/4"] * 3), abs_tol=1e-12, one_sided=True)
    assert time.perf_counter() - t0 < 0.5
    with mp.workprec(200):
        assert abs(s.value - _exact_float(rat(249, 250))) <= s.tail_bound <= 1e-12


@pytest.mark.parametrize("scales, want", [([1, 1, 1], lambda: 3 * mp.pi / 4), ([1, 2, 3], lambda: mp.pi / 3)])
@pytest.mark.parametrize("tol", [1e-40, 1e-80])
def test_sum_doubles_its_head_to_the_exact_value(monkeypatch, scales, want, tol):
    # by Poisson summation the sum equals the integral while the transform lies
    # inside (-2 pi, 2 pi): 3 pi / 4 for sinc^3, and Borwein's pi / a0 for
    # a0 = 3 >= 1 + 2.  At these tolerances the first head's by-parts terms stop
    # above target, so the head doubles, once or twice.  The error is held to
    # abs_tol, not to tail_bound: it also takes the final rounding
    outcomes, by_parts = [], numeric_oracle._by_parts
    monkeypatch.setattr(numeric_oracle, "_by_parts", lambda *args: outcomes.append(by_parts(*args)) or outcomes[-1])
    s = numeric_sum(scales, abs_tol=tol)
    assert outcomes[0] is None
    with mp.workprec(400):
        assert abs(s.value - want()) <= tol


def _direct_sum(scales, alternating, M):
    """The two-sided sum over |m| <= M in floats, and the crude bound
    (prod 1/a_k) 2 M^(1-p) / (p - 1) on the rest, plus float rounding."""
    terms = []
    for m in range(1, M + 1):
        v = math.prod(math.sin(a * m) / (a * m) for a in scales)
        terms.append(-v if alternating and m & 1 else v)
    p = len(scales)
    return 1 + 2 * math.fsum(terms), 2 * M ** (1 - p) / ((p - 1) * math.prod(scales)) + 1e-12


@settings(max_examples=25, deadline=None)
@given(
    eighths=st.lists(st.integers(min_value=4, max_value=24), min_size=2, max_size=4),
    alternating=st.booleans(),
)
def test_sum_agrees_with_long_direct_sum(eighths, alternating):
    scales = [k / 8 for k in eighths]
    alternating = alternating or len(scales) == 2
    s = numeric_sum(scales, alternating=alternating, abs_tol=1e-10)
    direct, bound = _direct_sum(scales, alternating, 100_000)
    assert abs(s.value - direct) <= s.tail_bound + bound


# -- identity checks ----------------------------------------------------------


@pytest.mark.parametrize("scales", [[2.0, 1.5, 1.0], [1 / 3] * 17])  # 17 / 3 < 2 pi
def test_theorem1_inside_support(scales):
    rep = verify_theorem1(scales, tol=1e-7)
    assert rep["hypothesis_holds"] and rep["equal_within_tol"]


def test_theorem1_detects_first_breaking():
    # past the support condition the sides differ by exactly twice the
    # transform value at the first uncovered sample point
    rep = verify_theorem1(_pi_scales(7), tol=1e-13)
    assert not rep["hypothesis_holds"]
    assert not rep["equal_within_tol"]
    exact = integral_exact(SincProductSpec.odd_harmonic(7))
    gap = 2 * sum(v for _, v in exact.deficit_terms)
    with mp.workprec(120):
        g = mp.mpf(gap.numerator) / mp.mpf(gap.denominator)
        assert abs(abs(mp.mpf(rep["difference"])) - g) / g < 1e-3


def test_theorem1_alternating():
    rep = verify_theorem1([3.0, 2.0, 1.5], alternating=True, tol=1e-7)
    assert rep["hypothesis_holds"] and rep["equal_within_tol"]


def test_theorem1_single_factor_excluded():
    rep = verify_theorem1([float(mp.pi)])
    assert rep["excluded"]


@pytest.mark.parametrize(
    "scales, alternating, holds",
    [
        # 1e-25 pi below 2 pi: lost at 53 bits, kept at the oracle's 128
        (lambda: [mp.pi * (1 - mp.mpf(10) ** -25), mp.pi / 2, mp.pi / 2], False, True),
        (lambda: [2 * mp.pi * (1 - mp.mpf(10) ** -25)], False, True),  # one factor: excluded, decided alike
        # exactly on the bound: a gap of a rounding or two does not count
        (lambda: [2 * mp.pi / 3] * 3, False, False),
        (lambda: [mp.pi] * 3, True, False),
    ],
)
def test_theorem1_hypothesis_at_working_precision(scales, alternating, holds):
    with mp.workprec(400):
        scales = scales()
    assert verify_theorem1(scales, alternating=alternating, tol=1e-3)["hypothesis_holds"] is holds


def test_lower_bound_counterexample():
    rep = lower_bound_check(5 * mp.mp.pi / 4, [1.0, 1.0])
    assert not rep["hypothesis_holds"]
    assert not rep["inequality_holds"]


def test_lower_bound_holds_under_hypothesis():
    rep = lower_bound_check(1.5, [1.0, 0.5])
    assert rep["hypothesis_holds"]
    assert rep["inequality_holds"]


def test_lower_bound_equal_scales():
    rep = lower_bound_check(1.5, [1.5, 1.5])
    assert rep["inequality_holds"]
    assert abs(mp.mpf(rep["margin"])) < 1e-9


def test_lower_bound_validates_ordering():
    with pytest.raises(ValueError):
        lower_bound_check(1.0, [2.0])


# -- scales read from text ---------------------------------------------------


@pytest.mark.parametrize(
    "token, exact",
    [("1", lambda: 1), (" 2.5 ", lambda: mp.mpf(5) / 2), ("1/3", lambda: mp.mpf(1) / 3), ("pi", lambda: mp.pi),
     ("5pi/4", lambda: 5 * mp.pi / 4), ("PI/3", lambda: mp.pi / 3), ("0.666pi", lambda: mp.pi * 666 / 1000)],
)
def test_parse_scale_reads_past_every_working_precision(token, exact):
    # 64 bits past the 1,114 a float tolerance of 5e-324 asks for
    assert numeric_oracle.SCALE_PREC_BITS == numeric_oracle._working_prec(5e-324) + 64 == 1178
    with mp.workprec(1400):
        assert abs(parse_scale(token) - exact()) <= abs(exact()) * mp.ldexp(1, -1175)


# -- band-limited kernel family ----------------------------------------------


def test_kernel_at_zero():
    assert bandlimited_kernel(0) == 1


def test_example5_integral_is_pi():
    v = example5_integral(["0.5", "0.3"], 1, tol=1e-6)
    assert abs(v - mp.pi) < 1e-6


@pytest.mark.parametrize("tol", [1e-16, 1e-20])
@pytest.mark.parametrize(
    "a, b", [(["355/113000"], "1/7"), (["1/300"], "1/50"), (["0.1"], 1), (["0.05", "0.04"], "1/5")]
)
def test_example5_small_scales_is_pi_within_tol(a, b, tol):
    # a kernel factor's c grow as a^(-2j) while its tail terms shrink as
    # (a T)^(-2j): the tail keeps precision only if it is rounded by the terms
    v = example5_integral(a, b, tol=tol)
    with mp.workprec(128):
        assert abs(v - mp.pi) <= tol


def test_example5_violated_hypothesis_departs_from_pi():
    v = example5_integral(["0.9"], "0.5", tol=1e-4)
    assert abs(v - mp.pi) > 0.5
    assert abs(v - mp.mpf("2.11841412737914")) < 1e-4


def test_ft_closed_form():
    reports = verify_ft_example5([0, "1/2", "-1/2"], tol=1e-6)
    assert all(r["within_tol"] for r in reports)
    assert reports[1]["numeric"] == reports[2]["numeric"]  # evenness


def test_ft_takes_the_half_sum_at_the_band_edge():
    # the transform jumps from pi / (e - 1) to 0 at |omega| = 1, and its integral converges to the mean
    with mp.workprec(200):
        half = mp.pi / (2 * (mp.e - 1))
    for rep in verify_ft_example5(["1", "-1"], tol=1e-6):
        assert rep["within_tol"]
        assert abs(mp.mpf(rep["closed_form"]) - half) < 1e-16
        assert abs(mp.mpf(rep["numeric"]) - half) < 1e-8


def test_ft_vanishes_outside_band():
    (rep,) = verify_ft_example5(["3/2"], tol=1e-6)
    assert rep["within_tol"]
    assert abs(mp.mpf(rep["numeric"])) < 1e-6


def test_example5_rejects_bad_inputs():
    with pytest.raises(ValueError):
        example5_integral(["-1"], 1)
    with pytest.raises(ValueError):
        example5_integral([], 1)
    # scales on a fine rational lattice need no common period: 60 head panels
    assert abs(example5_integral(["355/113000"], "1/7", tol=1e-4) - mp.pi) < 1e-4
    # a head of 4e9 / pi panels is refused before any of them is integrated
    for a, b, omegas in [(["1e-9"], 1, None), (None, None, ["1e9"])]:
        t0 = time.perf_counter()
        with pytest.raises(ToleranceUnreachableError, match="panels"):
            example5_integral(a, b) if omegas is None else verify_ft_example5(omegas)
        assert time.perf_counter() - t0 < 1


# each kernel case: the value at a tolerance, and the factor from the half-line to it
KERNEL_CASES = {
    "example5-0.5,0.3": (lambda tol: example5_integral(["0.5", "0.3"], 1, tol=tol), 2),
    "example5-0.9": (lambda tol: example5_integral(["0.9"], "0.5", tol=tol), 2),
    **{
        "ft-" + w: (lambda tol, w=w: mp.mpf(verify_ft_example5([w], tol=tol)[0]["numeric"]), 1)
        for w in ["0", "1/2", "3/2"]
    },
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_tail_start_moves_value_within_tol(monkeypatch, case):
    run, _ = KERNEL_CASES[case]
    v = run(1e-6)
    monkeypatch.setattr(numeric_oracle, "KERNEL_TAIL_START", 8)
    assert abs(run(1e-6) - v) <= 1e-6


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_kernel_series_cut_within_truncation_bound(monkeypatch, case):
    # eight more terms of 1/(1 + x^2) move the value by no more than the
    # bound reported for the first cut
    run, half_to_value = KERNEL_CASES[case]
    bound = numeric_oracle._truncation_bound
    seen = []

    def spy(*args):
        seen.append((args[3], bound(*args)))
        return seen[-1][1]

    monkeypatch.setattr(numeric_oracle, "_truncation_bound", spy)
    v = run(1e-4)
    J, b = seen[-1]
    monkeypatch.setattr(numeric_oracle, "_truncation_bound", lambda *args: mp.inf if args[3] < J + 8 else bound(*args))
    assert abs(run(1e-4) - v) <= half_to_value * b
