import itertools
import math
import random
import time

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
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


def _naive_tail(factors, T):
    """The tail with one E_p call per expansion term, unmerged."""
    total = mp.mpf(0)
    for combo in itertools.product(*factors):
        c = mp.fprod(term[0] for term in combo)
        w = mp.fsum(term[1] for term in combo)
        p = sum(term[2] for term in combo)
        total += (c * T ** (1 - p) * mp.expint(p, -1j * w * T)).real
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


@pytest.mark.parametrize("scales, calls", [([1] * 8, 4), (_pi_scales(4), 16)])
def test_tail_one_expint_call_per_distinct_frequency(monkeypatch, scales, calls):
    seen = []
    expint = mp.expint
    monkeypatch.setattr(mp, "expint", lambda *args: seen.append(args) or expint(*args))
    numeric_integral(scales, rel_tol=1e-12)
    assert len(seen) == calls


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
    # a count, not a time: no sine or cosine anywhere in the integral (the
    # tail calls mp.expint and mp.exp), and the head's series is cut at 28
    # terms at 128 bits and 40 at 239 bits
    calls, lengths = [], []
    for name in ("sin", "cos", "cos_sin", "expj"):
        f = getattr(mp, name)
        monkeypatch.setattr(mp, name, lambda *args, f=f: calls.append(args) or f(*args))
    length = numeric_oracle._series_length
    monkeypatch.setattr(numeric_oracle, "_series_length", lambda C: lengths.append(length(C)[0]) or length(C))
    v = numeric_integral(_pi_scales(4), rel_tol=rel_tol)
    assert calls == [] and lengths == [J]
    assert abs(v - 1) < rel_tol


def _heads(run):
    """(factors, T, panels, prec, head, bound) of each _quad_head call run() makes."""
    seen, quad_head = [], numeric_oracle._quad_head

    def spy(factors, T, panels):
        out = quad_head(factors, T, panels)
        seen.append((factors, T, panels, mp.mp.prec) + out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric_oracle, "_quad_head", spy)
        run()
    return seen


def _integrand(factors):
    return lambda t: mp.fprod(f(t) for f, *_ in factors)


def _series_heads(run):
    """(factors, T, prec, head, bound) of each _series_head call run() makes."""
    seen, series_head = [], numeric_oracle._series_head

    def spy(factors, T):
        out = series_head(factors, T)
        seen.append((factors, T, mp.mp.prec) + out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(numeric_oracle, "_series_head", spy)
        run()
    return seen


def _as_gauss(series):
    """_series_head's factors, each a sum of c sinc(w t) or c cos(w t) over
    its terms (c, w, odd), as _quad_head takes them: (f, terms, C, omega)."""
    def function(f):
        return lambda t: mp.fsum(c * ((mp.sin(w * t) / (w * t) if t else 1) if odd else mp.cos(w * t))
                                 for c, w, odd in f)

    return [(function(f), None, sum(c for c, _, _ in f), max(w for _, w, _ in f)) for f in series]


def _series(betas, m):
    """The head factors of prod sinc(pi beta t), times W_m(t) unless m is
    None, and T = pi / omega_max, at the working precision."""
    series = [[(1, +a, 1)] for a in _pi_times(betas)]
    if m is not None:
        series.append([(2, k * mp.pi, 0) for k in range(1, 2 * m + 2, 2)])
    return series, mp.pi / mp.fsum(max(w for _, w, _ in f) for f in series)


@pytest.fixture(scope="module")
def factor_kinds():
    """Each kind of factor the Gauss-Legendre head integrates, as
    (f, C, omega), from the oracle's own calls: sin(b t)/t, the kernel
    f(a t) and 2 cos(w t)."""
    def run():
        example5_integral(["0.5", "0.3"], "3/2", tol=1e-6)
        verify_ft_example5(["1/2"], tol=1e-6)

    return [(f, C, omega) for factors, *_ in _heads(run) for f, _, C, omega in factors]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    x=st.floats(min_value=-40, max_value=40),
    y=st.floats(min_value=-8, max_value=8),
    near=st.sampled_from([None, 1, -1]),
    shrink=st.integers(min_value=0, max_value=30),
)
def test_factors_are_bounded_off_the_real_line(factor_kinds, data, x, y, near, shrink):
    # the premise of _gauss_bound: |f(x + i y)| <= C cosh(omega y); near
    # picks a point 10^-3 to 57 times 10^-shrink from t = +-i / omega, where
    # the kernel's denominator 1 + (omega t)^2 vanishes and its numerator too
    f, C, omega = data.draw(st.sampled_from(factor_kinds))
    with mp.workprec(300):
        z = mp.mpc(x, y)
        if near is not None:
            assume(abs(z) >= 1e-3)  # 10^-33 at the nearest, far above 2^-300
            z = near * mp.mpc(0, 1) / omega + z * mp.mpf(10) ** -shrink
        assert abs(f(z)) <= C * mp.cosh(omega * z.imag) * (1 + mp.mpf(2) ** -250)


def _check_heads(heads, degrees=()):
    """Each head within its bound plus one rounding of it, against tanh-sinh
    at twice its precision; and, for each mpmath degree in degrees, that
    rule, summed at twice the precision, within panels * _gauss_bound."""
    for factors, T, panels, prec, head, bound in heads:
        F, C, omega = _integrand(factors), mp.fprod(c for *_, c, _ in factors), mp.fsum(w for *_, w in factors)
        with mp.workprec(2 * prec):
            points = mp.linspace(0, T, panels + 1)
            ref = mp.quad(F, points)
            assert abs(head - ref) <= bound + mp.ldexp(abs(head), 1 - prec), (prec, panels)
            for d in degrees:
                nodes = [mp.mp._gauss_legendre.get_nodes(a, b, d, 2 * prec) for a, b in zip(points, points[1:])]
                rule = mp.fsum(mp.fdot((w, F(x)) for x, w in panel) for panel in nodes)
                # the rule's bound, plus a rounding of each of its n evaluations, |f| <= C
                n, h = 3 << (d - 1), T / panels
                assert abs(rule - ref) <= panels * numeric_oracle._gauss_bound(n, C, omega * h, h) + \
                    mp.ldexp(n * C * T, -2 * prec), d


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
    for factors, T, prec, head, bound in heads:
        with mp.workprec(2 * prec):
            ref = mp.quad(_integrand(_as_gauss(factors)), [0, T])
            assert abs(head - ref) <= bound + mp.ldexp(abs(head), 1 - prec), prec


@settings(max_examples=15, deadline=None)
@given(
    betas=st.lists(st.fractions(min_value=rat(1, 8), max_value=2, max_denominator=12), min_size=2, max_size=6),
    m=st.sampled_from([None, 0, 1, 2]),
    prec=st.sampled_from([128, 239]),
)
@example(betas=[rat(1)] * 2, m=None, prec=128)
@example(betas=[rat(1, 8)] * 6, m=2, prec=239)
def test_series_and_gauss_heads_agree(betas, m, prec):
    # the series head and the Gauss-Legendre rule on the same sinc and
    # cosine factors agree within the sum of their bounds and roundings;
    # and each mpmath degree of the rule, at twice the precision, is
    # within _gauss_bound of the tanh-sinh reference
    with mp.workprec(prec):
        series, T = _series(betas, m)
        factors = _as_gauss(series)
        head, bound = numeric_oracle._series_head(series, T)
        quad, quad_bound = numeric_oracle._quad_head(factors, T, 1)
        assert abs(head - quad) <= bound + quad_bound + mp.ldexp(abs(head) + abs(quad), 1 - prec)
    _check_heads([(factors, T, 1, prec, quad, quad_bound)], degrees=(1, 2, 3, 4, 5) if prec == 128 else ())


@pytest.mark.parametrize(
    "run",
    [
        lambda: example5_integral(["0.5", "0.3"], 1, tol=1e-6),
        lambda: example5_integral(["0.9"], "0.5", tol=1e-4),
        lambda: example5_integral(["355/113000"], "1/7", tol=1e-4),  # 60 panels
        lambda: verify_ft_example5([0], tol=1e-6),
        lambda: verify_ft_example5(["3/2"], tol=1e-6),
    ],
    ids=["0.5,0.3", "0.9", "355/113000", "ft-0", "ft-3/2"],
)
def test_kernel_heads_within_their_bound(run):
    _check_heads(_heads(run), degrees=(2, 3, 4))


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-40, 1e-60])
@pytest.mark.parametrize("p", range(2, 9))
def test_head_matches_the_gauss_legendre_ladder(p, rel_tol):
    # bit for bit the head mp.quad's ladder of degrees 1, 2, ... returns,
    # which stops at the degree the bound fixes, or one below it with the
    # same rounded value
    # on the head of numeric_integral's sinc factors, at its working precision
    with mp.workprec(numeric_oracle._working_prec(rel_tol)):
        series, T = _series(["1/%d" % (2 * k + 1) for k in range(p)], None)
        factors = _as_gauss(series)
        head, _ = numeric_oracle._quad_head(factors, T, 1)
        assert head == mp.quad(_integrand(factors), [0, T], method="gauss-legendre")


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
