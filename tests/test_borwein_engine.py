import math
import operator
import random
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincprod import borwein_engine
from sincprod.borwein_engine import (
    CosineWeightSpec,
    ExactPathUnavailableError,
    SincProductSpec,
    _point_eval_pruned_stats,
    deficit_report,
    edge_polynomial,
    fourier_spline,
    integral_exact,
    point_eval_pruned,
    spline_csv,
    weighted_integral_exact,
)
from sincprod.exact_core import odd_harmonic_sum
from sincprod.rational import rat
from sincprod.spline_engine import SplineSizeError
from sincprod.verify import reference_spline


# -- specs --------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        SincProductSpec(())
    with pytest.raises(ValueError):
        SincProductSpec((rat(1), rat(0)))
    with pytest.raises(ValueError):
        SincProductSpec((rat(1), rat(-1, 3)))
    with pytest.raises(ValueError):
        CosineWeightSpec(-1)


def test_odd_harmonic_spec():
    spec = SincProductSpec.odd_harmonic(7)
    assert spec.betas[-1] == rat(1, 15)
    assert spec.support_radius() == odd_harmonic_sum(7)
    assert spec.has_unit_scale()


# 1-12 scales p/q drawn from a pool of up to 6, so repeats occur
scale_lists = st.lists(st.tuples(st.integers(1, 50), st.integers(1, 10**6)), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
)


@settings(max_examples=200, deadline=None)
@given(scale_lists, st.integers(0, 60))
def test_integer_form_matches_plain_fractions(pairs, m):
    betas = tuple(Fraction(p, q) for p, q in pairs)
    spec = SincProductSpec(betas)
    L, scales = spec.integer_form
    assert L == math.lcm(*(b.denominator for b in betas))
    assert [operator.index(s) for s in scales] == [b * L for b in betas]
    n = len(betas) - 1
    assert spec.knot_denominator == math.factorial(n) * 2**n * math.prod(b * L for b in betas)
    assert spec.support_radius() == sum(betas, Fraction(0))
    assert SincProductSpec.odd_harmonic(m).betas == tuple(Fraction(1, 2 * k + 1) for k in range(m + 1))


@pytest.mark.parametrize(
    "build", [lambda: SincProductSpec.sinc_power(2**63), lambda: SincProductSpec.odd_harmonic(10**9)],
    ids=["sinc_power(2**63)", "odd_harmonic(10**9)"],
)
def test_family_size_refused_before_any_tuple(build):
    # past MAX_FAMILY_SIZE a family is refused before its scales are built
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="at most %d" % borwein_engine.MAX_FAMILY_SIZE):
        build()
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("family, n", [("odd_harmonic", n) for n in (0, 1, 7, 60)] + [("sinc_power", n) for n in (1, 2, 9)])
def test_family_spec_equals_spec_of_its_fractions(family, n):
    # a family spec is built from integer pairs, the other from Fractions
    # through rat; no derived quantity may tell them apart
    spec = getattr(SincProductSpec, family)(n)
    betas = tuple(Fraction(1, 2 * k + 1) for k in range(n + 1)) if family == "odd_harmonic" else (Fraction(1),) * n
    plain = SincProductSpec(betas)
    assert spec == plain and hash(spec) == hash(plain) and spec.pairs == plain.pairs
    for name in ("betas", "integer_form", "scaled_radius", "knot_denominator"):
        assert getattr(spec, name) == getattr(plain, name), name
    assert spec.support_radius() == plain.support_radius() == sum(betas)
    assert spec.has_unit_scale() and plain.has_unit_scale()
    weights = CosineWeightSpec(1)
    report = weighted_integral_exact(spec, weights)
    assert report.to_dict("weighted-integral", spec, weights) == report.to_dict("weighted-integral", plain, weights)
    assert report.to_dict("x", spec)["spec"] == ["%d/%d" % (b.numerator, b.denominator) for b in betas]


def test_spec_pairs_are_lowest_terms():
    spec = SincProductSpec((rat(2, 6), "4/2", 3, "-4/-8"))
    assert spec.pairs == ((1, 3), (2, 1), (3, 1), (1, 2)) and spec.betas == (rat(1, 3), 2, 3, rat(1, 2))
    assert SincProductSpec(("2/2", "1/3")).has_unit_scale() and not SincProductSpec(("2/3",)).has_unit_scale()
    assert SincProductSpec(pairs=spec.pairs) == spec and eval(repr(spec), {"SincProductSpec": SincProductSpec}) == spec
    with pytest.raises(ValueError, match="positive"):
        SincProductSpec(pairs=((1, 1), (0, 1)))
    # a pair outside lowest terms, or with q <= 0, would make the derived forms disagree with p/q or divide by zero
    for pairs, bad in [(((1, -2), (1, 1), (1, 1)), r"\(1, -2\)"), (((2, 2), (1, 3)), r"\(2, 2\)"),
                       (((2, 2),), r"\(2, 2\)"), (((1, 0),), r"\(1, 0\)")]:
        with pytest.raises(ValueError, match="scale pair %s is not in lowest terms" % bad):
            SincProductSpec(pairs=pairs)


def test_spec_and_spline_text_past_the_int_str_digit_limit():
    # a scale of 5,001 digits prints whole, as rat_str prints it, in the
    # report's spec and in the spline's cells
    saved = sys.get_int_max_str_digits()
    spec = SincProductSpec((Fraction(1, 10**5000), 1))
    try:
        sys.set_int_max_str_digits(4300)
        assert integral_exact(spec).to_dict("integral", spec)["spec"] == ["1/1" + "0" * 5000, "1/1"]
        sys.set_int_max_str_digits(4300)
        assert "".join(spline_csv(spec)) == fourier_spline(spec).to_csv()
    finally:
        sys.set_int_max_str_digits(saved)


def test_largest_family_is_built():
    assert len(SincProductSpec.odd_harmonic(borwein_engine.MAX_FAMILY_SIZE).betas) == 100_001


# -- fourier spline -----------------------------------------------------------


def test_spline_base_cases():
    F1 = fourier_spline(SincProductSpec((rat(1),)))
    assert F1.evaluate(0) == 1
    F2 = fourier_spline(SincProductSpec((rat(1), rat(1, 3))))
    assert F2.evaluate(0) == 1
    assert F2.integral() == 2


def test_spline_normalization_various():
    for betas in [(1,), (rat(1, 2),), (1, 1), (rat(1, 3), rat(1, 5), rat(1, 7))]:
        F = fourier_spline(SincProductSpec(tuple(rat(b) for b in betas)))
        assert F.integral() == 2


def test_spline_matches_box_convolution_csv():
    # the knot-measure spline against the independent box-convolution
    # chain, byte for byte: weight-0 knots (x = 0 for 1, 1, 2) stay breakpoints
    rng = random.Random(13)
    specs = [SincProductSpec((rat(1), rat(1), rat(2))), SincProductSpec.sinc_power(16)]
    specs += [SincProductSpec.odd_harmonic(n) for n in range(9)]
    specs += [
        SincProductSpec(tuple(rat(rng.randint(1, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 6))))
        for _ in range(30)
    ]
    for spec in specs:
        assert fourier_spline(spec).to_csv() == reference_spline(spec).to_csv(), spec.betas
    assert rat(0) in fourier_spline(specs[0]).breakpoints


def _csv_corpus():
    """Seeded specs of 1 to 7 scales from a pool of up to 3, plus a weight-0 knot
    at 0 (1, 1, 2), pieces whose top coefficients vanish (1, 1/3: a constant
    middle piece), one box, and a repeated non-unit scale."""
    rng = random.Random(31)
    specs = [SincProductSpec(b) for b in [(1, 1, 2), (1, rat(1, 3)), (rat(2, 3),), (rat(2, 5),) * 4]]
    for _ in range(40):
        pool = [rat(rng.randint(1, 3), rng.randint(1, 9)) for _ in range(rng.randint(1, 3))]
        specs.append(SincProductSpec(tuple(rng.choice(pool) for _ in range(rng.randint(1, 7)))))
    return specs


def test_integer_row_csv_matches_both_spline_paths():
    specs, trimmed = _csv_corpus(), 0
    for spec in specs:
        F = fourier_spline(spec)
        assert "".join(spline_csv(spec)) == F.to_csv() == reference_spline(spec).to_csv(), spec.betas
        trimmed += any(len(p) < len(spec.pairs) for p in F.pieces)
    assert trimmed > 1 and rat(0) in fourier_spline(specs[0]).breakpoints


def test_spline_size_guard_redirects():
    spec = SincProductSpec(tuple(rat(1, 2 * k + 3) for k in range(24)))
    with pytest.raises(SplineSizeError) as err:
        fourier_spline(spec)
    assert "pruned" in str(err.value)


class _Admitted(Exception):
    pass


@pytest.mark.parametrize(
    "spec, admitted",
    [
        # pieces x (n + 1) coefficients x words of D against NODE_BUDGET_DEFAULT = 4,000,000:
        # 16,383 x 14 x 8 = 1,834,896 words and 32,767 x 15 x 9 = 4,423,545
        (SincProductSpec.odd_harmonic(13), True),
        (SincProductSpec.odd_harmonic(14), False),
        # 317 x 317 x 39 = 3,919,071 and 318 x 318 x 40 = 4,044,960
        (SincProductSpec.sinc_power(317), True),
        (SincProductSpec.sinc_power(318), False),
    ],
)
def test_spline_is_priced_in_words_before_any_knot_is_merged(monkeypatch, spec, admitted):
    def first_merge(default):
        raise _Admitted

    monkeypatch.setattr(borwein_engine, "defaultdict", first_merge)
    with pytest.raises(_Admitted if admitted else SplineSizeError):
        fourier_spline(spec)


# -- pruned point evaluation --------------------------------------------------


def test_pruned_single_box():
    spec = SincProductSpec((rat(1),))
    assert point_eval_pruned(spec, rat(1, 2)) == 1
    assert point_eval_pruned(spec, 1) == rat(1, 2)  # half-sum at the jump
    assert point_eval_pruned(spec, -1) == rat(1, 2)
    assert point_eval_pruned(SincProductSpec((rat(2, 3),)), rat(2, 3)) == rat(3, 4)  # 1/(2 beta)
    assert point_eval_pruned(spec, 2) == 0


def test_pruned_57_factor_edge_value():
    spec = SincProductSpec.odd_harmonic(56)
    values, stats = _point_eval_pruned_stats(spec, [3])
    b = odd_harmonic_sum(56)
    c = math.prod(2 * k + 1 for k in range(1, 57))
    assert values[0] == rat(c) * (b - 3) ** 56 / (rat(2) ** 56 * math.factorial(56))
    assert stats.surviving == 1  # only the all-plus assignment reaches past 3


def test_pruned_matches_spline_randomized(monkeypatch):
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(0, 9)
        spec = SincProductSpec(tuple(rat(1, rng.randint(1, 9)) for _ in range(n + 1)))
        F = reference_spline(spec)
        xs = sorted((rat(rng.randint(-50, 50), rng.randint(1, 11)) for _ in range(8)), key=abs)
        for x in xs:
            assert point_eval_pruned(spec, x) == F.evaluate(x), (spec.betas, x)
            with monkeypatch.context() as m:  # layers split into chunks of at most 2 entries
                m.setattr(borwein_engine, "_LAYER_CAP", 2)
                assert point_eval_pruned(spec, x) == F.evaluate(x), (spec.betas, x)
        expected = [F.evaluate(x) for x in xs]  # every point from one DP, pruned at the lowest
        assert _point_eval_pruned_stats(spec, xs)[0] == expected, spec.betas
        with monkeypatch.context() as m:
            m.setattr(borwein_engine, "_LAYER_CAP", 2)
            assert _point_eval_pruned_stats(spec, xs)[0] == expected, spec.betas


def test_pruned_budget_error_reports_counts():
    spec = SincProductSpec(tuple(rat(1, k + 2) for k in range(12)))
    with pytest.raises(ExactPathUnavailableError) as err:
        _point_eval_pruned_stats(spec, [0], 50)
    assert err.value.visited > 50
    assert err.value.budget == 50


def test_budget_exhaustion_refuses_after_one_dp(monkeypatch):
    # the request's one DP over budget refuses it; nothing is rerun
    calls = []
    real = borwein_engine._point_eval_pruned_stats

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(borwein_engine, "_point_eval_pruned_stats", counting)
    with pytest.raises(ExactPathUnavailableError) as err:
        deficit_report(SincProductSpec.sinc_power(30), node_budget=20)
    assert err.value.visited > 20 and err.value.budget == 20
    assert "numeric oracle" in str(err.value)
    assert len(calls) == 1


def test_pruned_evenness():
    spec = SincProductSpec.odd_harmonic(4)
    for x in (rat(1, 3), rat(3, 2), rat(2)):
        assert point_eval_pruned(spec, x) == point_eval_pruned(spec, -x)


# -- edge polynomial ----------------------------------------------------------


def test_edge_polynomial_box():
    C, n, valid_from = edge_polynomial(SincProductSpec((rat(1),)))
    assert (C, n, valid_from) == (1, 0, -1)


def test_edge_polynomial_triangle():
    C, n, valid_from = edge_polynomial(SincProductSpec((rat(1), rat(1))))
    assert (C, n, valid_from) == (rat(1, 2), 1, 0)
    # F(1) from the edge expression matches the triangle value
    assert C * (2 - 1) ** n == rat(1, 2)
    assert fourier_spline(SincProductSpec((rat(1), rat(1)))).evaluate(1) == rat(1, 2)


def test_edge_polynomial_57_factor_anchors():
    spec = SincProductSpec.odd_harmonic(56)
    _, n, valid_from = edge_polynomial(spec)
    assert n == 56
    radius = spec.support_radius()
    assert valid_from == radius - rat(2, 113)
    with mp.workprec(120):
        vf = mp.pi * mp.mpf(valid_from.numerator) / mp.mpf(valid_from.denominator)
        rad = mp.pi * mp.mpf(radius.numerator) / mp.mpf(radius.denominator)
        assert mp.nstr(vf, 9) == "9.37950115"
        assert mp.nstr(rad, 9) == "9.43510456"


def test_edge_polynomial_agrees_with_outermost_piece():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(0, 7)
        spec = SincProductSpec(tuple(rat(1, rng.randint(1, 9)) for _ in range(n + 1)))
        C, deg, valid_from = edge_polynomial(spec)
        F = reference_spline(spec)
        R = spec.support_radius()
        assert F.breakpoints[-2] == valid_from
        expansion = [C * math.comb(deg, i) * R ** (deg - i) * (-1) ** i for i in range(deg + 1)]
        while len(expansion) > 1 and expansion[-1] == 0:
            expansion.pop()
        assert list(F.pieces[-1]) == expansion


# -- exact integrals ----------------------------------------------------------


def test_integral_unit_range():
    for n in range(7):
        rep = integral_exact(SincProductSpec.odd_harmonic(n))
        assert rep.exact_value == 1
        assert rep.deficit == 0
        assert rep.certified_by_support


def test_integral_single_factor_scaling():
    for beta in (rat(1), rat(1, 3), rat(5, 7)):
        rep = integral_exact(SincProductSpec((beta,)))
        assert rep.exact_value == 1 / beta


def test_integral_first_breaking():
    rep = integral_exact(SincProductSpec.odd_harmonic(7))
    b7 = odd_harmonic_sum(7)
    prod = math.prod(2 * k + 1 for k in range(8))
    C = rat(prod) / (rat(math.factorial(7)) * 2**7)
    assert rep.exact_value == 1 - 2 * C * (b7 - 2) ** 7
    assert rep.exact_value < 1
    # dual path: the full spline evaluated at 0 gives the same number
    assert fourier_spline(SincProductSpec.odd_harmonic(7)).evaluate(0) == rep.exact_value
    # report invariant: value + 2 * sum(F terms) == 1
    assert rep.exact_value + 2 * sum((v for _, v in rep.deficit_terms), rat(0)) == 1
    assert [x for x, _ in rep.deficit_terms] == [2]


def test_integral_no_unit_uses_spline():
    rep = integral_exact(SincProductSpec((rat(1, 2), rat(1, 2), rat(1, 2))))
    F0 = fourier_spline(SincProductSpec((rat(1, 2),) * 3)).evaluate(0)
    assert rep.exact_value == F0 == rat(3, 2)
    assert rep.deficit is None


def test_integral_exact_path_unavailable():
    # no unit scale, 25 distinct scales: spline projection and deep
    # pruning both infeasible
    spec = SincProductSpec(tuple(rat(1, k + 2) for k in range(25)))
    with pytest.raises(ExactPathUnavailableError) as err:
        integral_exact(spec, node_budget=10**4)
    assert "numeric" in str(err.value)


def test_integral_equal_scales_collapse_breakpoints():
    # 24 equal scales dedup to 25 breakpoints, so the spline stays easy
    rep = integral_exact(SincProductSpec((rat(1, 2),) * 24))
    F = fourier_spline(SincProductSpec((rat(1, 2),) * 24))
    assert len(F.breakpoints) == 25
    assert rep.exact_value == F.evaluate(0) > 0


# -- weighted integrals -------------------------------------------------------


def test_weighted_unit_range_boundary():
    w = CosineWeightSpec(0)
    assert weighted_integral_exact(SincProductSpec.odd_harmonic(55), w).exact_value == 1
    rep56 = weighted_integral_exact(SincProductSpec.odd_harmonic(56), w)
    assert rep56.exact_value < 1
    assert [x for x, _ in rep56.deficit_terms] == [3]


def test_weighted_single_box_half_sum():
    # 2 F(1) with the box jump at 1 valued as 1/2
    rep = weighted_integral_exact(SincProductSpec((rat(1),)), CosineWeightSpec(0))
    assert rep.exact_value == 1
    assert 2 * point_eval_pruned(SincProductSpec((rat(1),)), 1) == 1


def test_weighted_3090_certified():
    rep = weighted_integral_exact(SincProductSpec.odd_harmonic(3090), CosineWeightSpec(1))
    assert rep.exact_value == 1
    assert rep.certified_by_support


def test_weighted_no_unit_direct():
    spec = SincProductSpec((rat(1, 2), rat(1, 4)))
    rep = weighted_integral_exact(spec, CosineWeightSpec(0))
    F = fourier_spline(spec)
    assert rep.exact_value == 2 * F.evaluate(1)


# -- deficits -----------------------------------------------------------------


def test_deficit_strict_margin_is_zero():
    rep = deficit_report(SincProductSpec.odd_harmonic(6))
    assert rep.exact_value == 0
    assert rep.decimal == "0"


def test_deficit_57_factor_value():
    rep = deficit_report(SincProductSpec.odd_harmonic(56), CosineWeightSpec(0), digits=10)
    assert rep.decimal == "1.484870809e-138"
    N = rep.exact_value.numerator
    assert N % 347**56 == 0
    assert N % 39608671351**56 == 0
    # full factorization of the numerator: the cube of prime powers
    m = 347 * 39608671351 * 1786013712647720237751897933348037
    assert N == m**56
    # denominator 2-adic valuation: 56 - 55 - v2(56!) = -52
    D = rep.exact_value.denominator
    assert D % 2**52 == 0 and D % 2**53 != 0


def test_deficit_monotone_past_breaking_point():
    last = rat(0)
    for n in range(7, 13):
        d = deficit_report(SincProductSpec.odd_harmonic(n)).exact_value
        assert d > last
        last = d


def test_deficit_requires_unit_scale():
    with pytest.raises(ValueError):
        deficit_report(SincProductSpec((rat(1, 2),)))


# -- sinc powers --------------------------------------------------------------


def test_sinc_power_law():
    # the weighted integral of sinc^n with weight count m is exactly 1 for n <= 2m+3 only
    for m in (0, 1, 2):
        for n in range(1, 2 * m + 7):
            value = weighted_integral_exact(SincProductSpec.sinc_power(n), CosineWeightSpec(m)).exact_value
            assert (value == 1) == (n <= 2 * m + 3), (m, n, value)


def test_sinc_power_first_failure_value():
    # four factors, single cosine: value is 1 - 2 F(3) with F(3) = 1/48
    rep = weighted_integral_exact(SincProductSpec.sinc_power(4), CosineWeightSpec(0))
    assert point_eval_pruned(SincProductSpec.sinc_power(4), 3) == rat(1, 48)
    assert rep.exact_value == 1 - 2 * rat(1, 48) == rat(23, 24)


# -- structural invariants ----------------------------------------------------


def test_scaling_covariance():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(0, 5)
        spec = SincProductSpec(tuple(rat(1, rng.randint(1, 7)) for _ in range(n + 1)))
        lam = rat(rng.randint(1, 5), rng.randint(1, 5))
        scaled = SincProductSpec(tuple(b * lam for b in spec.betas))
        F, G = fourier_spline(spec), fourier_spline(scaled)
        for _ in range(5):
            x = rat(rng.randint(-20, 20), rng.randint(1, 9))
            assert G.evaluate(x) == F.evaluate(x / lam) / lam


def test_poisson_identities_on_unit_specs():
    rng = random.Random(5)
    tested = 0
    while tested < 12:
        n = rng.randint(0, 8)
        betas = [rat(1)] + [rat(1, rng.randint(1, 9)) for _ in range(n)]
        spec = SincProductSpec(tuple(betas))
        F = fourier_spline(spec)
        R = spec.support_radius()
        even = sum((F.evaluate(2 * k) for k in range(1, int(R // 2) + 2)), rat(0))
        odd = sum((F.evaluate(2 * k + 1) for k in range(0, int(R // 2) + 2)), rat(0))
        assert F.evaluate(0) + 2 * even == 1
        assert 2 * odd == 1
        tested += 1


def test_report_serialization():
    spec = SincProductSpec.odd_harmonic(7)
    rep = integral_exact(spec)
    d = rep.to_dict("integral", spec)
    assert d["command"] == "integral"
    assert d["spec"][0] == "1/1"
    assert d["exact"].count("/") == 1
    assert d["deficit_terms"][0][0] == 2
    assert d["weights"] is None
