from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincprod import spline_engine
from sincprod.borwein_engine import SincProductSpec, fourier_spline
from sincprod.rational import rat
from sincprod.spline_engine import PiecewisePolynomial, SplineSizeError, box
from sincprod.verify import random_spec_corpus

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=12
)
positive_rationals = st.fractions(
    min_value="1/12", max_value=4, max_denominator=12
)


def random_spline(breaks, coeff_rows):
    bps = sorted(set(breaks))
    if len(bps) < 2:
        bps = bps + [bps[0] + 1] if bps else [0, 1]
    pieces = []
    for i in range(len(bps) - 1):
        row = coeff_rows[i % len(coeff_rows)]
        pieces.append(tuple(rat(c) for c in row))
    return PiecewisePolynomial(tuple(rat(b) for b in bps), tuple(pieces))


splines = st.builds(
    random_spline,
    st.lists(rationals, min_size=2, max_size=6, unique=True),
    st.lists(st.lists(rationals, min_size=1, max_size=4), min_size=1, max_size=5),
)

ZERO = PiecewisePolynomial((), ())


def _derivative(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:] or [rat(0)]


def smoothness_order(s):
    """Largest m such that adjacent pieces (0 outside the support) agree
    in value and in the first m derivatives at every breakpoint: -1 for
    a jump, inf where no two adjacent pieces differ."""
    best = float("inf")
    for i, b in enumerate(s.breakpoints):
        left = list(s.pieces[i - 1]) if i >= 1 else [rat(0)]
        right = list(s.pieces[i]) if i < len(s.pieces) else [rat(0)]
        diff = [a - c for a, c in zip_longest(left, right, fillvalue=0)]
        if not any(diff):
            continue  # identical polynomials, no constraint here
        order = -1
        while _peval(diff, b) == 0:
            order += 1
            diff = _derivative(diff)
        best = min(best, order)
    return best


def parse_csv(text):
    """The spline of to_csv's rows x_lo,x_hi,c0,...,c_d."""
    bps, pieces = [], []
    for line in text.splitlines():
        lo, hi, *coeffs = (rat(c) for c in line.split(","))
        if not bps:
            bps.append(lo)
        assert lo == bps[-1], "pieces are not contiguous"
        bps.append(hi)
        pieces.append(tuple(coeffs))
    return PiecewisePolynomial(tuple(bps), tuple(pieces))


# -- box ----------------------------------------------------------------------


def test_box_basic():
    b = box(1)
    assert b.evaluate(0) == 1
    assert b.evaluate(rat(1, 4)) == 1
    assert b.evaluate(2) == 0
    assert b.integral() == 2


def test_box_scaled_height():
    b = box(rat(1, 3))
    assert b.evaluate(rat(1, 4)) == 3
    assert b.integral() == 2


def test_box_rejects_nonpositive():
    with pytest.raises(ValueError):
        box(0)
    with pytest.raises(ValueError):
        box(rat(-1, 2))


@given(h=positive_rationals)
def test_box_integral_always_two(h):
    assert box(h).integral() == 2


# -- the value at a jump ------------------------------------------------------


def test_jump_conventions_at_box_edge():
    # a breakpoint takes the half-sum of the one-sided limits
    b = box(1)
    assert b.evaluate(1) == rat(1, 2)
    assert b.evaluate(-1) == rat(1, 2)
    assert box(rat(1, 3)).evaluate(rat(1, 3)) == rat(3, 2)


# -- convolution --------------------------------------------------------------


def test_triangle_from_unit_boxes():
    tri = box(1).convolve_with_box(1)
    assert tri.evaluate(0) == 2
    assert tri.evaluate(1) == 1
    assert tri.breakpoints == (rat(-2), rat(0), rat(2))
    assert max(len(p) for p in tri.pieces) == 2  # linear pieces
    assert tri.integral() == 4


def test_convolution_narrow_box():
    s = box(1).convolve_with_box(rat(1, 3))
    assert s.evaluate(0) == rat(2, 3)
    assert (s.breakpoints[0], s.breakpoints[-1]) == (rat(-4, 3), rat(4, 3))


def test_convolution_is_continuous():
    # adjacent pieces meet at every breakpoint; each box smooths one order more
    assert smoothness_order(box(1)) == -1
    s = box(1).convolve_with_box(rat(1, 2))
    assert smoothness_order(s) == 0
    assert smoothness_order(s.convolve_with_box(1)) == 1


def test_convolution_rejects_nonpositive_halfwidth():
    with pytest.raises(ValueError):
        box(1).convolve_with_box(0)


def test_size_guard_trips(monkeypatch):
    s = box(1)
    for k in range(3):
        s = s.convolve_with_box(rat(1, 3 + 2 * k))
    monkeypatch.setattr(spline_engine, "SIZE_GUARD_DEFAULT", 8)
    with pytest.raises(SplineSizeError):
        s.convolve_with_box(rat(1, 11))


@settings(max_examples=60)
@given(s=splines, h=positive_rationals)
def test_convolution_mass_rule(s, h):
    assert s.convolve_with_box(h).integral() == 2 * rat(h) * s.integral()


@settings(max_examples=60)
@given(s=splines, h=positive_rationals)
def test_convolution_support_additivity_and_degree(s, h):
    out = s.convolve_with_box(h)
    lo, hi = s.breakpoints[0], s.breakpoints[-1]
    assert (out.breakpoints[0], out.breakpoints[-1]) == (lo - rat(h), hi + rat(h))
    assert max(map(len, out.pieces)) <= max(map(len, s.pieces)) + 1
    # breakpoints are exactly the shifted originals, deduplicated
    want = sorted({b - rat(h) for b in s.breakpoints} | {b + rat(h) for b in s.breakpoints})
    assert list(out.breakpoints) == want


@settings(max_examples=40)
@given(s=splines, h=positive_rationals)
def test_convolution_pointwise_matches_direct_integral(s, h):
    # independent oracle: integrate the antiderivative difference by hand
    out = s.convolve_with_box(h)
    h = rat(h)
    for x in (rat(0), rat(1, 3), s.breakpoints[0] + h / 3, s.breakpoints[-1]):
        lo, hi = x - h, x + h
        # clip to support and integrate piece by piece
        acc = rat(0)
        for j, piece in enumerate(s.pieces):
            a, b = max(lo, s.breakpoints[j]), min(hi, s.breakpoints[j + 1])
            if a >= b:
                continue
            ip = [rat(0)] + [c / (i + 1) for i, c in enumerate(piece)]
            acc += _peval(ip, b) - _peval(ip, a)
        assert out.evaluate(x) == acc


def _peval(coeffs, x):
    acc = rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def test_evenness_preserved():
    s = box(1).convolve_with_box(rat(1, 3)).convolve_with_box(rat(1, 5))
    for x in (rat(1, 7), rat(5, 4), rat(13, 15)):
        assert s.evaluate(x) == s.evaluate(-x)


# -- integration and smoothness -----------------------------------------------


def test_antiderivative_is_cumulative():
    tri = box(1).convolve_with_box(1)
    pieces, total = tri._cumulative()
    assert _peval(pieces[0], tri.breakpoints[0]) == 0
    for j in range(1, len(pieces)):  # continuous across the interior breakpoints
        assert _peval(pieces[j - 1], tri.breakpoints[j]) == _peval(pieces[j], tri.breakpoints[j])
    assert _peval(pieces[-1], tri.breakpoints[-1]) == total == tri.integral()


def test_zero_function_roundtrips():
    assert ZERO.integral() == 0
    assert ZERO.evaluate(3) == 0
    assert ZERO.convolve_with_box(1).integral() == 0


def test_fourier_spline_smoothness():
    # F of n + 1 factors is C^(n-1), and no smoother: its edge piece is C (R - x)^n
    specs = [SincProductSpec.odd_harmonic(n) for n in range(1, 7)]
    specs += [spec for spec in random_spec_corpus() if len(spec.betas) >= 2]
    for spec in specs:
        assert smoothness_order(fourier_spline(spec)) == len(spec.betas) - 2, spec.betas


# -- serialization ------------------------------------------------------------


def test_csv_round_trip():
    s = box(1).convolve_with_box(rat(1, 3)).convolve_with_box(rat(1, 5))
    text = s.to_csv()
    back = parse_csv(text)
    assert back == s
    first = text.splitlines()[0].split(",")
    assert first[0] == "-23/15"  # -(1 + 1/3 + 1/5)


def test_csv_zero():
    assert ZERO.to_csv() == ""
    assert parse_csv("") == ZERO


def test_invalid_construction():
    with pytest.raises(ValueError):
        PiecewisePolynomial((rat(0), rat(0)), ((rat(1),),))
    with pytest.raises(ValueError):
        PiecewisePolynomial((rat(0),), ((rat(1),),))
