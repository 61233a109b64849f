import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import bernfrac, iv

from sincprod import exact_core
from sincprod.exact_core import (
    EXACT_PROBE_CUTOFF,
    EXACT_TERM_CUTOFF,
    HarmonicFamily,
    Interval,
    NonTerminatingSearchError,
    _floor_ceil,
    _mpf_floor_ceil,
    _odd_sum_enclosure,
    _odd_sum_split,
    _step,
    breaking_point,
    breaking_point_report,
    interval_odd_harmonic_sum,
    odd_harmonic_sum,
)
from sincprod.rational import rat


# -- odd harmonic sums -------------------------------------------------------


def test_partial_sums_known_values():
    assert odd_harmonic_sum(0) == 1
    assert odd_harmonic_sum(6) == rat(88069, 45045)
    assert odd_harmonic_sum(7) == rat(91072, 45045)


@given(n=st.integers(min_value=0, max_value=400))
def test_partial_sum_recurrence(n):
    assert odd_harmonic_sum(n + 1) - odd_harmonic_sum(n) == rat(1, 2 * n + 3)


def test_partial_sum_rejects_negative():
    with pytest.raises(ValueError):
        odd_harmonic_sum(-1)


@pytest.mark.parametrize("a", [0, 1, 7, 250])
@pytest.mark.parametrize("length", [1, 2, 15, 16, 17, 33, 100, 127, 128, 129, 255, 256, 257, 1000, 3000])
def test_odd_sum_split_matches_fraction_sum(a, length):
    # ranges on both sides of the term-by-term leaf and of the product/gcd merge cut
    # (_PRODUCT_FORM_TERMS), from k = 0 and past it
    p, q = _odd_sum_split(a, a + length)
    assert Fraction(p, q) == sum(Fraction(1, 2 * k + 1) for k in range(a, a + length))


@pytest.mark.parametrize("a", [0, 1, 7, 250])
@pytest.mark.parametrize("length", [1000, 1500, 3000, 10_001])
def test_odd_sum_split_denominator_near_lcm(a, length):
    # long ranges merge over gcds, so den stays near the lcm of the odd numbers;
    # the product of the odd numbers is about 3.9 times that at 3,000 terms
    p, q = _odd_sum_split(a, a + length)
    assert q > 0
    assert q.bit_length() <= 1.25 * math.lcm(*range(2 * a + 1, 2 * (a + length), 2)).bit_length()


@pytest.mark.parametrize("n", [10_001, 30_000])
def test_odd_harmonic_sum_at_scale_matches_direct_enclosure(n):
    # where the search sums exactly past EXACT_TERM_CUTOFF: the split's sum lies in the
    # term-by-term enclosure, which shares no code with it, and steps by the last term
    s = odd_harmonic_sum(n)
    assert _contains(interval_odd_harmonic_sum(n, 512), s)
    assert s - odd_harmonic_sum(n - 1) == Fraction(1, 2 * n + 1)


# -- intervals ---------------------------------------------------------------


def _rounded(x, bits):
    """x rounded outward onto the 2^-bits grid, as the closed form rounds each part."""
    return Interval(*_floor_ceil(x.numerator, x.denominator, bits), bits)


def _bounds(iv):
    """The enclosure's ends as Fractions."""
    return Fraction(iv.lo_num, 1 << iv.precision_bits), Fraction(iv.hi_num, 1 << iv.precision_bits)


def _contains(iv, x):
    lo, hi = _bounds(iv)
    return lo <= x <= hi


def test_interval_encloses_thirds():
    lo, hi = _bounds(_rounded(rat(1, 3), 64))
    assert lo < rat(1, 3) < hi
    assert hi - lo == rat(1, 2**64)


@given(
    p=st.integers(min_value=-(10**9), max_value=10**9),
    q=st.integers(min_value=1, max_value=10**9),
    bits=st.integers(min_value=53, max_value=200),
)
def test_interval_contains_and_tight(p, q, bits):
    x = rat(p, q)
    iv = _rounded(x, bits)
    assert _contains(iv, x)
    lo, hi = _bounds(iv)
    assert hi - lo <= rat(1, 2**bits)


@given(
    p=st.integers(min_value=-(10**9), max_value=10**9),
    q=st.integers(min_value=1, max_value=10**9),
    bits=st.integers(min_value=53, max_value=150),
)
def test_interval_precision_monotone(p, q, bits):
    # widening precision never widens the enclosure
    x = rat(p, q)
    coarse_lo, coarse_hi = _bounds(_rounded(x, bits))
    fine_lo, fine_hi = _bounds(_rounded(x, bits + 37))
    assert coarse_lo <= fine_lo and fine_hi <= coarse_hi


@pytest.mark.parametrize("bits", [0, 1, 2, 53, 200])
def test_mpf_floor_ceil_matches_fractions(bits):
    # an exact integer's exponent is never negative, so exp + bits >= 0 and the
    # mantissa is shifted left; eighths at bits < 3 are shifted right and rounded
    for x in [Fraction(k, d) for k in range(-20, 21) for d in (1, 8)]:
        raw = (mp.mpf(x.numerator) / x.denominator)._mpf_
        assert x.denominator > 1 or raw[2] >= 0
        scaled = x * 2**bits
        assert _mpf_floor_ceil(raw, bits, ceil=False) == math.floor(scaled)
        assert _mpf_floor_ceil(raw, bits, ceil=True) == math.ceil(scaled)


def test_interval_sum_contains_exact():
    for n in (0, 17, 255, 2000):
        iv = interval_odd_harmonic_sum(n, 128)
        assert _contains(iv, odd_harmonic_sum(n)), n


def test_interval_sum_width_bound():
    for n, bits in ((55, 128), (2000, 64)):
        lo, hi = _bounds(interval_odd_harmonic_sum(n, bits))
        value = odd_harmonic_sum(n)
        assert hi - lo <= (n + 1) * rat(2) * value / 2**bits


def test_interval_sum_anchor_55():
    # midpoint within half an ulp of the 10-digit reference 2.994437501
    lo, hi = _bounds(interval_odd_harmonic_sum(55, 128))
    assert abs((lo + hi) / 2 - rat("2.994437501")) <= rat(5, 10**10)


def test_interval_sum_anchor_3090():
    import mpmath as mp

    iv = interval_odd_harmonic_sum(3090, 128)
    assert _contains(iv, odd_harmonic_sum(3090))
    lo, hi = _bounds(iv)
    midpoint = (lo + hi) / 2
    with mp.workprec(120):
        scaled = mp.pi * mp.mpf(midpoint.numerator) / mp.mpf(midpoint.denominator)
        assert abs(scaled - mp.mpf("15.70758624")) < 1e-8


# -- breaking points ---------------------------------------------------------


def test_breaking_points_odd_harmonic():
    fam = HarmonicFamily.odd_harmonic()
    assert breaking_point(fam, 2) == 6
    assert breaking_point(fam, 3) == 55


def test_breaking_point_modes():
    fam = HarmonicFamily.odd_harmonic()
    assert breaking_point_report(fam, 3).mode == "exact"      # estimate and n below the probe cutoff
    rep5 = breaking_point_report(fam, 5)
    assert (rep5.n, rep5.mode) == (3090, "closed_form")
    rep7 = breaking_point_report(fam, 7)
    assert (rep7.n, rep7.mode) == (168802, "closed_form")


def test_breaking_point_nine():
    assert breaking_point(HarmonicFamily.odd_harmonic(), 9) == 9216352


def test_breaking_point_bracket():
    # n* is the last index strictly below, n*+1 is at or above
    fam = HarmonicFamily.odd_harmonic()
    for threshold in (2, 3):
        n = breaking_point(fam, threshold)
        assert odd_harmonic_sum(n) < threshold <= odd_harmonic_sum(n + 1)
    for threshold in (5, 7):
        n = breaking_point(fam, threshold)
        assert interval_odd_harmonic_sum(n, 512).strictly_below(threshold)
        assert interval_odd_harmonic_sum(n + 1, 512).strictly_above(threshold)


@pytest.mark.parametrize("t, n", [(3, 55), (5, 3090), (7, 168802), (Fraction(39, 2), 12154671470589005)])
def test_search_finds_n_from_any_start(t, n):
    # the estimate lands on n or n + 1 wherever the other tests look, so the
    # gallop past one step and the bisection run only from starts like these
    for start in (max(n - 1000, 0), n + 1000, 0, 2 * n + 5):
        assert exact_core._search(rat(t), start).n == n, start


def test_breaking_point_interval_phase_forced(monkeypatch):
    # drive the closed-form enclosures even for small thresholds
    monkeypatch.setattr(exact_core, "EXACT_PROBE_CUTOFF", 0)
    fam = HarmonicFamily.odd_harmonic()
    rep = breaking_point_report(fam, 3)
    assert (rep.n, rep.mode) == (55, "closed_form")


@pytest.mark.parametrize("m, delta, expected", [
    (249, Fraction(1, 10**40), (249, "exact", None)),
    (250, -Fraction(1, 1002), (249, "exact", None)),
    (250, 0, (249, "closed_form", 128)),
    (250, Fraction(1, 10**40), (250, "closed_form", 128)),
])
def test_breaking_point_report_across_probe_cutoff(m, delta, expected):
    # t = S_m + delta: the mode is "exact" only when the estimate and n
    # both lie below the cutoff
    rep = breaking_point_report(HarmonicFamily.odd_harmonic(), odd_harmonic_sum(m) + delta)
    assert (rep.n, rep.mode, rep.precision_bits) == expected


def _assert_direct_sum_bracket(threshold, n):
    """S_n < t <= S_(n+1) by summation, never by the closed form."""
    if n < 12_000:
        assert odd_harmonic_sum(n) < threshold <= odd_harmonic_sum(n + 1)
    else:
        assert interval_odd_harmonic_sum(n, 512).strictly_below(threshold)
        assert interval_odd_harmonic_sum(n + 1, 512).strictly_above(threshold)


@settings(max_examples=60, deadline=None)
@given(t=st.fractions(min_value=1, max_value=6, max_denominator=10**9).filter(lambda t: t > 1))
def test_breaking_point_matches_direct_sums(t):
    _assert_direct_sum_bracket(t, breaking_point(HarmonicFamily.odd_harmonic(), t))


_NEAR_CUTOFFS = [m for c in (EXACT_PROBE_CUTOFF, EXACT_TERM_CUTOFF) for m in range(c - 3, c + 4)]


@settings(max_examples=60, deadline=None)
@given(
    m=st.one_of(st.sampled_from(_NEAR_CUTOFFS), st.integers(min_value=1, max_value=12_000)),
    k=st.one_of(st.none(), st.integers(min_value=1, max_value=1200)),
)
def test_breaking_point_near_partial_sums(m, k):
    # t = S_m exactly (k None) or 2^-k below it, on both sides of each cutoff
    s_m = odd_harmonic_sum(m)
    t = s_m if k is None else s_m - Fraction(1, 2**k)
    assume(t > 1)  # S_0 = 1 already reaches any t <= 1
    n = breaking_point(HarmonicFamily.odd_harmonic(), t)
    if k is None or Fraction(1, 2**k) < rat(1, 2 * m + 1):
        assert n == m - 1
    _assert_direct_sum_bracket(t, n)


def test_closed_form_enclosure_contains_exact_sum():
    for n in (0, 1, 6, 55, 250, 3090, 10_001):
        for bits in (53, 128, 1024):
            enclosure, limited = _odd_sum_enclosure(n, bits)
            assert _contains(enclosure, odd_harmonic_sum(n)), (n, bits)
            if n >= 250:
                lo, hi = _bounds(enclosure)
                assert not limited and hi - lo < rat(1, 2**(bits - 10)), (n, bits)


def _iv_enclosure(n, bits):
    """_odd_sum_enclosure with ln d + gamma + ln 2 taken from the mpmath.iv context: the
    reference for its direct mpmath.libmp calls.  The series and its remainder are the same."""
    d = 2 * n + 3
    saved = iv.prec
    iv.prec = bits + 32
    try:
        v = (iv.log(d) + iv.euler + iv.ln2)._mpi_
    finally:
        iv.prec = saved
    lo_t, hi_t = _floor_ceil(-1, d, bits)
    lo, hi = _mpf_floor_ceil(v[0], bits, ceil=False) + lo_t, _mpf_floor_ceil(v[1], bits, ceil=True) + hi_t
    prev, k = None, 1
    while True:
        b_p, b_q = bernfrac(2 * k)
        p, q = -b_p << (2 * k), 2 * k * b_q * d ** (2 * k)
        lo_t, hi_t = _floor_ceil(p, q, bits)
        size = abs(p).bit_length() - q.bit_length()
        limited = k > exact_core.MAX_SERIES_TERMS or (prev is not None and size > prev)
        if limited or size < -bits - 2:
            return Interval(lo + lo_t * (p < 0), hi + hi_t * (p > 0), bits + 1), limited
        lo, hi, prev, k = lo + lo_t, hi + hi_t, size, k + 1


@pytest.mark.parametrize("n", [250, 3090, 10_001, 168_802, 10**12])
@pytest.mark.parametrize("bits", [128, 256, 1024, 4096])
def test_closed_form_enclosure_bit_identical_to_iv(n, bits):
    enclosure, limited = _odd_sum_enclosure(n, bits)
    reference, ref_limited = _iv_enclosure(n, bits)
    assert (enclosure.lo_num, enclosure.hi_num, enclosure.precision_bits, limited) == (
        reference.lo_num, reference.hi_num, reference.precision_bits, ref_limited)


def test_stepped_enclosures_contain_neighbours():
    # from the search's enclosure of S_n and from the one-ulp enclosure of the exact S_n,
    # whose ends sit closest to S_n: a term rounded inward on either side shows there
    rng = random.Random(36)
    for n in [250, 3000] + [rng.randint(250, 3000) for _ in range(40)]:
        for bits in (128, 512):
            for start in (_odd_sum_enclosure(n, bits)[0], _rounded(odd_harmonic_sum(n), bits + 1)):
                for m in (n - 1, n + 1):
                    stepped = _step(start, n, m)
                    assert _contains(stepped, odd_harmonic_sum(m)), (n, bits, m)
                    assert stepped.hi_num - stepped.lo_num - (start.hi_num - start.lo_num) in (0, 1)


@pytest.mark.parametrize("n", [0, 1, 6, 249, 250, 3090])
def test_exact_step_matches_split(n):
    for m in [m for m in (n - 1, n + 1) if m >= 0]:
        assert Fraction(*_step(_odd_sum_split(0, n + 1), n, m)) == Fraction(*_odd_sum_split(0, m + 1)), m


def test_stepped_exact_probe_counts_one_term():
    # t = 3: the estimate lands on n = 55, summed exactly (56 terms); S_56 is one step from it
    assert breaking_point_report(HarmonicFamily.odd_harmonic(), 3).terms_scanned == 56 + 1


@pytest.mark.parametrize("m", [300, 3090, 10_001])
@pytest.mark.parametrize("sign", [-1, 1])
def test_breaking_point_report_pinned_near_partial_sums(m, sign):
    # t = S_m +- 2^-k around the 128-bit grid, where an enclosure stepped from a neighbour could
    # decide at a lower precision than a fresh one; pinned from the search by fresh enclosures alone
    s_m = odd_harmonic_sum(m)
    for k in range(120, 137):
        rep = breaking_point_report(HarmonicFamily.odd_harmonic(), s_m + sign * Fraction(1, 2**k))
        bits = 256 if m > EXACT_TERM_CUTOFF and k >= 128 else 128
        assert (rep.n, rep.mode, rep.precision_bits) == (m - (sign < 0), "closed_form", bits), k


def test_breaking_point_beyond_max_precision_refused():
    with pytest.raises(NonTerminatingSearchError):
        breaking_point(HarmonicFamily.odd_harmonic(), 6000)


def test_breaking_point_exact_equality_escalates_to_exact():
    # custom family hitting the threshold exactly: intervals can never
    # decide, the search must fall back to exact comparison
    fam = HarmonicFamily.custom([rat(1), rat(1), rat(1, 2)])
    assert breaking_point(fam, 2) == 0


def test_breaking_point_constant_family():
    fam = HarmonicFamily.constant(rat(1, 3))
    # sums: 1/3, 2/3, 1, 4/3 ...; last strictly below 1 is n=1
    assert breaking_point(fam, 1) == 1
    assert breaking_point(fam, rat(7, 6)) == 2
    with pytest.raises(NonTerminatingSearchError):
        breaking_point(HarmonicFamily.constant(5), 2)


def test_breaking_point_custom_family():
    fam = HarmonicFamily.custom([rat(1, 2), rat(1, 3), rat(1, 7)])
    assert breaking_point(fam, rat(9, 10)) == 1
    with pytest.raises(NonTerminatingSearchError):
        breaking_point(fam, 50)  # finite family never reaches 50
    with pytest.raises(NonTerminatingSearchError):
        breaking_point(fam, rat(1, 4))  # first term already over


def test_breaking_point_rejects_bad_threshold():
    with pytest.raises(ValueError):
        breaking_point(HarmonicFamily.odd_harmonic(), 0)


def test_family_validation():
    with pytest.raises(ValueError):
        HarmonicFamily.custom([])
    with pytest.raises(ValueError):
        HarmonicFamily.custom([rat(1), rat(0)])
    with pytest.raises(ValueError):
        HarmonicFamily.constant(-1)
