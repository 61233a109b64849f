"""Independent floating-point verification in extended precision.

Everything here deliberately avoids the exact engine's machinery: sums
are summed, integrals are integrated.  mpmath supplies the arbitrary
precision arithmetic; the working precision defaults to
SINCPROD_PRECISION_BITS (clamped to 96 ... 16384 bits) so that ten
matching decimal digits can be certified comfortably.

Integrals of sinc products use one quadrature panel on the head
[0, T], half a period of the fastest frequency, plus a closed-form
tail: past T the integrand is exactly a trigonometric sum over t^p,
and each term integral_T^inf e^(i w t) t^(-p) dt equals
T^(1-p) E_p(-i w T) with E_p the generalized exponential integral
(DLMF 8.19), for any T > 0.  Equal frequencies are merged and each
conjugate pair +-w shares one call, so the tail costs one
special-function call per distinct nonzero |w|.  It is accurate to
working precision, with guard bits for the cancellation a short head
leaves, instead of needing the astronomically large truncation points
an absolute-value bound would demand for slowly decaying integrands.

The non-sinc band-limited family (the (t sin t - cos t + e) kernel) has
conditionally convergent Fourier-type integrals with 1/t tails; those
go through mpmath.quadosc, which integrates period-by-period and
accelerates the resulting series.  Input scales for that family are
taken as exact rationals so a true common period exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf

import mpmath as mp
from mpmath import mpc, mpf

from .borwein_engine import CosineWeightSpec
from .exact_core import env_precision_bits
from .rational import rat

DEFAULT_PREC_BITS = env_precision_bits(96) or 128

MAX_SUM_TERMS = 20_000_000
MAX_TRIG_FACTORS = 16


class ToleranceUnreachableError(Exception):
    """The rigorous tail bound cannot reach the requested tolerance
    within the iteration cap, or the quadrature's error estimate exceeds
    the requested relative tolerance."""


@dataclass(frozen=True)
class RealScales:
    """Positive real scales a_k of prod_k sinc(a_k t), an optional
    cosine weight (in sampling-normalized units, frequencies (2k+1)pi),
    and an optional sin(b t)/t kernel factor."""

    scales: tuple
    weight: CosineWeightSpec | None = None
    b: object = None

    def __post_init__(self):
        # keep the caller's numeric type (mpf scales stay mpf); a float()
        # round-trip here would silently cap the attainable accuracy
        scales = tuple(self.scales)
        if not scales or not all(_positive_finite(a) for a in scales):
            raise ValueError("scales must be a nonempty list of positive finite reals")
        object.__setattr__(self, "scales", scales)
        if self.b is not None and not _positive_finite(self.b):
            raise ValueError("kernel parameter b must be a positive finite real")


def _positive_finite(x) -> bool:
    return float(x) > 0 and mp.isfinite(x)


def _as_scales(scales) -> RealScales:
    if isinstance(scales, RealScales):
        return scales
    return RealScales(tuple(scales))


@dataclass(frozen=True)
class SumResult:
    value: object          # mpf
    truncation_m: int
    tail_bound: object     # mpf, rigorous bound on the dropped tail
    requested_tol: float
    one_sided: bool = False

    def to_dict(self) -> dict:
        return {
            "value": mp.nstr(self.value, 17),
            "truncation_m": self.truncation_m,
            "tail_bound": mp.nstr(self.tail_bound, 5),
            "requested_tol": self.requested_tol,
            "one_sided": self.one_sided,
        }


def _sinc(x):
    return mp.sin(x) / x if x != 0 else mpf(1)


# ---------------------------------------------------------------------------
# integrals of sinc products
# ---------------------------------------------------------------------------


def _trig_combos(scales_mp, weight: CosineWeightSpec | None):
    """Complex-exponential expansion of prod sin(a_k t) * weight(t).

    Returns (coeff, frequency) pairs with
    prod_k sin(a_k t) * W(t) = sum_j coeff_j * e^(i freq_j t).
    """
    p = len(scales_mp)
    combos = [(mpc(1) / (2j) ** p, mpf(0))]
    for a in scales_mp:
        combos = [(c, w + a) for c, w in combos] + [(-c, w - a) for c, w in combos]
    if weight is not None:
        out = []
        for mult in weight.multipliers():
            nu = mult * mp.pi
            for c, w in combos:
                out.append((c, w + nu))
                out.append((c, w - nu))
        combos = out
    return combos


def _tail_exact(scales_mp, weight, T):
    """integral_T^inf prod_k sinc(a_k t) * W(t) dt, exact to precision.

    Equal frequencies are merged.  The integrand is real, so the
    coefficient at -w is the conjugate of the one at +w, and
    E_p(conj z) = conj E_p(z): each pair +-w costs one E_p call, and
    w = 0 contributes c / (p - 1) with no call.  The terms have size
    up to T^(1-p) / prod a_k and cancel down to the tail, so the sum
    carries log2 of that size in guard bits, plus p.
    """
    p = len(scales_mp)
    inv = mpf(1)
    for a in scales_mp:
        inv /= a
    size = inv * T ** (1 - p)
    with mp.extraprec(max(0, int(mp.ceil(mp.log(size, 2)))) + p):
        merged = {}
        for c, w in _trig_combos(scales_mp, weight):
            if w < 0:
                c, w = mp.conj(c), -w
            merged[w] = merged.get(w, 0) + c
        total = mpf(0)
        for w, c in merged.items():
            if w == 0:
                total += c.real / (p - 1)
            elif c != 0:
                total += (c * mp.expint(p, -1j * w * T)).real
        return size * total


def numeric_integral(scales, rel_tol: float = 1e-12, prec_bits: int | None = None):
    """integral over R of W(t) prod_k sinc(a_k t) dt within rel_tol.

    The head [0, T] is one half period of the fastest frequency,
    T = pi / omega_max, integrated directly; the tail past T is exact
    at any T.  ToleranceUnreachableError is raised when the
    quadrature's error estimate exceeds rel_tol of the result.

    A single undamped sinc factor is not absolutely integrable and is
    rejected (the exact engine handles that case in closed form).  The
    sin(b t)/t kernel, when present, counts as one more sinc factor
    since sin(b t)/t = b sinc(b t).
    """
    rs = _as_scales(scales)
    eff = list(rs.scales) + ([rs.b] if rs.b is not None else [])
    if len(eff) < 2:
        raise ValueError(
            "a single sinc factor is not absolutely integrable; "
            "use the exact engine for closed forms"
        )
    if len(eff) > MAX_TRIG_FACTORS:
        raise ValueError("too many factors for the closed-form tail (max %d)" % MAX_TRIG_FACTORS)
    prec = prec_bits or DEFAULT_PREC_BITS
    need = int(-mp.log(mpf(rel_tol), 2)) + 40
    with mp.workprec(max(prec, need)):
        a_mp = [mpf(a) for a in eff]
        weight = rs.weight
        omega_max = mp.fsum(a_mp) + ((2 * weight.m + 1) * mp.pi if weight is not None else 0)
        T = mp.pi / omega_max

        def f(t):
            v = mpf(1)
            for a in a_mp:
                v *= _sinc(a * t)
            if weight is not None:
                v *= 2 * mp.fsum(mp.cos((2 * k + 1) * mp.pi * t) for k in range(weight.m + 1))
            return v

        head, err = mp.quad(f, [0, T], error=True)
        half = head + _tail_exact(a_mp, weight, T)
        if err > rel_tol * abs(half):
            raise ToleranceUnreachableError(
                "quadrature error estimate %s exceeds rel_tol %s of the half-line integral %s"
                % (mp.nstr(err, 5), rel_tol, mp.nstr(half, 5))
            )
        result = 2 * half
        if rs.b is not None:
            result *= mpf(rs.b)
        return result


# ---------------------------------------------------------------------------
# sums of sinc products
# ---------------------------------------------------------------------------


def _sum_tail_bound(scales, M):
    """Rigorous bound on sum_{m>M} prod_k |sinc(a_k m)|, valid once
    a_k M >= 1 for every k: each term is below prod 1/(a_k m), and the
    integral comparison bounds the sum by (prod 1/a_k) M^(1-p)/(p-1)."""
    p = len(scales)
    inv = mpf(1)
    for a in scales:
        inv /= mpf(a)
    return inv * mpf(M) ** (1 - p) / (p - 1)


def numeric_sum(
    scales,
    alternating: bool = False,
    abs_tol: float = 1e-10,
    one_sided: bool = False,
    prec_bits: int | None = None,
) -> SumResult:
    """sum over integers m of prod_k sinc(a_k m) (times (-1)^m when
    alternating), truncated with a rigorous tail bound <= abs_tol.

    one_sided restricts to m >= 0; the integrand is even in m, so
    one_sided = (two_sided + 1) / 2.
    """
    if not 0 < abs_tol < inf:
        raise ValueError("abs_tol must be a positive finite number, got %r" % abs_tol)
    rs = _as_scales(scales)
    if rs.b is not None or rs.weight is not None:
        raise ValueError("numeric_sum takes plain scales (no kernel, no weight)")
    p = len(rs.scales)
    if p < 3 and not (alternating and p >= 2):
        raise ValueError("need >= 3 factors (or alternating with >= 2) for a convergent sum")
    prec = prec_bits or DEFAULT_PREC_BITS
    with mp.workprec(prec):
        a_mp = [mpf(a) for a in rs.scales]
        tol = mpf(abs_tol)
        lo = max(2, int(mp.ceil(1 / min(a_mp))))
        # bound = inv * M^(1-p) / (p-1), solved for M directly
        inv = mpf(1)
        for a in a_mp:
            inv /= a
        M = max(lo, int((inv / ((p - 1) * tol)) ** (mpf(1) / (p - 1))) + 1)
        while _sum_tail_bound(a_mp, M) > tol and M <= MAX_SUM_TERMS:
            M *= 2
        if M > MAX_SUM_TERMS:
            raise ToleranceUnreachableError(
                "tail bound %s at the %d-term cap exceeds abs_tol %s"
                % (mp.nstr(_sum_tail_bound(a_mp, MAX_SUM_TERMS), 5), MAX_SUM_TERMS, abs_tol)
            )

        def term(m):
            v = mpf(1)
            for a in a_mp:
                v *= _sinc(a * m)
            if alternating and m & 1:
                v = -v
            return v

        body = mp.fsum(term(m) for m in range(1, M + 1))
        value = 1 + body if one_sided else 1 + 2 * body
        bound = _sum_tail_bound(a_mp, M)
        if not one_sided:
            bound *= 2
        return SumResult(value, M, bound, float(abs_tol), one_sided)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def verify_theorem1(scales, alternating: bool = False, tol: float = 1e-7, prec_bits: int | None = None) -> dict:
    """Compare the integer-sample sum against the (possibly weighted)
    integral through two independent numeric paths.

    The two sides agree whenever the scales sum below 2 pi (plain) or
    3 pi (alternating); the report records whether that hypothesis
    holds and whether the sides agree within tol."""
    rs = _as_scales(scales)
    if len(rs.scales) < 2:
        return {
            "excluded": True,
            "reason": "single-factor specs are handled by the exact engine only",
            "hypothesis_holds": float(sum(rs.scales)) < float((3 if alternating else 2) * mp.pi),
        }
    total = mp.fsum(mpf(a) for a in rs.scales)
    hypothesis = total < (3 if alternating else 2) * mp.pi
    sum_res = numeric_sum(rs.scales, alternating=alternating, abs_tol=float(tol) / 8, prec_bits=prec_bits)
    weight = CosineWeightSpec(0) if alternating else None
    integral = numeric_integral(
        RealScales(rs.scales, weight=weight), rel_tol=float(tol) / 8, prec_bits=prec_bits
    )
    diff = sum_res.value - integral
    return {
        "lhs": mp.nstr(sum_res.value, 17),
        "rhs": mp.nstr(integral, 17),
        "difference": mp.nstr(diff, 8),
        "tolerance": float(tol),
        "hypothesis_holds": bool(hypothesis),
        "equal_within_tol": bool(abs(diff) <= mpf(tol)),
        "truncation_m": sum_res.truncation_m,
        "tail_bound": mp.nstr(sum_res.tail_bound, 5),
    }


def lower_bound_check(a0, rest, abs_tol: float = 5e-10, prec_bits: int | None = None) -> dict:
    """Sum-side analog of the dominated lower bound: compare
    sum_{m>=0} prod sinc(a_k m) against sum_{m>=0} sinc^(n+1)(a0 m).

    The analog is guaranteed only under (n+1) a0 < 2 pi; the report
    states whether the hypothesis holds and whether the inequality came
    out true, so hypothesis violations with a failing inequality are
    visible counterexamples."""
    rest = list(rest)
    if any(float(a) > float(a0) or float(a) <= 0 for a in rest) or float(a0) <= 0:
        raise ValueError("requires a0 >= a_k > 0")
    n = len(rest)
    lhs = numeric_sum([a0] + rest, abs_tol=abs_tol, one_sided=True, prec_bits=prec_bits)
    rhs = numeric_sum([a0] * (n + 1), abs_tol=abs_tol, one_sided=True, prec_bits=prec_bits)
    slack = lhs.tail_bound + rhs.tail_bound
    hypothesis = (n + 1) * mpf(a0) < 2 * mp.pi
    return {
        "lhs": mp.nstr(lhs.value, 17),
        "rhs": mp.nstr(rhs.value, 17),
        "lhs_truncation_m": lhs.truncation_m,
        "rhs_truncation_m": rhs.truncation_m,
        "hypothesis_holds": bool(hypothesis),
        "inequality_holds": bool(lhs.value >= rhs.value - slack),
        "margin": mp.nstr(lhs.value - rhs.value, 10),
    }


# ---------------------------------------------------------------------------
# the non-sinc band-limited family
# ---------------------------------------------------------------------------


def bandlimited_kernel(t):
    """f(t) = (t sin t - cos t + e) / ((1 + t^2)(e - 1)); f(0) = 1 and
    its transform is pi e^(-|w|) / (1 - 1/e) on |w| < 1, zero beyond."""
    t = mpf(t)
    if t == 0:
        return mpf(1)
    return (t * mp.sin(t) - mp.cos(t) + mp.e) / ((1 + t * t) * (mp.e - 1))


MAX_OSC_PERIOD = 400.0


def _common_period(freqs):
    """Exact common period 2 pi / g, with g the gcd of the rational
    frequency lattice spanned by the inputs."""
    fracs = [Fraction(f.numerator, f.denominator) for f in freqs if f != 0]
    if not fracs:
        return 2 * mp.pi
    lcm_den = 1
    for f in fracs:
        lcm_den = lcm_den * f.denominator // gcd(lcm_den, f.denominator)
    gcd_num = 0
    for f in fracs:
        gcd_num = gcd(gcd_num, abs(f.numerator) * (lcm_den // f.denominator))
    g = Fraction(gcd_num, lcm_den)
    period = 2 * mp.pi * g.denominator / g.numerator
    if period > MAX_OSC_PERIOD:
        raise ToleranceUnreachableError(
            "common oscillation period %s is too long for accelerated "
            "integration; use scales with a coarser rational lattice" % mp.nstr(period, 5)
        )
    return period


def example5_integral(a, b, tol: float = 1e-6, prec_bits: int | None = None):
    """integral over R of prod_k f(a_k t) * sin(b t)/t dt with f the
    band-limited kernel above; equals pi exactly when sum a_k < b.

    Scales are taken as exact rationals (decimal strings are exact) so
    the oscillation has a true common period for the accelerated
    infinite integration."""
    a_r = [rat(x) for x in a]
    b_r = rat(b)
    if any(x <= 0 for x in a_r) or b_r <= 0:
        raise ValueError("scales and b must be positive")
    need = int(-mp.log(mpf(tol), 2)) + 30
    prec = prec_bits or max(80, need)
    with mp.workprec(prec):
        period = _common_period(a_r + [b_r])
        a_mp = [mpf(x.numerator) / mpf(x.denominator) for x in a_r]
        b_mp = mpf(b_r.numerator) / mpf(b_r.denominator)

        def g(t):
            v = mpf(b_mp) if t == 0 else mp.sin(b_mp * t) / t
            for x in a_mp:
                v *= bandlimited_kernel(x * t)
            return v

        return 2 * mp.quadosc(g, [0, mp.inf], period=period)


def verify_ft_example5(omega_samples, tol: float = 1e-6, prec_bits: int | None = None) -> list:
    """Numerically transform the band-limited kernel and compare with
    its closed form at each frequency sample."""
    need = int(-mp.log(mpf(tol), 2)) + 30
    prec = prec_bits or max(80, need)
    out = []
    with mp.workprec(prec):
        for omega in omega_samples:
            w_r = rat(omega)
            w = abs(mpf(w_r.numerator) / mpf(w_r.denominator))
            period = _common_period([rat(1), w_r] if w_r != 0 else [rat(1)])

            def h(t, _w=w):
                return 2 * mp.cos(_w * t) * bandlimited_kernel(t)

            numeric = mp.quadosc(h, [0, mp.inf], period=period)
            closed = mp.pi / (1 - mp.exp(-1)) * mp.exp(-w) if w < 1 else mpf(0)
            out.append(
                {
                    "omega": str(w_r),
                    "numeric": mp.nstr(numeric, 17),
                    "closed_form": mp.nstr(closed, 17),
                    "difference": mp.nstr(numeric - closed, 5),
                    "within_tol": bool(abs(numeric - closed) <= mpf(tol)),
                }
            )
    return out
