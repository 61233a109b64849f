"""Independent floating-point verification in extended precision.

Everything here deliberately avoids the exact engine's machinery: the
head of every sum is summed term by term and the head of every
integral is integrated; only tails are special functions or
expansions, never a closed form for a whole sum.  mpmath supplies the
arbitrary precision arithmetic; the working precision defaults to
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

Sums of sinc products over the integers work the same way: m below N
is summed directly, and past N the summand is exactly a trigonometric
sum over m^p whose frequencies, reduced modulo 2 pi, are merged and
conjugate-paired as for integrals.  Each term sum_{m>=N} z^m m^(-p)
takes a few steps of summation by parts (DLMF 2.10(ii)); as m^(-p) is
completely monotone, the remainder is at most the last term kept, so
the tail bound is rigorous.  A frequency at z = 1 up to rounding takes
the Hurwitz zeta(p, N) plus a bound for its drift.  N scales as
1 / min |1 - z| and is a few hundred on the paper's examples.

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

MAX_HEAD_TERMS = 100_000
MAX_TRIG_FACTORS = 16


class ToleranceUnreachableError(Exception):
    """The rigorous tail bound of a sum cannot reach the requested
    tolerance within the head-length cap, or the quadrature's error
    estimate exceeds the requested tolerance."""


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


def _check_tol(name, tol) -> None:
    if not 0 < tol < inf:
        raise ValueError("%s must be a positive finite number, got %r" % (name, tol))


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


def _merge_frequencies(combos, period=None):
    """Merged (coeff, frequency) pairs of a real trigonometric sum.

    The sum over combos of c e^(i w x) is real, so it equals the real
    part of the sum over the returned pairs, in which equal frequencies
    are merged and each conjugate pair shares one frequency:
    Re(c e^(i w x)) = Re(conj(c) e^(-i w x)).  Frequencies are folded
    onto w >= 0; with a period (2 pi, for integer x) they are first
    reduced modulo it and folded into [0, period / 2].  Zero
    coefficients are dropped.
    """
    merged = {}
    for c, w in combos:
        if period is not None:
            w -= period * mp.floor(w / period)
            if 2 * w > period:
                c, w = mp.conj(c), period - w
        elif w < 0:
            c, w = mp.conj(c), -w
        merged[w] = merged.get(w, 0) + c
    return [(c, w) for w, c in merged.items() if c != 0]


def _tail_exact(scales_mp, weight, T):
    """integral_T^inf prod_k sinc(a_k t) * W(t) dt, exact to precision.

    Frequencies are merged (_merge_frequencies), and
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
        total = mpf(0)
        for c, w in _merge_frequencies(_trig_combos(scales_mp, weight)):
            if w == 0:
                total += c.real / (p - 1)
            else:
                total += (c * mp.expint(p, -1j * w * T)).real
        return size * total


def numeric_integral(
    scales, rel_tol: float = 1e-12, prec_bits: int | None = None, abs_tol: float | None = None
):
    """integral over R of W(t) prod_k sinc(a_k t) dt within rel_tol of
    the result, or within abs_tol when that is given.

    The head [0, T] is one half period of the fastest frequency,
    T = pi / omega_max, integrated directly; the tail past T is exact
    at any T.  ToleranceUnreachableError is raised when the
    quadrature's error estimate exceeds the tolerance: rel_tol of the
    result, or abs_tol, which also serves integrals whose value is 0.

    A single undamped sinc factor is not absolutely integrable and is
    rejected (the exact engine handles that case in closed form).  The
    sin(b t)/t kernel, when present, counts as one more sinc factor
    since sin(b t)/t = b sinc(b t).
    """
    _check_tol("rel_tol", rel_tol)
    if abs_tol is not None:
        _check_tol("abs_tol", abs_tol)
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
    need = int(-mp.log(mpf(min(rel_tol, abs_tol or rel_tol)), 2)) + 40
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
        scale = 2 * mpf(rs.b if rs.b is not None else 1)
        if abs_tol is None and err > rel_tol * abs(half):
            raise ToleranceUnreachableError(
                "quadrature error estimate %s exceeds rel_tol %s of the half-line integral %s"
                % (mp.nstr(err, 5), rel_tol, mp.nstr(half, 5))
            )
        if abs_tol is not None and scale * err > abs_tol:
            raise ToleranceUnreachableError(
                "quadrature error estimate %s of the integral exceeds abs_tol %s" % (mp.nstr(scale * err, 5), abs_tol)
            )
        return scale * half


# ---------------------------------------------------------------------------
# sums of sinc products
# ---------------------------------------------------------------------------


def _drift_bound(p, N, delta):
    """Bound on sum_{m>=N} |e^(i delta m) - 1| m^(-p), from
    |e^(i delta m) - 1| <= min(2, delta m): delta zeta(p - 1, N) for
    p >= 3; for p = 2, delta (1/N + ln(K/N)) below K = 2/delta plus
    2 sum_{m>K} m^(-2) <= 2 delta above it."""
    if delta == 0:
        return mpf(0)
    if p >= 3:
        return delta * (mpf(N) ** (1 - p) + mpf(N) ** (2 - p) / (p - 2))
    return delta * (3 + mp.log(1 + 2 / (delta * N)))


def _head_length(p, dist):
    """First tail index N for a smallest distance |1 - z| of dist.  The
    summation-by-parts terms shrink by about (p + k) / (N dist) at step
    k, so N dist = 4 (p + 8) shrinks them fourfold over the first eight
    steps, and they keep shrinking for 3p + 24 more."""
    return int(mp.ceil(4 * (p + 8) / dist))


def _by_parts(freqs, p, N, target):
    """sum_{m>=N} z^m m^(-p) for each z = e^(i w) of freqs, by
    summation by parts (DLMF 2.10(ii)) taken K times:

        sum_{k<K} z^(N+k) Delta^k g(N) / (1 - z)^(k+1) + R_K,  g(m) = m^(-p).

    g is completely monotone, so sum_{m>=N} |Delta^K g(m)| telescopes
    to |Delta^(K-1) g(N)| and |R_K| <= |Delta^(K-1) g(N)| / |1 - z|^K,
    the size of the last term kept.  The terms shrink by about
    (p + k) / (N |1 - z|), so they are added while they shrink, up to
    K ~ N min|1 - z| of them, which costs nothing past the table of
    differences.  Returns sum_j Re(c_j * tail_j) and
    sum_j |c_j| * size_j, or None when the last term kept for some
    frequency is above target (a longer head is then needed).

    The forward differences cancel by up to (2N)^K, so they are
    formed with K log2(2 (N + K)) guard bits."""
    K = int(N * min(abs(1 - mp.expj(w)) for _, w in freqs)) + 1
    with mp.extraprec(K * (int(mp.log(N + K, 2)) + 2)):
        row = [mpf(N + j) ** -p for j in range(K)]
        diffs = []
        for _ in range(K):
            diffs.append(row[0])
            row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
        value = bound = mpf(0)
        for c, w in freqs:
            z = mp.expj(w)
            step = z / (1 - z)
            t = mp.expj(w * N) / (1 - z)
            # |term_k| = |Delta^k g(N)| / |1 - z|^(k+1), as |z| = 1
            inv_dist = 1 / abs(1 - z)
            s, last, scale = mpc(0), mp.inf, inv_dist
            for d in diffs:
                size = abs(d) * scale
                if size >= last:
                    break
                s += t * d
                last = size
                t *= step
                scale *= inv_dist
            if last > target:
                return None
            value += (c * s).real
            bound += abs(c) * last
        return +value, +bound


def numeric_sum(
    scales,
    alternating: bool = False,
    abs_tol: float = 1e-10,
    one_sided: bool = False,
    prec_bits: int | None = None,
) -> SumResult:
    """sum over integers m of prod_k sinc(a_k m) (times (-1)^m when
    alternating), within a rigorous bound tail_bound <= abs_tol.

    one_sided restricts to m >= 0; the summand is even in m, so
    one_sided = (two_sided + 1) / 2.

    m = 1 .. N - 1 are summed directly (truncation_m = N - 1).  For
    m >= N the summand is exactly (1 / prod a_k) m^(-p) times the real
    part of sum_j c_j z_j^m, z_j = e^(i w_j), with the frequencies of
    _trig_combos shifted by pi when alternating, reduced modulo 2 pi
    and merged (_merge_frequencies).  Frequencies next to z = 1 (exact
    resonances, up to the rounding of the scales) take the Hurwitz
    zeta(p, N), and their drift |e^(i w m) - 1| <= min(2, w m) goes
    into the bound, as long as it fits in half of the tolerance.  The
    others take the summation-by-parts expansion of _by_parts, and N
    is set by the smallest |1 - z| among them.  A near resonance that
    would need a head of more than MAX_HEAD_TERMS raises
    ToleranceUnreachableError before any term is summed; a head near
    the cap takes a few seconds.
    """
    _check_tol("abs_tol", abs_tol)
    rs = _as_scales(scales)
    if rs.b is not None or rs.weight is not None:
        raise ValueError("numeric_sum takes plain scales (no kernel, no weight)")
    p = len(rs.scales)
    if p < 3 and not (alternating and p >= 2):
        raise ValueError("need >= 3 factors (or alternating with >= 2) for a convergent sum")
    if p > MAX_TRIG_FACTORS:
        raise ValueError("too many factors for the trigonometric tail (max %d)" % MAX_TRIG_FACTORS)
    prec = prec_bits or DEFAULT_PREC_BITS
    with mp.workprec(max(prec, int(-mp.log(mpf(abs_tol), 2)) + 40)):
        a_mp = [mpf(a) for a in rs.scales]
        inv = mpf(1)
        for a in a_mp:
            inv /= a
        # the bound covers the sum over m >= 1, which the two-sided sum doubles
        tol = mpf(abs_tol) if one_sided else mpf(abs_tol) / 2
        shift = mp.pi if alternating else 0
        combos = [(c, w + shift) for c, w in _trig_combos(a_mp, None)]
        freqs = sorted(_merge_frequencies(combos, 2 * mp.pi), key=lambda cw: cw[1])
        dists = [abs(1 - mp.expj(w)) for _, w in freqs]

        # the longest prefix of near-1 frequencies whose drift bound,
        # at the N the rest would need, fits in half the tolerance
        near = 0
        while near < len(freqs):
            N = _head_length(p, dists[near + 1] if near + 1 < len(freqs) else 2)
            drift = inv * mp.fsum(abs(c) * _drift_bound(p, N, w) for c, w in freqs[: near + 1])
            if drift > tol / 2:
                break
            near += 1
        N = _head_length(p, dists[near] if near < len(freqs) else 2)
        rest = freqs[near:]
        target = tol / (2 * inv * mp.fsum(abs(c) for c, _ in rest)) if rest else 0
        tail = None
        while tail is None:
            if N - 1 > MAX_HEAD_TERMS:
                raise ToleranceUnreachableError(
                    "a tail within abs_tol %s needs a direct head of %d terms, past the %d-term cap "
                    "(a frequency of the summand is %s from resonance)"
                    % (abs_tol, N - 1, MAX_HEAD_TERMS, mp.nstr(dists[near], 5))
                )
            tail = _by_parts(rest, p, N, target) if rest else (mpf(0), mpf(0))
            if tail is None:
                N *= 2
        tail_value, tail_bound = tail
        for c, w in freqs[:near]:
            tail_value += c.real * mp.zeta(p, N)
            tail_bound += abs(c) * _drift_bound(p, N, w)

        def term(m):
            v = mpf(1)
            for a in a_mp:
                v *= _sinc(a * m)
            if alternating and m & 1:
                v = -v
            return v

        body = mp.fsum(term(m) for m in range(1, N)) + inv * tail_value
        bound = inv * tail_bound
        if one_sided:
            value = 1 + body
        else:
            value, bound = 1 + 2 * body, 2 * bound
        return SumResult(value, N - 1, bound, float(abs_tol), one_sided)


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
    # tol is absolute, and an integral can be exactly 0 (a transform
    # supported inside the first sample point), so the quadrature is
    # held to an absolute tolerance too
    integral = numeric_integral(
        RealScales(rs.scales, weight=weight), rel_tol=float(tol) / 8, prec_bits=prec_bits, abs_tol=float(tol) / 8
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
    _check_tol("tol", tol)
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
    _check_tol("tol", tol)
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
