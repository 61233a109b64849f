"""Independent floating-point verification in extended precision.

Everything here deliberately avoids the exact engine's machinery: the
head of every sum is summed term by term and the head of every
integral is integrated; only tails are special functions or
expansions, never a closed form for a whole sum.  mpmath supplies the
arbitrary precision arithmetic.  Integrals and sums work at
max(128, -log2(tol) + 40) bits, so that ten matching decimal digits
can be certified comfortably, sums with ceil(log2(1 / prod_k min(a_k, 1)))
guard bits on top; the band-limited kernel works at
max(80, -log2(tol) + 30) bits.  Real scales given as text ('5pi/4'), the
kernel's too, are read by parse_scale, at a precision past every one of
these that a float tolerance reaches, so each computation rounds them once.

Every integral is a head [0, T], integrated directly, plus a
closed-form tail.  Every factor is band-limited with an even
nonnegative transform, so its Taylor series is dominated, coefficient
by coefficient, by f(0) cosh(omega t).  The head is the product's
Taylor series in t / T, multiplied out in fixed point with no
transcendental call (_series_head), over n half-periods,
T = n pi / omega_max: one for sinc products, weighted or not, up to 100
for the band-limited kernel, with about n pi / ln 2 guard bits.
Past T each factor is a finite sum of terms c e^(i w t) t^(-p), and
each term integral_T^inf e^(i w t) t^(-p) dt equals T^(1-p) E_p(-i w T),
with E_p the generalized exponential integral (DLMF 8.19), for any
T > 0.  The product is multiplied out on Python integers (_expand):
every frequency is an integer over one power of two, so sums of
frequencies are exact, and each factor's coefficients, weighted by
powers of T as their terms weigh in the tail, are rounded once to
Gaussian integers, so products are exact too.  Equal (w, p) are
merged, each conjugate pair +-w shares one frequency, and the sum runs
in fixed point on Python integers (_tail_sum).  For x = w T <= 4, as
every frequency of a sinc product has (x <= pi), one run of x^k / k! gives e^(i x) and E_1(-i x) from its
power series (DLMF 6.6.2), with one logarithm per frequency, and E_p
follows by the recurrence in p (DLMF 8.19.12); the kernel's faster
frequencies seed E_1 from mp.expint.  For sinc products the terms are
exact.  The band-limited kernel
f(x) = (x sin x - cos x + e) / ((1 + x^2)(e - 1)) is expanded past
x = a T >= 4 in 1/(1 + x^2) = sum_j (-1)^j x^(-2j-2), and the series is
cut where a rigorous bound on the rest fits in the tolerance.  The tail
is accurate to working precision, with guard bits for the cancellation
a short head leaves, instead of needing the astronomically large
truncation points an absolute-value bound would demand.  The error
bound held to rel_tol or abs_tol is the head's plus the rounding of
head + tail, which is all that is left of an integral that is
exactly 0.

Sums of sinc products over the integers work the same way: m below N
is summed directly, term by term in fixed point on Python integers
(each e^(i a_k m) is turned by e^(i a_k) once per m, with no sine
call per term), and past N the summand is exactly a trigonometric
sum over m^p, expanded as for integrals, whose frequencies, on the
grid of the scales and of pi, are reduced modulo 2 pi in integers and
merged and conjugate-paired; only the few merged terms become mpf.
Each term sum_{m>=N} z^m m^(-p) takes a few steps of summation by parts
(DLMF 2.10(ii)), in fixed point over forward differences of m^(-p)
formed exactly in integers; as m^(-p) is completely monotone, the
remainder is at most the last term kept, so the tail bound is
rigorous.  A frequency at z = 1 up to
rounding takes the Hurwitz zeta(p, N) plus a bound for its drift.  N
scales as 1 / min |1 - z| and is a few hundred on the paper's
examples.  The expansion that both tails share and the loops of a sum
live in oracle_sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, cosh, inf, lcm
from operator import mul
from types import SimpleNamespace

import mpmath as mp
from mpmath import mpc, mpf

from .oracle_sums import (ToleranceUnreachableError, _by_parts, _drift_bound, _expand, _fixed, _head,
                          _merge_frequencies, _near_prefix, _nearest)
from .rational import rat

DEFAULT_PREC_BITS = 128

MAX_ORACLE_WORK = 120_000  # work units of one integral or sum, charged where the work is counted
KERNEL_TAIL_START = 4


@dataclass(frozen=True)
class RealScales:
    """Positive real scales a_k of prod_k sinc(a_k t), any real mpf() reads
    (parse_scale's values, numbers, '1/7'), and an optional cosine weight
    W_m(t) = 2 sum_{k<=m} cos((2k+1) pi t), read by its m alone (a CosineWeightSpec)."""

    scales: tuple
    weight: object = None

    def __post_init__(self):
        # keep the caller's values (mpf scales stay mpf), and test them as
        # they are: mpmathify passes an mpf through and reads any other value
        # at SCALE_PREC_BITS (a float() would read 1e-400 as 0)
        scales = tuple(self.scales)
        with mp.workprec(SCALE_PREC_BITS):
            if not scales or not all(0 < a < inf for a in map(mp.mpmathify, scales)):
                raise ValueError("scales must be a nonempty list of positive finite reals")
        object.__setattr__(self, "scales", scales)


def _working_prec(tol) -> int:
    """Working precision of the integrals and sums at tol: 40 bits past
    it, at least DEFAULT_PREC_BITS."""
    return max(DEFAULT_PREC_BITS, int(-mp.log(mpf(tol), 2)) + 40)


# past _working_prec(5e-324) = 1,114 bits, the most a float tolerance asks for
SCALE_PREC_BITS = _working_prec(5e-324) + 64


def parse_scale(token: str):
    """A real scale from its text: '1', '2.5', '1/3', 'pi', '5pi/4' or
    'pi/3', a rational optionally times pi and over a rational.  It is
    built at SCALE_PREC_BITS, 64 bits past any working precision a float
    tolerance reaches, so the oracle's rounding to its working precision
    is the one that shows.  Text outside the grammar and a zero divisor
    raise ValueError."""
    s = token.strip().lower()
    num, slash, den = s.partition("/")
    try:
        with mp.workprec(SCALE_PREC_BITS):
            pi = num.endswith("pi")
            head = rat(num[:-2] or 1) if pi else rat(num)
            value = (mp.pi if pi else 1) * mp.fdiv(head.numerator, head.denominator)
            if slash:
                d = rat(den)
                value /= mp.fdiv(d.numerator, d.denominator)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("cannot read scale %r: %s" % (token, str(exc) or "division by zero")) from None
    return value


def _sum_below(scales, multiple, tol) -> bool:
    """Whether sum(scales) < multiple * pi, decided on the scales as the
    oracle sees them at tol, rounded to _working_prec(tol) bits: the gap
    must pass the rounding of both sides, so scales that meet the bound
    exactly (three times 2 pi / 3 against 2 pi) do not count as below."""
    with mp.workprec(_working_prec(tol)):
        total, bound = mp.fsum(mpf(a) for a in scales), multiple * mp.pi
        return bound - total > mp.eps * (total + bound)


def _check_tol(name, tol) -> None:
    if not 0 < tol < inf:
        raise ValueError("%s must be a positive finite number, got %r" % (name, tol))


def _as_scales(scales) -> RealScales:
    return scales if isinstance(scales, RealScales) else RealScales(tuple(scales))


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


# ---------------------------------------------------------------------------
# integrals: a series head plus an exact E_p tail
# ---------------------------------------------------------------------------


def _sinc_terms(a):
    """sinc(a t) = (e^(i a t) - e^(-i a t)) / (2 i a t) as terms (c, w, p)
    of c e^(i w t) t^(-p)."""
    c = mpc(0, -1) / (2 * a)
    return [(c, a, 1), (-c, -a, 1)]


def _kernel_terms(a, J):
    """f(a t) with 1/(1 + x^2) cut to sum_{j<J} (-1)^j x^(-2j-2), x = a t:
    five terms for each j, from s_j (a t sin(a t) - cos(a t) + e) t^(-2j-2)
    with s_j = (-1)^j / ((e - 1) a^(2j+2))."""
    out = []
    for j in range(J):
        s = (-1) ** j / ((mp.e - 1) * a ** (2 * j + 2))
        c, h, q = mpc(0, -s * a / 2), mpc(-s / 2), 2 * j + 1
        out += [(c, a, q), (-c, -a, q), (h, a, q + 1), (h, -a, q + 1), (s * mp.e, 0, q + 1)]
    return out


def _tail(factors, T, budget):
    """integral_T^inf of the product of factors, exact to precision: the
    integer _tail_sum forms, divided once.  Terms of size up to
    T prod sum |c| T^(-p) cancel down to the tail, and
    p E_(p+1)(z) = e^(-z) - z E_p(z) scales an error by |z| / p per step,
    by x^K / K! at most for x >= |z| and K = min(p, x); so the guard bits
    are log2 of that size and of x^K / K!, plus the top p, and _tail_sum
    works 16 bits past them."""
    size = T * mp.fprod(mp.fsum(abs(c) * T**-p for c, _, p in factor) for factor in factors)
    p_max = sum(max(p for _, _, p in factor) for factor in factors)
    x = T * mp.fsum(max(abs(w) for _, w, _ in factor) for factor in factors)
    K = min(p_max, int(x))
    with mp.extraprec(max(0, int(mp.log(size, 2) + K * mp.log(x + 1, 2) - mp.loggamma(K + 1) / mp.ln2)) + p_max):
        S, P = _tail_sum(factors, T, budget)
        return mp.ldexp(S, -2 * P)


def _tail_sum(factors, T, budget):
    """(S, P): integral_T^inf of the product of factors as S 2^(-2P),
    P = prec + 16, on Python integers.

    A merged term (W, p) of the product (_expand, _merge_frequencies),
    of frequency w = W 2^-ew and coefficient c, gives Re(C E_p(-i x)),
    C = c T^(1-p) in units of 2^-P and x = W 2^-ew T an exact
    integer quotient, and S sums them exactly.  For x <= 4 one run of
    t_k = x^k / k!, floored from t_0 = 2^P until it reaches 0, gives
    e^(ix) and E_1(-ix) = -gamma - ln x + i pi / 2 - sum_(k>=1) (ix)^k / (k k!)
    (DLMF 6.6.2) with one mp.log; past 4, where the series would cancel
    from e^x, mp.expint and mp.expj give them.  Then
    p E_(p+1) = e^(ix) + i x E_p (DLMF 8.19.12), which at x = 0 gives
    E_p = 1 / (p - 1) from p = 2.

    Rounding, in ulp (2^-P), a complex error counted as |re| + |im|.
    Each t_k takes one floor: its error e_k <= e_(k-1) x / k + 1 <= 6 for
    x <= 4, the run stops by K, the first k with x^k / k! < 2^-P, and the
    terms past it weigh at most 2 e_K.  So e^(ix) and E_1 are off by at
    most h = 6 K + 9, with one ulp for gamma + ln x and pi / 2 (h = 9 from
    mpmath), and E_p by e_1 = h, e_(p+1) = (h + x e_p) / p + 2, as a
    step floors each part once (e_p = 1 at x = 0).  _expand takes each
    term weighted by T^(q - p), c' = c T^(q - p) at P + 20 bits for q the
    least p of its factor, so a factor is rounded at P bits below the
    largest term it brings to the tail, not below its largest c (a kernel
    factor's c grow as a^(-2j) while its terms shrink as (a T)^(-2j)); a
    factor whose terms share one p keeps its c as they are.  It rounds
    each factor's c' once, within u = 2^(e - P) (1 + 2^-16) in
    |re c'| + |im c'| (|c'|_1) for 2^e above the factor's largest part,
    the weighting's roundings included, and multiplies and merges
    exactly.  Let R = T^(1 - sum of the q), at P + 20 bits, and over the
    terms merged into one (w, p) let s0 and s sum R times the products
    of their factors' |c'|_1 and of |c'|_1 + u: C, the merged sum times
    R, is then off by at most d = (s - s0) 2^P from _expand, s 2^-19
    from R and one from its nearest integer, and |C| <= s + 2^-P.
    |E_p(-i x)| <= 1 / (p - 1) for p >= 2 (|ln x| + 3 for p = 1), so
    S 2^-2P is off by at most the sum over merged terms of
    (d + s 2^-19 + 1) |E_p| + (s + 2^-P) e_p ulp.
    """
    with mp.extraprec(16):
        P, S, by_w = mp.mp.prec, 0, {}
        with mp.workprec(P + 20):
            weighted, p0 = [], 1
            for factor in factors:
                q = min(q for _, _, q in factor)
                weighted.append([(c * T ** (q - p) if p > q else c, w, p) for c, w, p in factor])
                p0 -= q
            terms, ew, sc, _ = _expand(weighted, P, budget)
            R = T**p0
            for (W, p), c in _merge_frequencies(terms).items():
                by_w.setdefault(W, {})[p] = [_nearest(v * R.man, sc - R.exp - P) for v in c]
            for W, cs in by_w.items():
                num, shift = W * T.man << max(T.exp - ew, 0), max(ew - T.exp, 0)
                x = mp.ldexp(num, -shift)
                if num <= 4 << shift:
                    # t_k by fours, as i^k turns: e^(ix) = er + i ei, and
                    # the sum of (ix)^k / (k k!) is br + i bi
                    t, k, er, ei, br, bi = 1 << P, 0, 1 << P, 0, 0, 0
                    while t:
                        t = (t * num >> shift) // (k + 1)
                        ei, bi = ei + t, bi + t // (k + 1)
                        t = (t * num >> shift) // (k + 2)
                        er, br = er - t, br - t // (k + 2)
                        t = (t * num >> shift) // (k + 3)
                        ei, bi = ei - t, bi - t // (k + 3)
                        t = (t * num >> shift) // (k + 4)
                        er, br = er + t, br + t // (k + 4)
                        k += 4
                    g, h = _fixed(mpc(mp.euler + mp.log(x), mp.pi / 2), P) if num else (0, 0)
                    Er, Ei = -g - br, h - bi
                else:
                    (er, ei), (Er, Ei) = _fixed(mp.expj(x), P), _fixed(mp.expint(1, mpc(0, -x)), P)
                for p in range(1, max(cs) + 1):
                    cr, ci = cs.get(p, (0, 0))
                    S += cr * Er - ci * Ei
                    Er, Ei = ((er << shift) - num * Ei) // p >> shift, ((ei << shift) + num * Er) // p >> shift
        return S, P


def _series_length(C, theta=mp.pi):
    """(J, bound): the fewest terms J >= 2 of _series_head's series whose
    truncation bound 2 C theta^(2J) / (2J)!, in units of T, is at most
    2^-(prec+20), and that bound, rounded up, for an integer C (a product
    of sums of c = 1 or 2).  The test runs on integers,
    2 C theta'^(2J) 2^(prec+20) <= (2J)! with theta' = theta + 2^-64 or a
    little more: for theta = pi and prec >= 72, that is the J and no less
    than the bound that prec-bit roundings of pi^(2J) / (2J)! give."""
    prec, theta, J, factorial = mp.mp.prec + 20, int(mp.ldexp(theta, 64)) + 2, 2, 24
    num = 2 * int(C) * theta**4 << prec
    while num > factorial << 128 * J:
        num, factorial, J = num * theta**2, factorial * (2 * J + 1) * (2 * J + 2), J + 1
    return J, mp.ldexp(mp.fdiv(num, factorial, rounding="u"), -prec - 128 * J)


def _kernel_moments(J, P):
    """[mu_0, mu_2, ..., mu_(2J-2)] in units of 2^-P: mu_n = m_n / (1 - 1/e),
    m_n = integral_0^1 v^n e^(-v) dv.  The kernel is the integral of its
    transform, f(x) = integral_0^1 e^(-v) cos(v x) dv / (1 - 1/e), so its
    Taylor coefficients are (-1)^j mu_(2j) / (2j)!, at most 1 / (2j)! as
    0 < mu_n <= mu_0 = 1.  By parts, mu_(n-1) = (mu_n + 1 / (e - 1)) / n,
    run backward from mu_N = 0 with (N + 1)! / (2J)! >= 2^(P+2): the start,
    off by less than 2^(P+1) / (N + 1) ulp, is divided by each n, to below
    1/2 ulp by n = 2J.  1 / (e - 1) is rounded down within 3 ulp and each
    step floors, so e_(n-1) <= (e_n + 3) / n + 1: each mu_n is at most its
    exact value and at most 10 ulp below it."""
    with mp.workprec(P + 10):
        E = int(mp.ldexp(1 / (mp.e - 1), P)) - 1
    mu = [0]
    for n in range(2 * J + (P + 2) // ((2 * J + 1).bit_length() - 1), 0, -1):
        mu.append((mu[-1] + E) // n)
    return mu[::-1][: 2 * J : 2]


def _series_head(factors, T, theta):
    """(integral_0^T prod f dt, a bound on its error) for factors
    f(t) = sum c g(w t) over terms (c, w, kind), g = cos (kind 0), sinc
    (kind 1) or the band-limited kernel (kind 2), with c = 1 or 2 and
    sum_f max w T <= theta (up to rounding), theta >= pi, from the
    product's power series in s = t / T, with no transcendental call.

    Each term's series c g(w T s) = sum_j c_j s^(2j) starts at c_0 = c and
    goes on by c_j = -c_(j-1) x^2 / q_j, x = w T, q_j = (2j - 1 + odd)(2j + odd)
    (odd = 1 for sinc), times mu_(2j) of _kernel_moments for a kernel; the
    head is T sum_(j<J) c_j / (2j + 1) over the factors' product, cut at J.

    Truncation.  c g(w T s) is dominated, coefficient by coefficient, by
    c cosh(w T s), so f by C_f cosh(omega_f T s), with C_f the sum of its
    c and omega_f its largest w; as cosh u cosh v <= cosh(u + v)
    coefficientwise, the product is dominated by C cosh(theta s), with
    C = prod C_f = prod f(0) and sum omega_f T <= theta.  So
    |c_j| <= C theta^(2j) / (2j)!.  The cut puts J past theta, as
    theta^(2J) / (2J)! >= (e / 2)^(2J) / (e sqrt(2J)) > 1/2 while J <= theta,
    so the terms past J shrink at least fourfold and those dropped weigh at
    most 2 C T theta^(2J) / (2J)!; _series_length picks J (28 at 128 bits
    and 40 at 239 bits, for C = 1 and theta = pi).

    Rounding, in ulp, units of 2^-P.  Coefficients are integers times
    2^-P.  X = x^2 2^P is rounded once, within 1/2 + x^2 / 300 ulp, and
    c_j takes one floor division of -c_(j-1) X by q_j 2^P.  Carried on by
    prod_(i<k<=j) X / (q_k 2^P) <= x^(2(j-i)) / (2(j-i))!, the J floors
    weigh at most J cosh x in the l1 norm over the coefficients, and X's
    rounding, j c x^(2j-2) / (2j)! in c_j, at most c (1/2 + x^2 / 300)
    sinh(x) / (2x) <= c (1/4 + J / 600) cosh x, as x <= theta < J.  A
    kernel's c_j mu_(2j) take a floor more, and mu's error adds 10 |c_j|.
    So a term is off by at most (2.01 J + 11) c cosh x, below 7 J times the
    norm of its dominant's J coefficients (within 2^-(prec+20) of c cosh x,
    and J > 3 as theta >= pi), and so is a factor.  A product's
    coefficients take one floor of the exact integer convolution, so the
    errors of A B add as |A| e_B + |B| e_A + e_A e_B 2^-P + J; relative to
    the dominants' norms N, whose product is at most C cosh theta, the
    relative errors add, plus J + 1 per product.  The sum over c_j /
    (2j + 1), exact over lcm(1, 3, ..., 2J - 1), is then off by at most
    R = ceil(cosh theta) C n (8 J + 1) ulp for n factors (the counts' slack
    covers theta and cosh theta in floats, theta < 710), and P = prec + 20 +
    bitlength(R) puts that below 2^-(prec+20): cosh theta brings about
    theta / ln 2 guard bits, for the terms' cancellation near e^theta.
    The bound is T times the truncation's and the rounding's; the head is
    formed at prec + 20 bits and rounded once."""
    C = mp.fprod(sum(c for c, _, _ in f) for f in factors)
    J, truncation = _series_length(C, theta)
    R = ceil(cosh(theta)) * C * len(factors) * (8 * J + 1)
    P = mp.mp.prec + 20 + int(mp.log(R, 2)) + 1
    product = None
    for f in factors:
        series = [0] * J
        for c, w, kind in f:
            with mp.workprec(P + 10):
                X = int(mp.nint(mp.ldexp((w * T) ** 2, P)))
            cj, odd, mu = c << P, kind == 1, _kernel_moments(J, P) if kind == 2 else None
            for j in range(J):
                series[j] += cj if mu is None else cj * mu[j] >> P
                cj = -cj * X // ((2 * j + 1 + odd) * (2 * j + 2 + odd) << P)
        product = series if product is None else \
            [sum(map(mul, product[: j + 1], series[j::-1])) >> P for j in range(J)]
    L = lcm(*range(1, 2 * J, 2))
    with mp.extraprec(20):
        head = T * mp.fdiv(sum(c * (L // (2 * j + 1)) for j, c in enumerate(product)), L << P)
    return +head, T * (truncation + mp.ldexp(R, -P))


def _head_tail(series, terms, T, panels):
    """(integral_0^inf prod f dt, an error bound) for factors given as
    series, the (c, w, kind) terms of _series_head, and as the (c, w, p)
    terms they equal past T = panels half-periods pi / omega_max: the head
    [0, T] is _series_head's over the span panels pi, and the tail is
    _tail's.  The bound is the head's plus one rounding of |head| + |tail|,
    so a head and tail that cancel to noise do not pass as accurate.  Work
    past MAX_ORACLE_WORK (a tail term formed is charged 6, a half-period of
    the head 1,200) raises ToleranceUnreachableError before any is done."""
    budget = MAX_ORACLE_WORK - 1200 * panels
    if budget < 0:
        raise ToleranceUnreachableError("the head [0, %s] needs %d quadrature panels, past the work cap"
                                        % (mp.nstr(T, 5), panels))
    tail = _tail(terms, T, budget // 6)
    value, bound = _series_head(series, T, panels * mp.pi)
    return value + tail, bound + mp.eps * (abs(value) + abs(tail))


def numeric_integral(scales, rel_tol: float = 1e-12, abs_tol: float | None = None):
    """integral over R of W(t) prod_k sinc(a_k t) dt within rel_tol of
    the result, or within abs_tol when that is given.

    The head [0, T] is one half period of the fastest frequency,
    T = pi / omega_max, integrated from the product's power series in
    fixed point (_series_head), and the tail past T is exact at any T
    (_tail).  ToleranceUnreachableError is raised when the error bound
    exceeds the tolerance: rel_tol of the result, or abs_tol, which also
    serves integrals whose value is 0.

    A single undamped sinc factor is not absolutely integrable and is
    rejected (the exact engine handles that case in closed form).
    """
    _check_tol("rel_tol", rel_tol)
    if abs_tol is not None:
        _check_tol("abs_tol", abs_tol)
    rs = _as_scales(scales)
    if len(rs.scales) < 2:
        raise ValueError(
            "a single sinc factor is not absolutely integrable; "
            "use the exact engine for closed forms"
        )
    with mp.workprec(_working_prec(min(rel_tol, abs_tol or rel_tol))):
        a_mp = [mpf(a) for a in rs.scales]
        series, terms = [[(1, a, 1)] for a in a_mp], [_sinc_terms(a) for a in a_mp]
        omega_max = mp.fsum(a_mp)
        if rs.weight is not None:
            ks = range(1, 2 * rs.weight.m + 2, 2)
            series.append([(2, k * mp.pi, 0) for k in ks])
            terms.append([(mpc(1), s * k * mp.pi, 0) for k in ks for s in (1, -1)])
            omega_max += ks[-1] * mp.pi
        half, err = _head_tail(series, terms, mp.pi / omega_max, 1)
        allowed, name = (rel_tol * abs(half), "rel_tol") if abs_tol is None else (mpf(abs_tol) / 2, "abs_tol")
        if err > allowed:
            raise ToleranceUnreachableError("quadrature error bound %s exceeds %s (%s), half-line integral %s"
                                            % (mp.nstr(err, 5), mp.nstr(allowed, 5), name, mp.nstr(half, 5)))
        return 2 * half


# ---------------------------------------------------------------------------
# sums of sinc products
# ---------------------------------------------------------------------------


def numeric_sum(
    scales,
    alternating: bool = False,
    abs_tol: float = 1e-10,
    one_sided: bool = False,
) -> SumResult:
    """sum over integers m of prod_k sinc(a_k m) (times (-1)^m when
    alternating), within abs_tol.  tail_bound bounds the error of the
    tail rigorously, and a sum whose tail_bound would pass abs_tol raises
    ToleranceUnreachableError; it does not count the rounding of the head
    and of the value, which the working precision keeps about 40 bits
    below abs_tol.

    one_sided restricts to m >= 0; the summand is even in m, so
    one_sided = (two_sided + 1) / 2.

    m = 1 .. N - 1 are summed directly (truncation_m = N - 1).  For
    m >= N the summand is exactly m^(-p) times the real part of
    sum_j c_j z_j^m, z_j = e^(i w_j), with the frequencies of the sinc
    factors (_expand, integers on the grid of the scales and pi) folded
    onto w >= 0, shifted by pi when alternating, reduced modulo 2 pi and
    merged, all exactly (_merge_frequencies).  Frequencies next to
    z = 1 (exact resonances, up to the rounding of the scales) take the
    Hurwitz zeta(p, N), and their drift |e^(i w m) - 1| <= min(2, w m) goes
    into the bound, as long as it fits in half of the tolerance.  The
    others take the summation-by-parts expansion of _by_parts, and N
    is set by the smallest |1 - z| among them.  Work past
    MAX_ORACLE_WORK raises ToleranceUnreachableError before it is done:
    each term _expand forms is charged 2, and each head length N tried
    (N - 1) p, one per term per factor; a sum at the cap takes ~0.2 s.
    """
    _check_tol("abs_tol", abs_tol)
    rs = _as_scales(scales)
    if rs.weight is not None:
        raise ValueError("numeric_sum takes plain scales (no weight)")
    p = len(rs.scales)
    if p < 3 and not (alternating and p >= 2):
        raise ValueError("need >= 3 factors (or alternating with >= 2) for a convergent sum")
    with mp.workprec(_working_prec(abs_tol)):
        guard = int(mp.ceil(-mp.log(mp.fprod(min(mpf(a), 1) for a in rs.scales), 2)))
    # the head and every tail coefficient carry 1 / prod_k a_k, so 2 + a and 2 - a must
    # not collapse at a tiny a: the whole sum takes that many guard bits, as _tail's integrals do
    with mp.workprec(_working_prec(abs_tol) + guard):
        a_mp = [mpf(a) for a in rs.scales]
        # the bound covers the sum over m >= 1, which the two-sided sum doubles
        tol = mpf(abs_tol) if one_sided else mpf(abs_tol) / 2
        terms, ew, S, formed = _expand([_sinc_terms(a) for a in a_mp], mp.mp.prec, MAX_ORACLE_WORK // 2, +mp.pi)
        budget = MAX_ORACLE_WORK - 2 * formed
        pi = int(mp.ldexp(mp.pi, ew))
        freqs = [(mpc(mp.ldexp(cr, -S), mp.ldexp(ci, -S)), mp.ldexp(W, -ew))
                 for (W, _), (cr, ci) in sorted(_merge_frequencies(terms, 2 * pi, pi * alternating).items())]
        dists = [abs(1 - mp.expj(w)) for _, w in freqs]

        near, N = _near_prefix(freqs, dists, p, tol / 2)
        rest = freqs[near:]
        target = tol / (2 * mp.fsum(abs(c) for c, _ in rest)) if rest else 0
        tail = None
        while tail is None:
            if (N - 1) * p > budget:
                raise ToleranceUnreachableError(
                    "a tail within abs_tol %s needs a direct head of %d terms, past the %d-term cap%s"
                    % (abs_tol, N - 1, budget // p,
                       " (a frequency of the summand is %s from resonance)" % mp.nstr(dists[near], 5) if rest else "")
                )
            tail = _by_parts(rest, dists[near:], p, N, target) if rest else (mpf(0), mpf(0))
            if tail is None:
                N *= 2
        tail_value, tail_bound = tail
        zeta = mp.zeta(p, N) if near else 0
        for c, w in freqs[:near]:
            tail_value += c.real * zeta
            tail_bound += abs(c) * _drift_bound(p, N, w)

        body = _head(a_mp, N, alternating) + tail_value
        bound = tail_bound
        if one_sided:
            value = 1 + body
        else:
            value, bound = 1 + 2 * body, 2 * bound
        if bound > abs_tol:
            raise ToleranceUnreachableError("the tail bound %s exceeds abs_tol %s" % (mp.nstr(bound, 5), abs_tol))
        return SumResult(value, N - 1, bound, float(abs_tol), one_sided)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def verify_theorem1(scales, alternating: bool = False, tol: float = 1e-7) -> dict:
    """Compare the integer-sample sum against the (possibly weighted)
    integral through two independent numeric paths.

    The two sides agree whenever the scales sum below 2 pi (plain) or
    3 pi (alternating); the report records whether that hypothesis
    holds, decided by _sum_below at the working precision of the two
    sides, and whether the sides agree within tol."""
    rs = _as_scales(scales)
    hypothesis = _sum_below(rs.scales, 3 if alternating else 2, float(tol) / 8)
    if len(rs.scales) < 2:
        return {
            "excluded": True,
            "reason": "single-factor specs are handled by the exact engine only",
            "hypothesis_holds": hypothesis,
        }
    sum_res = numeric_sum(rs.scales, alternating=alternating, abs_tol=float(tol) / 8)
    weight = SimpleNamespace(m=0) if alternating else None  # W_0(t) = 2 cos(pi t)
    # tol is absolute, and an integral can be exactly 0 (a transform
    # supported inside the first sample point), so the quadrature is
    # held to an absolute tolerance too
    integral = numeric_integral(RealScales(rs.scales, weight=weight), rel_tol=float(tol) / 8, abs_tol=float(tol) / 8)
    diff = sum_res.value - integral
    return {
        "lhs": mp.nstr(sum_res.value, 17),
        "rhs": mp.nstr(integral, 17),
        "difference": mp.nstr(diff, 8),
        "tolerance": float(tol),
        "hypothesis_holds": hypothesis,
        "equal_within_tol": bool(abs(diff) <= mpf(tol)),
        "truncation_m": sum_res.truncation_m,
        "tail_bound": mp.nstr(sum_res.tail_bound, 5),
    }


def lower_bound_check(a0, rest, abs_tol: float = 5e-10) -> dict:
    """Sum-side analog of the dominated lower bound: compare
    sum_{m>=0} prod sinc(a_k m) against sum_{m>=0} sinc^(n+1)(a0 m).

    The analog is guaranteed only under (n+1) a0 < 2 pi; the report
    states whether the hypothesis holds, decided by _sum_below at the
    sums' working precision, and whether the inequality came
    out true, so hypothesis violations with a failing inequality are
    visible counterexamples."""
    rest = list(rest)
    with mp.workprec(SCALE_PREC_BITS):  # mpf values are compared as they are, exactly
        top = mp.mpmathify(a0)
        if not (top > 0 and all(0 < mp.mpmathify(a) <= top for a in rest)):
            raise ValueError("requires a0 >= a_k > 0")
    n = len(rest)
    lhs = numeric_sum([a0] + rest, abs_tol=abs_tol, one_sided=True)
    rhs = numeric_sum([a0] * (n + 1), abs_tol=abs_tol, one_sided=True)
    slack = lhs.tail_bound + rhs.tail_bound
    return {
        "lhs": mp.nstr(lhs.value, 17),
        "rhs": mp.nstr(rhs.value, 17),
        "lhs_truncation_m": lhs.truncation_m,
        "rhs_truncation_m": rhs.truncation_m,
        "hypothesis_holds": _sum_below([a0] * (n + 1), 2, abs_tol),
        "inequality_holds": bool(lhs.value >= rhs.value - slack),
        "margin": mp.nstr(lhs.value - rhs.value, 10),
    }


# ---------------------------------------------------------------------------
# the non-sinc band-limited family
# ---------------------------------------------------------------------------


def bandlimited_kernel(t):
    """f(t) = (t sin t - cos t + e) / ((1 + t^2)(e - 1)), for real or
    complex t; f(0) = 1 and its transform is pi e^(-|w|) / (1 - 1/e) on
    |w| < 1, zero beyond, and pi / (2 (e - 1)) at the jump |w| = 1, the
    mean of its two sides, to which the transform integral converges.
    The poles at t = +-i cancel: the numerator vanishes there."""
    t = mp.mpmathify(t)
    if t == 0:
        return mpf(1)
    return (t * mp.sin(t) - mp.cos(t) + mp.e) / ((1 + t * t) * (mp.e - 1))


def _truncation_bound(a_mp, g_terms, T, J):
    """Bound on integral_T^inf |g| |prod_k f(a_k t) - prod_k f_J(a_k t)| dt
    for f_J of _kernel_terms and |g(t)| <= sum over g_terms of |c| t^(-p).
    At x = a t > 1, |f - f_J| = |x sin x - cos x + e| x^(-2J) / ((1 + x^2)(e - 1))
    <= E = r x^(-2J-2) and |f|, |f_J| <= M = r x^(-2) + E, r = (x + 1 + e) / (e - 1).
    Telescoped, the difference is at most sum_k E_k prod_(i != k) M_i, which
    falls at least as fast as t^(-2J-n) since r / x decreases; against |g|
    its integral is at most that at T times sum |c| T^(1-p) / (p + 2J + n - 1)."""
    r = [(a * T + 1 + mp.e) / (mp.e - 1) for a in a_mp]
    E = [rk * (a * T) ** (-2 * J - 2) for rk, a in zip(r, a_mp)]
    M = [rk * (a * T) ** -2 + e for rk, a, e in zip(r, a_mp, E)]
    at_T = mp.fsum(E[k] * mp.fprod(M[:k] + M[k + 1 :]) for k in range(len(E)))
    return at_T * mp.fsum(abs(c) * T ** (1 - p) / (p + 2 * J + len(E) - 1) for c, _, p in g_terms)


def _kernel_integral(a_mp, series, terms, tol):
    """integral_0^inf g(t) prod_k f(a_k t) dt within tol, for f the kernel
    and g = sinc(w t) or 2 cos(w t), its one head term (c, w, kind) in
    series and its tail terms.  T is the first multiple of pi / omega_max,
    omega_max = sum a_k + w, past KERNEL_TAIL_START / min a_k; each f is cut
    to the fewest terms J whose _truncation_bound fits in tol / 4, and that
    bound plus the head's must stay within tol (else ToleranceUnreachableError)."""
    omega_max = mp.fsum(a_mp) + series[0][1]
    panels = max(1, int(mp.ceil(KERNEL_TAIL_START * omega_max / (mp.pi * min(a_mp)))))
    T = panels * mp.pi / omega_max
    J = 1
    while (bound := _truncation_bound(a_mp, terms, T, J)) > tol / 4:
        J += 1
    value, err = _head_tail([series] + [[(1, a, 2)] for a in a_mp], [terms] + [_kernel_terms(a, J) for a in a_mp],
                            T, panels)
    if err + bound > tol:
        raise ToleranceUnreachableError("quadrature error bound %s plus truncation bound %s exceeds %s"
                                        % (mp.nstr(err, 5), mp.nstr(bound, 5), mp.nstr(tol, 5)))
    return value


def _kernel_prec_bits(tol) -> int:
    """Working precision of the kernel integrals at tol: 30 bits past it, at least 80."""
    return max(80, int(-mp.log(mpf(tol), 2)) + 30)


def example5_integral(a, b, tol: float = 1e-6):
    """integral over R of prod_k f(a_k t) * sin(b t)/t dt with f the
    band-limited kernel above; equals pi exactly when sum a_k < b.

    a_k and b are positive reals as RealScales takes them.  At u = b t,
    sin(b t)/t dt is sinc(u) du, so this integrates sinc(u) prod f(a_k u / b):
    b stays out of the head's C, and each a_k / b is rounded once to the
    working precision (from mpf, int and float values as they are)."""
    _check_tol("tol", tol)
    with mp.workprec(_kernel_prec_bits(tol)):
        b = RealScales((b,)).scales[0]
        a_mp = [mp.fdiv(x, b) for x in _as_scales(a).scales]
        return 2 * _kernel_integral(a_mp, [(1, 1, 1)], _sinc_terms(mpf(1)), tol / 2)


def example5_report(a, b, tol: float = 1e-6) -> dict:
    """example5_integral rendered: its value to 17 digits and its
    difference from pi to 5, taken at the kernel's working precision."""
    value = example5_integral(a, b, tol)
    with mp.workprec(_kernel_prec_bits(tol)):
        return {"value": mp.nstr(value, 17), "pi_difference": mp.nstr(value - mp.pi, 5)}


def verify_ft_example5(omega_samples, tol: float = 1e-6) -> list:
    """Numerically transform the band-limited kernel and compare with
    its closed form at each real frequency sample, one report each."""
    _check_tol("tol", tol)
    out = []
    with mp.workprec(_kernel_prec_bits(tol)):
        for omega in omega_samples:
            w = abs(mpf(omega))
            numeric = _kernel_integral([mpf(1)], [(2, w, 0)], [(mpc(1), w, 0), (mpc(1), -w, 0)], tol)
            closed = mp.pi / (1 - mp.exp(-1)) * mp.exp(-w) if w <= 1 else mpf(0)
            if w == 1:  # the transform jumps here, and its integral takes the mean of both sides
                closed /= 2
            out.append({"numeric": mp.nstr(numeric, 17), "closed_form": mp.nstr(closed, 17),
                        "difference": mp.nstr(numeric - closed, 5),
                        "within_tol": bool(abs(numeric - closed) <= mpf(tol))})
    return out
