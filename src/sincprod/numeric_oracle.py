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
nonnegative transform, so |f(x + i y)| <= f(0) cosh(omega y)
(Paley-Wiener).  The head of a sinc product, weighted or not, is the
product's Taylor series in t / T, T = pi / omega_max, multiplied out in
fixed point with no transcendental call (_series_head).  The
band-limited kernel needs many panels far from 0, where the series
cannot run; each takes one Gauss-Legendre rule of a degree fixed before
any evaluation, from the rule's error bound on the Bernstein ellipses
(Trefethen, ATAP Thm 19.3): 24 nodes from 80 to 190 bits, 48 from 200
to 500.
Past T each factor is a finite sum of terms c e^(i w t) t^(-p), and
each term integral_T^inf e^(i w t) t^(-p) dt equals T^(1-p) E_p(-i w T),
with E_p the generalized exponential integral (DLMF 8.19), for any
T > 0.  Equal (w, p) are merged and each conjugate pair +-w shares one
E_1 call, from which E_p follows by recurrence.  For sinc products the
terms are exact.  The band-limited kernel
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
sum over m^p whose frequencies, summed and reduced modulo 2 pi without
rounding, are merged and conjugate-paired as for integrals.  Each term
sum_{m>=N} z^m m^(-p) takes a few steps of summation by parts
(DLMF 2.10(ii)), in fixed point over forward differences of m^(-p)
formed exactly in integers; as m^(-p) is completely monotone, the
remainder is at most the last term kept, so the tail bound is
rigorous.  A frequency at z = 1 up to
rounding takes the Hurwitz zeta(p, N) plus a bound for its drift.  N
scales as 1 / min |1 - z| and is a few hundred on the paper's
examples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import inf, lcm
from operator import mul
from types import SimpleNamespace

import mpmath as mp
from mpmath import mpc, mpf

from . import InfeasibleError
from .rational import rat

DEFAULT_PREC_BITS = 128

MAX_ORACLE_WORK = 120_000  # work units of one integral or sum, charged where the work is counted
KERNEL_TAIL_START = 4


class ToleranceUnreachableError(InfeasibleError):
    """An integral's error bound exceeds the requested tolerance, or
    an integral or a sum needs more work than MAX_ORACLE_WORK."""


@dataclass(frozen=True)
class RealScales:
    """Positive real scales a_k of prod_k sinc(a_k t), any real mpf() reads
    (parse_scale's values, numbers, '1/7'), and an optional cosine weight
    W_m(t) = 2 sum_{k<=m} cos((2k+1) pi t), read by its m alone (a CosineWeightSpec)."""

    scales: tuple
    weight: object = None

    def __post_init__(self):
        # keep the caller's values (mpf scales stay mpf); a float()
        # round-trip here would silently cap the attainable accuracy
        scales = tuple(self.scales)
        if not scales or not all(float(a) > 0 and mp.isfinite(a) for a in map(mpf, scales)):
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
# integrals: a series or quadrature head plus an exact E_p tail
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


def _expand(factors, budget):
    """Terms (c, w, p) of the product of factors, each a list of terms
    (c, w, p) of c e^(i w t) t^(-p), with equal (w, p) merged, and the
    number of terms formed.  Raises ToleranceUnreachableError before a
    factor's terms would take that number past budget."""
    terms, formed = {(mpf(0), 0): mpc(1)}, 0
    for factor in factors:
        formed += len(terms) * len(factor)
        if formed > budget:
            raise ToleranceUnreachableError("the tail needs more terms than the %d the work cap leaves" % budget)
        product = {}
        for (w, p), c in terms.items():
            for c2, w2, p2 in factor:
                # keyed by the exact sum, so a + 1 - 1 and a - 1 + 1 merge
                key = mp.fadd(w, w2, exact=True), p + p2
                product[key] = product.get(key, 0) + c * c2
        terms = product
    return [(c, w, p) for (w, p), c in terms.items()], formed


def _merge_frequencies(terms, period=None):
    """Merged terms (c, w, p) of a real sum of c e^(i w x) x^(-p).

    The sum is real, so it equals the real part of the sum over the
    returned terms, in which equal (w, p) are merged and each conjugate
    pair shares one frequency: Re(c e^(i w x)) = Re(conj(c) e^(-i w x)).
    Frequencies are folded onto w >= 0; with a period (2 pi, for integer
    x) they are first reduced modulo it and folded into
    [0, period / 2].  Both are exact, so frequencies one modulo the period
    meet, and their coefficients cancel where the summand vanishes (a
    scale pi).  Zero coefficients are dropped.
    """
    merged = {}
    for c, w, p in terms:
        if period is not None:
            w = mp.fsub(w, mp.fmul(period, mp.floor(w / period), exact=True), exact=True)
            if 2 * w > period:
                c, w = mp.conj(c), mp.fsub(period, w, exact=True)
        elif w < 0:
            c, w = mp.conj(c), mp.fneg(w, exact=True)
        merged[w, p] = merged.get((w, p), 0) + c
    return [(c, w, p) for (w, p), c in merged.items() if c != 0]


def _tail(factors, T, budget):
    """integral_T^inf of the product of factors, exact to precision: a
    merged term (_merge_frequencies) gives Re(c T^(1-p) E_p(-i w T)), or
    Re(c) T^(1-p) / (p - 1) at w = 0.  Each w calls E_1 once, and
    p E_(p+1)(z) = e^(-z) - z E_p(z) (DLMF 8.19.12) scales an error by
    |z| / p per step, by x^K / K! at most for x >= |z| and K = min(p, x).
    Terms of size up to T prod sum |c| T^(-p) cancel down to the tail, so
    the guard bits are log2 of that size and of x^K / K!, plus the top p."""
    size = T * mp.fprod(mp.fsum(abs(c) * T**-p for c, _, p in factor) for factor in factors)
    p_max = sum(max(p for _, _, p in factor) for factor in factors)
    x = T * mp.fsum(max(abs(w) for _, w, _ in factor) for factor in factors)
    K = min(p_max, int(x))
    with mp.extraprec(max(0, int(mp.log(size, 2) + K * mp.log(x + 1, 2) - mp.loggamma(K + 1) / mp.ln2)) + p_max):
        by_w = {}
        for c, w, p in _merge_frequencies(_expand(factors, budget)[0]):
            by_w.setdefault(w, {})[p] = c * T ** (1 - p)
        total = mpf(0)
        for w, cs in by_w.items():
            if w == 0:
                total += mp.fsum(c.real / (p - 1) for p, c in cs.items())
                continue
            z = -1j * w * T
            E, ez = mp.expint(1, z), mp.exp(-z)
            for p in range(1, max(cs) + 1):
                total += (cs[p] * E).real if p in cs else 0
                E = (ez - z * E) / p
        return total


def _series_length(C):
    """(J, bound): the fewest terms J >= 2 of _series_head's series whose
    truncation bound 2 C pi^(2J) / (2J)!, in units of T, is at most
    2^-(prec+20), and that bound."""
    J, term, pi2 = 2, mp.pi**4 / 24, mp.pi**2
    while 2 * C * term > mp.ldexp(1, -mp.mp.prec - 20):
        term *= pi2 / ((2 * J + 1) * (2 * J + 2))
        J += 1
    return J, 2 * C * term


def _series_head(factors, T):
    """(integral_0^T prod f dt, a bound on its error) for factors
    f(t) = sum c g(w t) over terms (c, w, odd), g = sinc (odd = 1) or
    cos (odd = 0), with c = 1 or 2 and w T <= pi (up to rounding), from
    the product's power series in s = t / T, with no transcendental call.

    Each term's series c g(w T s) = sum_j c_j s^(2j) starts at c_0 = c and
    goes on by c_j = -c_(j-1) x^2 / q_j, x = w T, q_j = (2j - 1 + odd)(2j + odd).
    The factors' series are multiplied, truncated at J terms, and the head
    is T sum_(j<J) c_j / (2j + 1).

    Truncation.  c g(w T s) is dominated, coefficient by coefficient, by
    c cosh(w T s), so f by C_f cosh(omega_f T s), with C_f the sum of its
    c and omega_f its largest w; as cosh u cosh v <= cosh(u + v)
    coefficientwise, the product is dominated by C cosh(pi s), with
    C = prod C_f = prod f(0) and sum omega_f T = omega_max T = pi.  So
    |c_j| <= C pi^(2j) / (2j)!, the terms past J shrink at least twofold
    for J >= 2, and those dropped weigh at most 2 C T pi^(2J) / (2J)!;
    _series_length picks J (28 at 128 bits and C = 1, 40 at 239 bits).

    Rounding, in ulp, units of 2^-P.  Coefficients are integers times
    2^-P.  X = x^2 2^P is rounded once, within 1 ulp; a term's c_j takes one
    floor division of -c_(j-1) X by q_j 2^P, and as |c_j| <= 10 and
    x^2 <= 10, its error e_j <= (10 e_(j-1) + 10) / q_j + 1 stays at most 7
    (6 and 6.9 at the first two steps of a cosine, then q_j >= 30).  In
    the l1 norm over the J coefficients a factor is then off by at most
    7 J C_f ulp, and the norm of its dominant is at least C_f.  A product's
    coefficients take one floor of the exact integer convolution, so the
    errors of A B add as |A| e_B + |B| e_A + e_A e_B 2^-P + J; relative to
    the dominants' norms N, whose product is at most C cosh(pi) < 12 C,
    the relative errors add, plus J + 1 per product.  The sum over c_j /
    (2j + 1), exact over lcm(1, 3, ..., 2J - 1), is then off by at most
    R = 12 C n (8 J + 1) ulp for n factors, and P = prec + 20 +
    bitlength(R) puts that below 2^-(prec+20).  The bound is T times the
    truncation's and the rounding's; the head is formed at prec + 20 bits
    and rounded once, as _quad_head rounds its rule."""
    C = mp.fprod(sum(c for c, _, _ in f) for f in factors)
    J, truncation = _series_length(C)
    R = 12 * C * len(factors) * (8 * J + 1)
    P = mp.mp.prec + 20 + int(mp.log(R, 2)) + 1
    product = None
    for f in factors:
        series = [0] * J
        for c, w, odd in f:
            with mp.workprec(P + 10):
                X = int(mp.nint(mp.ldexp((w * T) ** 2, P)))
            cj = c << P
            for j in range(J):
                series[j] += cj
                cj = -cj * X // ((2 * j + 1 + odd) * (2 * j + 2 + odd) << P)
        product = series if product is None else \
            [sum(map(mul, product[: j + 1], series[j::-1])) >> P for j in range(J)]
    L = lcm(*range(1, 2 * J, 2))
    with mp.extraprec(20):
        head = T * mp.fdiv(sum(c * (L // (2 * j + 1)) for j, c in enumerate(product)), L << P)
    return +head, T * (truncation + mp.ldexp(R, -P))


def _gauss_bound(n, C, omega_h, h):
    """Bound on the error of n-point Gauss-Legendre on a panel of width
    h, for an entire integrand with |f(x + i y)| <= C e^(omega |y|) and
    omega h = omega_h.  Mapped onto [-1, 1], f is bounded on the
    Bernstein ellipse E_rho by M = C e^(omega_h (rho - 1/rho) / 4), and
    the rule is off by at most (h/2) (64/15) M rho^(2-2n) / (rho^2 - 1)
    (Trefethen, Approximation Theory and Approximation Practice,
    Thm 19.3, whose n + 1 points are n here); rho = max(2, 8 n / omega_h)
    nearly minimizes that."""
    rho = max(mpf(2), 8 * n / omega_h)
    return h * 32 * C * mp.exp(omega_h * (rho - 1 / rho) / 4) * rho ** (2 - 2 * n) / (15 * (rho**2 - 1))


def _gauss_rule(C, omega_h, h):
    """(d, bound): the smallest degree d of mpmath's Gauss-Legendre rule,
    n = 3 2^(d-1) nodes, whose _gauss_bound on a panel of width h is at
    most 2^-(prec+20) h, and that bound; the top degree mp.quad would
    try, guess_degree(prec), and its bound if none is."""
    prec = mp.mp.prec
    for d in range(1, mp.mp._gauss_legendre.guess_degree(prec) + 1):
        bound = _gauss_bound(3 << (d - 1), C, omega_h, h)
        if bound <= mp.ldexp(h, -prec - 20):
            break
    return d, bound


def _quad_head(factors, T, panels):
    """(integral_0^T prod f dt, a bound on its error) for factors
    (f, terms, C, omega), each f entire and bounded off the real line by
    |f(x + i y)| <= C cosh(omega y), as f is, with C = f(0), when its
    transform is even, nonnegative and zero past omega (sinc, sin(b t)/t,
    the kernel and cosines alike).
    [0, T] is cut into equal panels, each summed by one Gauss-Legendre
    rule whose degree _gauss_rule fixes before any evaluation, from
    prod C and the fastest frequency sum omega.  The rule is summed at
    prec + 20 bits over mpmath's own cached nodes and rounded once, as
    mp.quad sums the last rung of its ladder; the bound is the rule's,
    summed over panels."""
    prec, h = mp.mp.prec, T / panels
    degree, bound = _gauss_rule(mp.fprod(c for *_, c, _ in factors), h * mp.fsum(w for *_, w in factors), h)
    points, head = mp.linspace(0, T, panels + 1), mpf(0)
    with mp.extraprec(20):
        for a, b in zip(points, points[1:]):
            nodes = mp.mp._gauss_legendre.get_nodes(a, b, degree, prec)
            head += mp.fdot((w, mp.fprod(f(x) for f, *_ in factors)) for x, w in nodes)
    return +head, panels * bound


def _head_tail(terms, T, panels, head):
    """(integral_0^inf prod f dt, an error bound) for factors equal past
    T to their terms (lists of (c, w, p), as _tail takes them): the head
    [0, T] is head(), a pair (value, error bound) from _series_head or
    _quad_head over that many panels, and the tail is _tail's.  The
    bound is the head's plus one rounding of |head| + |tail|, so a head
    and tail that cancel to noise do not pass as accurate.  Work past
    MAX_ORACLE_WORK (a tail term formed is charged 6, a panel or a series
    head 1,200) raises ToleranceUnreachableError before any of it is done."""
    budget = MAX_ORACLE_WORK - 1200 * panels
    if budget < 0:
        raise ToleranceUnreachableError("the head [0, %s] needs %d quadrature panels, past the work cap"
                                        % (mp.nstr(T, 5), panels))
    tail = _tail(terms, T, budget // 6)
    value, bound = head()
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
        T = mp.pi / omega_max
        half, err = _head_tail(terms, T, 1, lambda: _series_head(series, T))
        allowed, name = (rel_tol * abs(half), "rel_tol") if abs_tol is None else (mpf(abs_tol) / 2, "abs_tol")
        if err > allowed:
            raise ToleranceUnreachableError("quadrature error bound %s exceeds %s (%s), half-line integral %s"
                                            % (mp.nstr(err, 5), mp.nstr(allowed, 5), name, mp.nstr(half, 5)))
        return 2 * half


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


def _near_prefix(freqs, dists, p, limit):
    """(near, N): the longest prefix of near-1 frequencies whose drift
    bound, at the head length N the rest would need, stays within limit.
    freqs are sorted by |1 - z|, so one pass grows the prefix until the
    bound passes limit.  For p >= 3 the bound is linear in w, so a
    prefix's is that of the running sum of |c| w; p = 2 (at most three
    merged frequencies) sums a logarithm per frequency."""
    total = mpf(0)
    for k, (c, w) in enumerate(freqs, 1):
        N = _head_length(p, dists[k] if k < len(freqs) else 2)
        total += abs(c) * w
        drift = (_drift_bound(p, N, total) if p >= 3
                 else mp.fsum(abs(c) * _drift_bound(p, N, w) for c, w in freqs[:k]))
        if drift > limit:
            return k - 1, _head_length(p, dists[k - 1])
    return len(freqs), _head_length(p, 2)


def _differences(p, N, K):
    """([P Delta^k g(N) for k < K], P), g(m) = m^(-p): the forward
    differences as exact integer numerators over their common
    denominator P = lcm(N, ..., N + K - 1)^p, that of g(N), ...,
    g(N + K - 1).  They are kept exact because the differences cancel
    by up to (2N)^K."""
    P = lcm(*range(N, N + K)) ** p
    row = [P // (N + j) ** p for j in range(K)]
    diffs = []
    for _ in range(K):
        diffs.append(row[0])
        row = [row[j + 1] - row[j] for j in range(len(row) - 1)]
    return diffs, P


def _fixed(z, bits):
    """The complex number z as a pair of integers, its parts times 2^bits
    rounded to the nearest."""
    return int(mp.nint(mp.ldexp(z.real, bits))), int(mp.nint(mp.ldexp(z.imag, bits)))


def _by_parts(freqs, dists, p, N, target):
    """sum_{m>=N} z^m m^(-p) for each z = e^(i w) of freqs, at distance
    |1 - z| of dists, by summation by parts (DLMF 2.10(ii)) taken K times:

        sum_{k<K} z^(N+k) Delta^k g(N) / (1 - z)^(k+1) + R_K,  g(m) = m^(-p).

    g is completely monotone, so sum_{m>=N} |Delta^K g(m)| telescopes
    to |Delta^(K-1) g(N)| and |R_K| <= |Delta^(K-1) g(N)| / |1 - z|^K,
    the size of the last term kept.  The terms shrink by about
    (p + k) / (N |1 - z|), so they are added while they shrink, up to
    K ~ N min|1 - z| of them, which costs nothing past the table of
    differences (_differences, exact integers over one denominator P).
    The factors t_k = z^(N+k) / (1 - z)^(k+1) are turned by z / (1 - z)
    in fixed point at Q = prec + K + bitlength(K) + 8 bits, which keep
    each t_k to the working precision although |1 - z| <= 2 shrinks it
    by up to 2^-K; sum_k t_k P Delta^k g(N) is formed exactly and
    divided by P 2^Q once.  Returns sum_j Re(c_j * tail_j) and
    sum_j |c_j| * size_j, or None when the last term kept for some
    frequency is above target (a longer head is then needed)."""
    K = int(N * min(dists)) + 1
    diffs, P = _differences(p, N, K)
    Q = mp.mp.prec + K + K.bit_length() + 8
    den = P << Q
    value = bound = mpf(0)
    for (c, w), dist in zip(freqs, dists):
        with mp.workprec(Q + 10):
            z = mp.expj(w)
            (tr, ti), (qr, qi) = _fixed(mp.expj(w * N) / (1 - z), Q), _fixed(z / (1 - z), Q)
        # |term_k| = |Delta^k g(N)| / |1 - z|^(k+1), as |z| = 1, stops shrinking
        # when |Delta^k g(N)| >= |Delta^(k-1) g(N)| |1 - z|
        sr = si = kept = 0
        for d in diffs:
            if kept and abs(d) >= abs(diffs[kept - 1]) * dist:
                break
            sr, si = sr + tr * d, si + ti * d
            tr, ti = (tr * qr - ti * qi) >> Q, (tr * qi + ti * qr) >> Q
            kept += 1
        last = mp.fdiv(abs(diffs[kept - 1]), P) / dist**kept
        if last > target:
            return None
        value += (c * mpc(mp.fdiv(sr, den), mp.fdiv(si, den))).real
        bound += abs(c) * last
    return value, bound


def _head(a_mp, N, alternating):
    """sum_{m=1}^{N-1} prod_k sinc(a_k m), times (-1)^m when alternating,
    as an mpf of P bits.

    Each e^(i a m) is carried as a pair of integers scaled by 2^P and
    turned by round(e^(i a) 2^P) once per m; equal scales share one
    turn, raised to their multiplicity.  The sines are multiplied in
    fixed point, floor-divided by m^p and summed exactly, and the sum is
    divided by prod_k a_k once, at P bits.  A turn adds at most 3 ulp
    (units of 2^-P) to a sine, so the sine at m is off by at most 3m
    ulp, the product at m by 3pm + p and its quotient by m^p by
    (3pm + p) / m^p + 1.  Summed, the head is off by at most

        (N + 3p (ln N + 2)) 2^-P / prod_k a_k + (p + 1) 2^-P |head|,

    and P = prec + bitlength(N) + 8 keeps that below 2^-prec / prod_k a_k
    for N >= 2p + 16, as numeric_sum's are (its prec has guard bits for
    the 1 / prod_k a_k)."""
    p = len(a_mp)
    P = mp.mp.prec + N.bit_length() + 8
    with mp.workprec(P + 10):
        turns = [(*_fixed(mp.expj(a), P), e) for a, e in Counter(a_mp).items()]
    cs, sn = [1 << P] * len(turns), [0] * len(turns)
    total = 0
    for m in range(1, N):
        v = 1 << P
        for j, (rc, rs, e) in enumerate(turns):
            c, s = cs[j], sn[j]
            cs[j], sn[j] = c, s = (c * rc - s * rs) >> P, (c * rs + s * rc) >> P
            v = v * s**e >> P * e
        v //= m**p
        total += -v if alternating and m & 1 else v
    with mp.workprec(P):
        return mp.ldexp(total, -P) / mp.fprod(a_mp)


def numeric_sum(
    scales,
    alternating: bool = False,
    abs_tol: float = 1e-10,
    one_sided: bool = False,
) -> SumResult:
    """sum over integers m of prod_k sinc(a_k m) (times (-1)^m when
    alternating), within a rigorous bound tail_bound <= abs_tol.

    one_sided restricts to m >= 0; the summand is even in m, so
    one_sided = (two_sided + 1) / 2.

    m = 1 .. N - 1 are summed directly (truncation_m = N - 1).  For
    m >= N the summand is exactly m^(-p) times the real part of
    sum_j c_j z_j^m, z_j = e^(i w_j), with the frequencies of the sinc
    factors (_expand) folded onto w >= 0, shifted by pi when alternating,
    reduced modulo 2 pi and merged (_merge_frequencies).  Frequencies next to z = 1 (exact
    resonances, up to the rounding of the scales) take the Hurwitz
    zeta(p, N), and their drift |e^(i w m) - 1| <= min(2, w m) goes
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
        shift = mp.pi if alternating else 0
        terms, formed = _expand([_sinc_terms(a) for a in a_mp], MAX_ORACLE_WORK // 2)
        budget = MAX_ORACLE_WORK - 2 * formed
        # each conjugate pair folds exactly here, not one rounding apart after the reduction mod 2 pi;
        # (-1)^m = e^(i pi m) is real, so the alternating shift may follow the fold
        terms = [(c, mp.fadd(w, shift, exact=True), q) for c, w, q in _merge_frequencies(terms)]
        freqs = sorted(((c, w) for c, w, _ in _merge_frequencies(terms, 2 * mp.pi)), key=lambda cw: cw[1])
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
    if any(float(a) > float(a0) or float(a) <= 0 for a in rest) or float(a0) <= 0:
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


def _kernel_integral(a_mp, g, tol):
    """integral_0^inf g(t) prod_k f(a_k t) dt within tol, for f the kernel
    and g = (sin(b t)/t or 2 cos(w t), its terms, C, omega) as
    _head_tail takes it.  T is the first multiple of pi / omega_max, the
    fastest frequency sum a_k + omega, past KERNEL_TAIL_START / min a_k;
    each f is cut to the fewest terms J whose _truncation_bound fits in
    tol / 4, and that bound plus the quadrature's error bound must stay
    within tol (else ToleranceUnreachableError)."""
    omega_max = mp.fsum(a_mp) + g[3]
    panels = max(1, int(mp.ceil(KERNEL_TAIL_START * omega_max / (mp.pi * min(a_mp)))))
    T = panels * mp.pi / omega_max
    J = 1
    while (bound := _truncation_bound(a_mp, g[1], T, J)) > tol / 4:
        J += 1
    factors = [g] + [(lambda t, a=a: bandlimited_kernel(a * t), _kernel_terms(a, J), 1, a) for a in a_mp]
    value, err = _head_tail([terms for _, terms, _, _ in factors], T, panels, lambda: _quad_head(factors, T, panels))
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

    a_k and b are positive reals as RealScales takes them, rounded once
    to the working precision; sin(b t)/t takes the terms of b sinc(b t)."""
    _check_tol("tol", tol)
    with mp.workprec(_kernel_prec_bits(tol)):
        a_mp, b_mp = [mpf(x) for x in _as_scales(a).scales], mpf(RealScales((b,)).scales[0])
        g = (lambda t: mp.sin(b_mp * t) / t if t else b_mp, [(c * b_mp, w, p) for c, w, p in _sinc_terms(b_mp)],
             b_mp, b_mp)
        return 2 * _kernel_integral(a_mp, g, tol / 2)


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
            g = (lambda t: 2 * mp.cos(w * t), [(mpc(1), w, 0), (mpc(1), -w, 0)], 2, w)
            numeric = _kernel_integral([mpf(1)], g, tol)
            closed = mp.pi / (1 - mp.exp(-1)) * mp.exp(-w) if w <= 1 else mpf(0)
            if w == 1:  # the transform jumps here, and its integral takes the mean of both sides
                closed /= 2
            out.append({"numeric": mp.nstr(numeric, 17), "closed_form": mp.nstr(closed, 17),
                        "difference": mp.nstr(numeric - closed, 5),
                        "within_tol": bool(abs(numeric - closed) <= mpf(tol))})
    return out
