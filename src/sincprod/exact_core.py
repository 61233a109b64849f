"""Exact partial sums, rigorous intervals, and breaking-point searches.

Everything here works in normalized units: the k-th scale of the
odd-harmonic family is 1/(2k+1), so the thresholds of interest are the
small integers 2, 3, 5, 7 rather than multiples of pi.

The odd-harmonic breaking point, the largest n with
S_n = sum_{k<=n} 1/(2k+1) < t, is found by one search: a gallop from
the float estimate n ~ e^(2t - gamma - 2 ln 2) - 1, then a bisection,
each probe deciding S_n < t rigorously.  A probe with n below
``EXACT_PROBE_CUTOFF`` sums S_n exactly by binary splitting, whose
long ranges merge over the gcd of their denominators, so these stay
near the lcm of the odd numbers rather than their product.  Any other
probe encloses the closed form S_n = (psi(n + 3/2) + gamma + 2 ln 2) / 2:
ln, gamma and ln 2 come from ``mpmath.libmp`` rounded outward, psi's
asymptotic series (DLMF 5.11.2) uses exact Bernoulli numbers, and its
remainder is bounded by the first omitted term (DLMF 5.11(ii)).  A
probe next to the last steps from it by one term: its enclosure, with
the term rounded outward on its grid, before a fresh one, and its exact
sum, by one multiply-add, in place of a split.

Every decision is a strict separation of an enclosure from t or an
exact comparison.  When an enclosure of S_n straddles t, S_n is summed
exactly if n <= ``EXACT_TERM_CUTOFF``.  Otherwise the precision
doubles, up to ``MAX_PRECISION_BITS`` or until the series rather than
the precision limits the enclosure; a straddle left then is summed
exactly if n <= ``MAX_EXACT_TERMS`` and refused beyond.  A threshold
whose n is too large for ``MAX_PRECISION_BITS`` to tell S_n from
S_(n+1) is refused at once.

Enclosures are dyadic fixed point: an ``Interval`` stores integer
mantissas lo_num, hi_num meaning [lo_num/2^P, hi_num/2^P], built by
directed (floor/ceil) rounding of each part.  The searches only ask
whether it lies strictly below or strictly above a rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, floor, gcd

import mpmath as mp
from mpmath import bernfrac
from mpmath.libmp import from_int, mpf_add, mpf_euler, mpf_ln2, mpf_log, round_ceiling, round_floor

from . import InfeasibleError
from .rational import rat

EXACT_PROBE_CUTOFF = 250        # a search probe with n below here sums S_n exactly
EXACT_TERM_CUTOFF = 10_000      # a straddling enclosure is settled by the exact S_n up to here
MAX_PRECISION_BITS = 1 << 14
MAX_EXACT_TERMS = 100_000       # past MAX_PRECISION_BITS, the exact S_n is summed only up to here
MAX_SERIES_TERMS = 128          # Bernoulli terms per enclosure; caps its cost, not its rigour
DEFAULT_PRECISION_BITS = 128    # the closed form's starting precision
_PRODUCT_FORM_TERMS = 128       # _odd_sum_split merges longer ranges over the gcd of their denominators


class NonTerminatingSearchError(InfeasibleError):
    """The search cannot decide: the family never reaches the threshold,
    or deciding would take more than a cost budget allows."""


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Enclosure [lo_num/2^P, hi_num/2^P] with directed rounding at P bits."""

    lo_num: int
    hi_num: int
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be >= 53")
        if self.lo_num > self.hi_num:
            raise ValueError("empty interval")

    def strictly_below(self, x) -> bool:
        x = rat(x)
        return self.hi_num * x.denominator < x.numerator << self.precision_bits

    def strictly_above(self, x) -> bool:
        x = rat(x)
        return self.lo_num * x.denominator > x.numerator << self.precision_bits


# ---------------------------------------------------------------------------
# Scale families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HarmonicFamily:
    """A sequence of positive scales beta_0, beta_1, ...

    kinds: "odd_harmonic" (beta_k = 1/(2k+1)), "constant" (beta_k = beta),
    "custom" (explicit finite list).
    """

    kind: str
    beta: object = None
    betas: tuple = ()

    @classmethod
    def odd_harmonic(cls) -> "HarmonicFamily":
        return cls("odd_harmonic")

    @classmethod
    def constant(cls, beta) -> "HarmonicFamily":
        beta = rat(beta)
        if beta <= 0:
            raise ValueError("scales must be positive")
        return cls("constant", beta=beta)

    @classmethod
    def custom(cls, betas) -> "HarmonicFamily":
        betas = tuple(rat(b) for b in betas)
        if not betas or any(b <= 0 for b in betas):
            raise ValueError("scales must be a nonempty positive list")
        return cls("custom", betas=betas)


# ---------------------------------------------------------------------------
# Odd-harmonic partial sums
# ---------------------------------------------------------------------------


def _odd_sum_split(a: int, b: int):
    """(num, den) with num/den = sum_{a<=k<b} 1/(2k+1), by binary splitting.

    A range of more than ``_PRODUCT_FORM_TERMS`` terms merges its halves
    p1/q1 and p2/q2 over g = gcd(q1, q2), as (p1 (q2/g) + p2 (q1/g)) /
    (q1 (q2/g)), so den stays near the lcm of the odd numbers: within
    19% of it at 1,000 terms and 4% at 3,000, where their product is 3.9
    times it.  Every multiply above the cut, and a caller's reduction,
    works on numbers that much smaller.  Shorter ranges merge by the
    product q1 q2, where a gcd costs about what it saves: a gcd at every
    merge was slower, cuts at 128 and 256 terms timed alike, and 128
    keeps den within 1.25 times the lcm from 1,000 terms on.  Ranges of
    up to 16 terms are summed term by term.  num/den need not be in
    lowest terms.
    """
    if b - a <= 16:
        p, q = 0, 1
        for d in range(2 * a + 1, 2 * b, 2):
            p, q = p * d + q, q * d
        return p, q
    m = (a + b) // 2
    p1, q1 = _odd_sum_split(a, m)
    p2, q2 = _odd_sum_split(m, b)
    if b - a <= _PRODUCT_FORM_TERMS:
        return p1 * q2 + p2 * q1, q1 * q2
    g = gcd(q1, q2)
    return p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2


def odd_harmonic_sum(n: int):
    """Sum_{k=0..n} 1/(2k+1) exactly, in lowest terms."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return rat(*_odd_sum_split(0, n + 1))


def interval_odd_harmonic_sum(n: int, precision_bits: int) -> Interval:
    """Enclosure of Sum_{k=0..n} 1/(2k+1) at the requested precision.

    Each term is rounded once, so the width is at most (n+1) ulp, well
    inside the (n+1) * 2^(1-P) * value contract.  This is direct
    summation, independent of the closed form the search uses.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    one = 1 << precision_bits
    lo = hi = 0
    for k in range(n + 1):
        d = 2 * k + 1
        q, r = divmod(one, d)
        lo += q
        hi += q + (1 if r else 0)
    return Interval(lo, hi, precision_bits)


@lru_cache(maxsize=None)  # bounded: k <= MAX_SERIES_TERMS + 1
def _bernoulli(k: int):
    """B_2k as (p, q)."""
    return bernfrac(2 * k)


def _floor_ceil(p: int, q: int, bits: int):
    """floor and ceil of (p/q) * 2^bits, for q > 0."""
    scaled = p << bits
    return scaled // q, -((-scaled) // q)


def _mpf_floor_ceil(raw, bits: int, ceil: bool) -> int:
    """floor (or ceil) of a raw mpf (sign, man, exp, bc) times 2^bits."""
    sign, man, exp, _ = raw
    value, shift = (-man if sign else man), exp + bits
    if shift >= 0:
        return value << shift
    return -((-value) >> -shift) if ceil else value >> -shift


def _odd_sum_enclosure(n: int, bits: int):
    """(enclosure, series_limited) for S_n = (psi(n + 3/2) + gamma + 2 ln 2) / 2.

    With x = n + 3/2 = d/2, 2 S_n = ln d + gamma + ln 2 - 1/d
    - sum_{k<=K} B_2k / (2k x^2k) + R, where R lies between 0 and minus
    the first omitted term (DLMF 5.11(ii), x real and positive).  The
    terms stop once the next one is below 2^-(bits+2), or, flagged as
    ``series_limited``, where the series starts to grow (small x) or
    after ``MAX_SERIES_TERMS`` (about 2400 bits at x = 10^4).  The bound
    on R holds for any K, so a limited enclosure is only wider, and more
    bits would not narrow it.  The mantissas of 2 S_n on the 2^-bits
    grid are those of S_n on the 2^-(bits+1) grid.
    """
    d, prec = 2 * n + 3, bits + 32

    def outward(rnd):  # ln d + gamma + ln 2 at prec, each step rounded the one way, as mpmath.iv rounds
        v = mpf_add(mpf_log(from_int(d, prec, rnd), prec, rnd), mpf_euler(prec, rnd), prec, rnd)
        return _mpf_floor_ceil(mpf_add(v, mpf_ln2(prec, rnd), prec, rnd), bits, ceil=rnd == round_ceiling)

    lo, hi = outward(round_floor), outward(round_ceiling)
    # -1/d, then the terms -B_2k 4^k / (2k d^2k) for k = 1, 2, ...
    lo_t, hi_t = _floor_ceil(-1, d, bits)
    lo, hi = lo + lo_t, hi + hi_t
    d2, power, prev = d * d, 1, None
    k = 1
    while True:
        b_p, b_q = _bernoulli(k)
        power *= d2
        p, q = -b_p << (2 * k), 2 * k * b_q * power
        lo_t, hi_t = _floor_ceil(p, q, bits)
        size = abs(p).bit_length() - q.bit_length()  # log2 |term|, to within 1
        limited = k > MAX_SERIES_TERMS or (prev is not None and size > prev)
        if limited or size < -bits - 2:
            # the first omitted term: R lies between 0 and it
            if p < 0:
                lo += lo_t
            else:
                hi += hi_t
            return Interval(lo, hi, bits + 1), limited
        lo, hi = lo + lo_t, hi + hi_t
        prev = size
        k += 1


# ---------------------------------------------------------------------------
# Breaking points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakingPointResult:
    """``mode`` is "exact" when both the estimate and n lie below
    ``EXACT_PROBE_CUTOFF``, so every probe summed S_n exactly, and
    "closed_form" otherwise.  ``terms_scanned`` counts the terms summed
    exactly: n + 1 for each probe that took the exact S_n by binary
    splitting, and 1 for each that stepped from its neighbour's."""

    n: int
    mode: str              # "exact" or "closed_form"
    precision_bits: int | None   # the enclosures' highest precision; None when exact
    terms_scanned: int


def breaking_point(family: HarmonicFamily, threshold) -> int:
    """Largest n with Sum_{k=0..n} beta_k < threshold (strict).

    The decision is rigorous: see the module docstring for the
    odd-harmonic search; the constant and custom families are exact.
    """
    return breaking_point_report(family, threshold).n


def breaking_point_report(family: HarmonicFamily, threshold) -> BreakingPointResult:
    """The breaking point, how it was decided and the work it took.

    The odd-harmonic search reads ``EXACT_PROBE_CUTOFF`` at call time.
    Its enclosures start at ``DEFAULT_PRECISION_BITS`` and double while
    one straddles the threshold; ``precision_bits`` reports where they
    ended.
    """
    threshold = rat(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")

    if family.kind == "constant":
        # (n+1) * beta < t  <=>  n + 1 <= ceil(t/beta) - 1
        ratio = threshold / family.beta
        p, q = ratio.numerator, ratio.denominator
        ceil_ratio = -((-p) // q)
        n = ceil_ratio - 2
        if n < 0:
            raise NonTerminatingSearchError("first scale already reaches the threshold")
        return BreakingPointResult(n, "closed_form", None, 0)

    if family.kind == "custom":
        total = rat(0)
        for k, b in enumerate(family.betas):
            total += b
            if total >= threshold:
                if k == 0:
                    raise NonTerminatingSearchError("first scale already reaches the threshold")
                return BreakingPointResult(k - 1, "exact", None, k + 1)
        raise NonTerminatingSearchError(
            "family total %s stays below threshold %s" % (total, threshold)
        )

    return _search(threshold, _estimate_breaking_point(threshold))


_GAMMA_2LN2 = 1.9635100260214235  # gamma + 2 ln 2


def _estimate_breaking_point(threshold) -> int:
    """n ~ e^y - 1 with y = 2t - gamma - 2 ln 2, from psi(x) ~ ln x - 1/(2x).

    It seeds the gallop and, with n, sets the reported mode; it decides
    nothing.  Floats serve while n fits their 53 bits; beyond, mpmath works at
    about as many bits as n has, so the gallop starts within a few
    steps.  A threshold whose n cannot be told from n + 1 at
    ``MAX_PRECISION_BITS`` is refused here.
    """
    if threshold < 20:
        return max(0, floor(exp(2 * float(threshold) - _GAMMA_2LN2) - 1))

    def y():  # at the working precision
        return 2 * mp.mpf(threshold.numerator) / threshold.denominator - mp.euler - 2 * mp.ln2

    with mp.workprec(64):
        n_bits = int(y() / mp.ln2) + 1
    if n_bits > MAX_PRECISION_BITS - 16:
        raise NonTerminatingSearchError(
            "the breaking point has about %d bits; telling S_n from S_(n+1) needs more than "
            "MAX_PRECISION_BITS = %d" % (n_bits, MAX_PRECISION_BITS)
        )
    with mp.workprec(n_bits + 32):
        return int(mp.floor(mp.exp(y()) - 1))


def _step(s, m: int, n: int):
    """S_n from S_m for n = m +- 1 by one term: s an Interval, kept on its own grid, or (num, den)."""
    d, sign = 2 * max(n, m) + 1, n - m  # S_n = S_m + sign/d
    if isinstance(s, Interval):
        lo_t, hi_t = _floor_ceil(sign, d, s.precision_bits)
        return Interval(s.lo_num + lo_t, s.hi_num + hi_t, s.precision_bits)
    return s[0] * d + sign * s[1], s[1] * d


def _search(threshold, start: int) -> BreakingPointResult:
    """Gallop from ``start``, then bisect, until S_n < t <= S_(n+1)."""
    t_p, t_q = threshold.numerator, threshold.denominator
    cutoff = EXACT_PROBE_CUTOFF
    bits, terms = DEFAULT_PRECISION_BITS, 0
    last = None, None  # n and S_n of the probe decided last: an Interval, or (num, den) exactly

    def decided(n: int, s):
        """S_n < t if s settles it, else None; s then becomes the last probe."""
        nonlocal last
        verdict = (s[0] * t_q < t_p * s[1] if isinstance(s, tuple) else
                   True if s.strictly_below(threshold) else False if s.strictly_above(threshold) else None)
        if verdict is not None:
            last = n, s
        return verdict

    def below(n: int) -> bool:
        """S_n < t, decided rigorously.  Next to the last probe, that probe's enclosure plus one term
        comes before a fresh enclosure, and its exact sum plus one term replaces the split."""
        nonlocal bits, terms
        m, s = last
        s = _step(s, m, n) if m is not None and abs(n - m) == 1 else None
        verdict = decided(n, s) if isinstance(s, Interval) else None
        if verdict is not None:
            return verdict
        while n >= cutoff:
            enclosure, limited = _odd_sum_enclosure(n, bits)
            verdict = decided(n, enclosure)
            if verdict is not None:
                return verdict
            if n <= EXACT_TERM_CUTOFF or limited or bits * 2 > MAX_PRECISION_BITS:
                break
            bits *= 2
        if n > MAX_EXACT_TERMS:
            raise NonTerminatingSearchError(
                "S_n straddles the threshold at %d bits for an n of %d bits; the exact S_n "
                "is summed only up to MAX_EXACT_TERMS = %d terms" % (bits, n.bit_length(), MAX_EXACT_TERMS)
            )
        s, terms = (s, terms + 1) if isinstance(s, tuple) else (_odd_sum_split(0, n + 1), terms + n + 1)
        return decided(n, s)

    if below(start):
        lo, step = start, 1
        while below(lo + step):
            lo, step = lo + step, step * 2
        hi = lo + step
    else:
        hi, step = start, 1
        while True:
            if hi == 0:
                raise NonTerminatingSearchError("first scale already reaches the threshold")
            m = max(hi - step, 0)
            if below(m):
                lo = m
                break
            hi, step = m, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    if start < cutoff and lo < cutoff:
        return BreakingPointResult(lo, "exact", None, terms)
    return BreakingPointResult(lo, "closed_form", bits, terms)
