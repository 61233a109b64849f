"""Independent references for the benchmark's output checks.

Nothing here imports sincprod.  The exact references run on
``fractions.Fraction``; the partial-sum closed form runs on mpmath.

* ``transform_at(betas, x)`` evaluates the normalized transform of
  prod_k sinc(beta_k pi t) as a truncated-power sum,
  F(x) = C * sum_S w_S (S - x)_+^n with C = 1 / (n! 2^n prod beta),
  S running over the signed sums of the scales and w_S the signed count
  of sign choices giving S.  Equal sums are coalesced as the sign
  choices are made, and partial sums that cannot end above x are
  dropped.
* ``closed_form_partial_sum(n)`` is
  S_n = sum_{k<=n} 1/(2k+1) = (psi(n + 3/2) + gamma + 2 ln 2) / 2.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import mpmath

CLOSED_FORM_DPS = 60


def parse_rat(text: str) -> Fraction:
    """Parse a "p/q" string, insisting on lowest terms and q > 0."""
    p, q = text.split("/")
    value = Fraction(int(p), int(q))
    if value.numerator != int(p) or value.denominator != int(q):
        raise ValueError("%s is not in lowest terms" % text[:40])
    return value


def transform_at(betas, x) -> Fraction:
    """F(x) for the product of sinc(beta_k pi t), by coalesced truncated powers."""
    betas = sorted((Fraction(b) for b in betas), reverse=True)
    x = abs(Fraction(x))
    n = len(betas) - 1
    remaining = sum(betas)
    sums = {Fraction(0): 1}
    for b in betas:
        remaining -= b
        nxt = {}
        for s, w in sums.items():
            for t, v in ((s + b, w), (s - b, -w)):
                # n >= 1: a sum ending exactly at x contributes 0^n = 0
                if t + remaining > x or (n == 0 and t + remaining == x):
                    nxt[t] = nxt.get(t, 0) + v
        sums = {s: w for s, w in nxt.items() if w}
    if n == 0:  # a box: the value at its edge is the half-sum of the jump
        total = sum(w if s > x else Fraction(w, 2) for s, w in sums.items())
    else:
        total = sum(w * (s - x) ** n for s, w in sums.items() if s > x)
    scale = math.factorial(n) * 2**n
    for b in betas:
        scale *= b
    return total / scale


def _points(radius, first: int):
    return range(first, math.floor(radius) + 1, 2)


def plain_integral(betas) -> Fraction:
    """Integral of prod_k sinc(beta_k pi t) over the real line.

    It is F(0).  With a unit scale the nonzero integer samples of the
    product vanish, so F(0) = 1 - 2 sum_{k>=1} F(2k), which needs only
    points near the support edge.
    """
    betas = [Fraction(b) for b in betas]
    if 1 in betas:
        return 1 - 2 * sum((transform_at(betas, p) for p in _points(sum(betas), 2)), Fraction(0))
    return transform_at(betas, 0)


def weighted_integral(betas, m: int) -> Fraction:
    """Integral of 2 sum_{k<=m} cos((2k+1) pi t) prod_k sinc(beta_k pi t).

    It is 2 sum of F over the odd points up to 2m+1; with a unit scale the
    odd samples sum to 1/2, so it is also 1 - 2 sum of F over the odd
    points beyond 2m+1.
    """
    betas = [Fraction(b) for b in betas]
    if 1 in betas:
        return 1 - 2 * sum((transform_at(betas, p) for p in _points(sum(betas), 2 * m + 3)), Fraction(0))
    return 2 * sum((transform_at(betas, q) for q in range(1, 2 * m + 2, 2)), Fraction(0))


def odd_harmonic_betas(n: int):
    return [Fraction(1, 2 * k + 1) for k in range(n + 1)]


def exact_partial_sum(n: int) -> Fraction:
    """S_n, summed over the running lcm of the denominators, reduced once."""
    num, den = 0, 1
    for k in range(n + 1):
        d = 2 * k + 1
        lcm = den * d // math.gcd(den, d)
        num, den = num * (lcm // den) + lcm // d, lcm
    return Fraction(num, den)


def closed_form_partial_sum(n: int):
    """S_n from the digamma closed form at CLOSED_FORM_DPS digits."""
    with mpmath.workdps(CLOSED_FORM_DPS):
        return (mpmath.digamma(n + mpmath.mpf(3) / 2) + mpmath.euler + 2 * mpmath.log(2)) / 2


GAP_MARGIN = mpmath.mpf(10) ** -40


def partial_sum_gaps(threshold: Fraction, n: int):
    """(t - S_n, S_{n+1} - t) from the closed form, as mpf at CLOSED_FORM_DPS.

    A breakpoint n is right when both are positive; |gap| below
    GAP_MARGIN is closer than the closed form can decide.
    """
    with mpmath.workdps(CLOSED_FORM_DPS):
        t = mpmath.mpf(threshold.numerator) / threshold.denominator
        return t - closed_form_partial_sum(n), closed_form_partial_sum(n + 1) - t


def rounded(value: Fraction, digits: int) -> Decimal:
    """value correctly rounded to `digits` significant digits, half to even."""
    ctx = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emin=-10**9, Emax=10**9)
    return ctx.divide(Decimal(value.numerator), Decimal(value.denominator))


# ---------------------------------------------------------------------------
# dumped splines: rows "x_lo,x_hi,c0,...,c_d" of exact p/q cells
# ---------------------------------------------------------------------------


def parse_spline_csv(text: str):
    rows = []
    for line in text.splitlines():
        cells = [parse_rat(c) for c in line.split(",")]
        rows.append((cells[0], cells[1], cells[2:]))
    for (_, hi, _), (lo, _, _) in zip(rows, rows[1:]):
        if hi != lo:
            raise ValueError("pieces are not contiguous")
    return rows


def spline_integral(rows) -> Fraction:
    total = Fraction(0)
    for lo, hi, coeffs in rows:
        total += sum(c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1) for i, c in enumerate(coeffs))
    return total


def spline_at(rows, x) -> Fraction:
    """Value at x, with the half-sum of the one-sided limits at a breakpoint."""
    x = Fraction(x)
    sides = []
    for lo, hi, coeffs in rows:
        if lo <= x <= hi:
            sides.append(sum(c * x**i for i, c in enumerate(coeffs)))
    if not sides:
        return Fraction(0)
    if len(sides) == 1 and rows[0][0] < x < rows[-1][1]:
        return sides[0]
    return sum(sides, Fraction(0)) / 2
