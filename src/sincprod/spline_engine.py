"""Compactly supported piecewise polynomials over exact rationals.

A ``PiecewisePolynomial`` is a strictly increasing breakpoint list
x_0 < ... < x_M together with one coefficient list (ascending powers of
x, global monomial basis) per open interval (x_j, x_{j+1}).  The value
is identically 0 outside [x_0, x_M]; the value exactly at a breakpoint
is the Dirichlet half-sum of the one-sided limits.

Convolution with a centered box, the independent reference for the
knot-measure transform of borwein_engine, gives at x the integral over
[x-h, x+h], computed from the piecewise antiderivative.  That raises
every degree by one, widens the support by h on each side, and keeps
every coefficient rational.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from . import InfeasibleError
from .rational import rat, rat_str

SIZE_GUARD_DEFAULT = 1 << 20


class SplineSizeError(InfeasibleError):
    """A spline priced past its cap: fourier_spline's 64-bit words, or convolve_with_box's breakpoints."""


# ---------------------------------------------------------------------------
# dense polynomial helpers on coefficient lists (ascending degree)
# ---------------------------------------------------------------------------


def _peval(coeffs, x):
    acc = rat(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _pshift(coeffs, h):
    """Coefficients of p(x + h)."""
    out = [rat(0)]
    for c in reversed(coeffs):
        # out <- out * (x + h) + c
        new = [rat(0)] * (len(out) + 1)
        for i, a in enumerate(out):
            new[i + 1] += a
            new[i] += a * h
        new[0] += c
        out = _ptrim(new)
    return out

def _pint(coeffs):
    return [rat(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]


def _psub(a, b):
    n = max(len(a), len(b))
    out = [rat(0)] * n
    for i in range(n):
        if i < len(a):
            out[i] += a[i]
        if i < len(b):
            out[i] -= b[i]
    return _ptrim(out)


def _ptrim(coeffs):
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiecewisePolynomial:
    breakpoints: tuple
    pieces: tuple  # pieces[j] valid on (breakpoints[j], breakpoints[j+1])

    def __post_init__(self):
        bps = tuple(rat(b) for b in self.breakpoints)
        pcs = tuple(tuple(rat(c) for c in _ptrim(list(p))) for p in self.pieces)
        if len(bps) != len(pcs) + (1 if pcs else 0):
            raise ValueError("need exactly one piece per breakpoint gap")
        if any(bps[i] >= bps[i + 1] for i in range(len(bps) - 1)):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", pcs)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        x = rat(x)
        if not self.pieces or x < self.breakpoints[0] or x > self.breakpoints[-1]:
            return rat(0)
        i = bisect.bisect_left(self.breakpoints, x)
        if i < len(self.breakpoints) and self.breakpoints[i] == x:
            left = _peval(self.pieces[i - 1], x) if i >= 1 else rat(0)
            right = _peval(self.pieces[i], x) if i < len(self.pieces) else rat(0)
            return (left + right) / 2
        return _peval(self.pieces[i - 1], x)

    def integral(self):
        return self._cumulative()[1]

    def _cumulative(self):
        """Antiderivative pieces, continuous, zero at the left edge."""
        out = []
        cum = rat(0)
        for j, p in enumerate(self.pieces):
            ip = _pint(p)
            ip[0] += cum - _peval(ip, self.breakpoints[j])
            out.append(ip)
            cum = _peval(ip, self.breakpoints[j + 1])
        return out, cum

    # -- convolution --------------------------------------------------------

    def convolve_with_box(self, halfwidth) -> "PiecewisePolynomial":
        """x -> integral of self over [x - h, x + h], exactly, up to SIZE_GUARD_DEFAULT breakpoints."""
        h = rat(halfwidth)
        if h <= 0:
            raise ValueError("halfwidth must be positive")
        if not self.pieces:
            return self
        bps = self.breakpoints
        newbp = sorted(set([b - h for b in bps] + [b + h for b in bps]))
        if len(newbp) > SIZE_GUARD_DEFAULT:
            raise SplineSizeError("convolution would produce %d breakpoints (cap %d); use pruned point evaluation "
                                  "instead" % (len(newbp), SIZE_GUARD_DEFAULT))
        anti, total = self._cumulative()

        def shifted_cumulative(lo, hi, shift):
            # polynomial in x equal to G(x + shift) on (lo, hi); the
            # breakpoint union guarantees (lo+shift, hi+shift) meets no
            # breakpoint of G, so one piece (or a constant tail) covers it.
            a, b = lo + shift, hi + shift
            if b <= bps[0]:
                return [rat(0)]
            if a >= bps[-1]:
                return [total]
            j = bisect.bisect_right(bps, a) - 1
            j = min(max(j, 0), len(anti) - 1)
            return _pshift(anti[j], shift)

        pieces = []
        for j in range(len(newbp) - 1):
            lo, hi = newbp[j], newbp[j + 1]
            pieces.append(tuple(_psub(shifted_cumulative(lo, hi, h), shifted_cumulative(lo, hi, -h))))
        return PiecewisePolynomial(tuple(newbp), tuple(pieces))

    def scaled(self, factor) -> "PiecewisePolynomial":
        f = rat(factor)
        return PiecewisePolynomial(
            self.breakpoints, tuple(tuple(c * f for c in p) for p in self.pieces)
        )

    # -- serialization ------------------------------------------------------

    def to_csv(self) -> str:
        """One row per piece: x_lo, x_hi, c0, c1, ..., c_d ("p/q" fields)."""
        lines = []
        for j, p in enumerate(self.pieces):
            cells = [rat_str(self.breakpoints[j]), rat_str(self.breakpoints[j + 1])]
            cells += [rat_str(c) for c in p]
            lines.append(",".join(cells))
        return "\n".join(lines) + ("\n" if lines else "")


def box(halfwidth) -> PiecewisePolynomial:
    """Unit-mass-per-unit-scale box: value 1/h on [-h, h].

    This is the normalized-frequency transform of a single sinc factor
    with scale h, so box(h)(0) = 1/h and integral(box(h)) = 2.
    """
    h = rat(halfwidth)
    if h <= 0:
        raise ValueError("halfwidth must be positive")
    return PiecewisePolynomial((-h, h), ((1 / h,),))
