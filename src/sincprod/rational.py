"""Exact rational scalars and decimal rendering.

All exact computation in this package runs on arbitrary-precision
rationals kept in lowest terms with positive denominator.  Rat is the
stdlib fractions.Fraction; the heavy exact work runs on Python integers
and meets Rat at the report boundary.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

Rat = Fraction


def rat(value, den=None):
    """Build a rational from int, str ("p/q" or decimal), Fraction or Rat."""
    if den is not None:
        return Rat(value) / Rat(den)
    if type(value) is Rat:
        return value
    if isinstance(value, str):
        s = value.strip()
        _allow_digits(len(s))
        if "/" in s:
            p, q = s.split("/", 1)
            return Rat(int(p), int(q))
        if "." in s or "e" in s or "E" in s:
            return Fraction(s)
        return Rat(int(s))
    if isinstance(value, float):
        # decimal round-trip, so rat(0.3) == 3/10 rather than the binary float
        return Fraction(repr(value))
    return Rat(value)  # a Fraction subclass comes back a Fraction


def _allow_digits(need: int) -> None:
    # int <-> str conversion refuses beyond sys.get_int_max_str_digits();
    # raise the cap lazily so 100000-digit rationals still round-trip.
    # A cap of 0 means unlimited.
    if 0 < sys.get_int_max_str_digits() < need:
        sys.set_int_max_str_digits(need + 64)


def int_str(n: int) -> str:
    """Decimal string of an int of any size."""
    try:
        return str(n)
    except ValueError:  # past the live int/str digit limit: lift it, then retry
        _allow_digits(int(abs(n).bit_length() * 0.30103) + 16)
        return str(n)


def rat_str(x) -> str:
    """Serialize as "p/q", always including the denominator."""
    if type(x) is not Rat:
        x = rat(x)
    return ratio_str(x.numerator, x.denominator, 1)


def ratio_str(p: int, q: int, g: int = 0) -> str:
    """rat_str(Rat(p, q)) for integers p and q > 0, over g or else their gcd, with no Rat."""
    g = g or math.gcd(p, q)
    try:
        return "%d/%d" % (p // g, q // g)
    except ValueError:  # past the int/str digit limit
        return int_str(p // g) + "/" + int_str(q // g)


def _decimal_exponent(p: int, q: int) -> int:
    """Largest e with 10^e <= p/q, for positive integers p, q."""
    e = int((p.bit_length() - q.bit_length()) * 0.30103)

    def at_least(k):  # p/q >= 10^k
        if k >= 0:
            return p >= q * 10**k
        return p * 10**-k >= q

    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    return e


def to_decimal(x, significant_digits: int) -> str:
    """Correctly rounded decimal string of a rational, round-half-to-even.

    Plain notation is used when the exponent lies in [-4, digits-1],
    otherwise scientific notation like "1.484870809e-138".  Trailing
    zeros of the fractional part are trimmed ("1/1" renders as "1").
    """
    if significant_digits < 1:
        raise ValueError("significant_digits must be >= 1")
    x = rat(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    p, q = abs(x.numerator), x.denominator
    e = _decimal_exponent(p, q)
    shift = significant_digits - 1 - e
    if shift >= 0:
        a, r = divmod(p * 10**shift, q)
        d = q
    else:
        d = q * 10**-shift
        a, r = divmod(p, d)
    if 2 * r > d or (2 * r == d and a & 1):
        a += 1
    if a == 10**significant_digits:
        a //= 10
        e += 1
    digits = int_str(a)
    if -4 <= e <= significant_digits - 1:
        if e >= 0:
            int_part, frac = digits[: e + 1], digits[e + 1 :]
        else:
            int_part, frac = "0", "0" * (-e - 1) + digits
        frac = frac.rstrip("0")
        return sign + int_part + ("." + frac if frac else "")
    frac = digits[1:].rstrip("0")
    mant = digits[0] + ("." + frac if frac else "")
    return sign + mant + "e" + ("+" if e >= 0 else "-") + str(abs(e))
