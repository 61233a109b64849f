"""Exact rational scalars and decimal rendering.

All exact computation in this package runs on arbitrary-precision
rationals kept in lowest terms with positive denominator.  Rat is the
stdlib fractions.Fraction; the heavy exact work runs on Python integers
and meets Rat at the report boundary.

to_decimal rounds from one integer quotient p 10^s // q, with s taken
from the bit lengths of p and q through 30103 / 10^5, a ratio just above
log10(2): it leaves the quotient at least digits + 1 digits, so the
digits past the significant ones and the remainder decide the rounding,
and their count gives the exponent, with no search for it.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

Rat = Fraction
# Fraction("1e9999999") builds 10^9999999 for 10 s before anything can price it
MAX_DECIMAL_EXPONENT = 999_999


def rat(value, den=None):
    """Build a rational from int, str ("p/q" or decimal), Fraction or Rat.

    A decimal token's exponent may reach MAX_DECIMAL_EXPONENT; a well-formed
    one past it raises ValueError before Fraction builds 10^|e|.
    """
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
            head, _, tail = s.lower().partition("e")
            mantissa, exponent = (part[part[:1] in "+-" :].replace("_", "") for part in (head, tail))
            # Fraction's grammar but for where underscores sit; the rest keep Fraction's message
            well_formed = mantissa.replace(".", "", 1).isdecimal() and exponent.isdecimal()
            if well_formed and int(exponent) > MAX_DECIMAL_EXPONENT:
                raise ValueError("an exponent past %d" % MAX_DECIMAL_EXPONENT)
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


def to_decimal(x, significant_digits: int) -> str:
    """Correctly rounded decimal string of a rational, round-half-to-even.

    Plain notation is used when the exponent lies in [-4, digits-1],
    otherwise scientific notation like "1.484870809e-138".  Trailing
    zeros of the fractional part are trimmed ("1/1" renders as "1").

    One integer quotient gives both the exponent and the rounding.  With
    g = bits(p) - bits(q), |x| = p/q lies in (2^(g-1), 2^(g+1)), and
    s = digits + 2 - floor(g * 30103 / 10^5) scales it to a = floor(p 10^s / q),
    which has digits + 1 to digits + 5 digits: 30103 / 10^5 exceeds log10(2)
    by 4.4e-9, so g * 30103 / 10^5 stays within 0.7 of g log10(2) while |g|
    is below 1.6e8 bits (48 million digits).  The k digits of a past the
    first `digits`, and whether the remainder is zero, decide the rounding.
    """
    if significant_digits < 1:
        raise ValueError("significant_digits must be >= 1")
    x = rat(x)
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    p, q = abs(x.numerator), x.denominator
    s = significant_digits + 2 - (p.bit_length() - q.bit_length()) * 30103 // 10**5
    a, r = divmod(p * 10**s, q) if s >= 0 else divmod(p, q * 10**-s)
    unit, k = 10**significant_digits, 1
    while a >= unit * 10**k:
        k += 1
    a, rest = divmod(a, 10**k)
    if 2 * rest > 10**k or (2 * rest == 10**k and (r or a & 1)):
        a += 1
    e = significant_digits - 1 + k - s
    if a == unit:
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
