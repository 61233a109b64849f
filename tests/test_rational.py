import decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sincprod.rational import Rat, rat, rat_str, to_decimal


def test_rat_parsing():
    assert rat("88069/45045") == Fraction(88069, 45045)
    assert rat("-3/9") == Fraction(-1, 3)
    assert rat(7) == 7
    assert rat("0.25") == Fraction(1, 4)
    assert rat(0.3) == Fraction(3, 10)  # decimal round-trip, not binary
    assert rat(Fraction(2, 6)) == Fraction(1, 3)
    assert rat(1, 3) == Fraction(1, 3)


def test_rat_str_always_has_denominator():
    assert rat_str(rat(1)) == "1/1"
    assert rat_str(rat(-88069, 45045)) == "-88069/45045"


def test_rat_str_accepts_int_and_str():
    assert rat_str(7) == "7/1"
    assert rat_str(-2) == "-2/1"
    assert rat_str("-3/9") == "-1/3"
    assert rat_str("0.25") == "1/4"


def test_rat_str_huge_numerator():
    x = rat(10**6000 + 1, 3)
    s = rat_str(x)
    assert s.endswith("/3") and len(s) > 6000


def test_to_decimal_known_values():
    assert to_decimal(rat(88069, 45045), 5) == "1.9551"
    assert to_decimal(rat(91072, 45045), 5) == "2.0218"
    assert to_decimal(rat(0), 7) == "0"
    assert to_decimal(rat(1), 5) == "1"
    assert to_decimal(rat(-1, 8), 3) == "-0.125"
    assert to_decimal(rat(1, 10**140), 3) == "1e-140"
    assert to_decimal(rat(999999, 1000), 3) == "1e+3"
    assert to_decimal(rat(25, 10), 1) == "2"  # half-to-even
    assert to_decimal(rat(35, 10), 1) == "4"


def _decimal_oracle(p, q, digits):
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(p) / decimal.Decimal(q)
    return d


@settings(max_examples=300)
@given(
    p=st.integers(min_value=-(10**25), max_value=10**25),
    q=st.integers(min_value=1, max_value=10**25),
    digits=st.integers(min_value=1, max_value=20),
)
def test_to_decimal_matches_decimal_module(p, q, digits):
    got = to_decimal(rat(p, q), digits)
    want = _decimal_oracle(p, q, digits)
    assert decimal.Decimal(got) == want


def test_to_decimal_rejects_zero_digits():
    with pytest.raises(ValueError):
        to_decimal(rat(1), 0)
