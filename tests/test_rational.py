import decimal
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("text, want", [("1/0", ZeroDivisionError), ("1/-3", Fraction(-1, 3)), (" 2/4 ", Fraction(1, 2)),
                                        ("-0/5", Fraction(0)), ("1/2/3", ValueError), ("1.5/2", ValueError)])
def test_rat_reads_p_over_q(text, want):
    if isinstance(want, Fraction):
        assert rat(text) == want and type(rat(text)) is Fraction
    else:
        with pytest.raises(want):
            rat(text)


def test_rat_refuses_a_decimal_exponent_past_the_cap():
    assert rat("1e999999") == 10**999999 and rat("-1.5E-999_999") == Fraction(-3, 2 * 10**999999)
    assert rat("2.5e0001000") == Fraction(5, 2) * 10**1000  # leading zeros are not significant
    t0 = time.perf_counter()
    for text in ["1e1000000", "-2.5E-1000000", "1e+1_000_000", ".5e99999999"]:
        with pytest.raises(ValueError, match="^an exponent past 999999$"):
            rat(text)
    assert time.perf_counter() - t0 < 1
    for text in ["1e1000000x", "e1000000", "1.2.3e1000000", "1e+-1000000", "1 e1000000"]:  # Fraction's own message
        with pytest.raises(ValueError) as refused:
            rat(text)
        assert str(refused.value) == "Invalid literal for Fraction: %r" % text


def test_rat_is_the_stdlib_fraction():
    import sincprod

    assert sincprod.Rat is Fraction
    assert type(rat("0.25")) is Fraction and type(rat(0.3)) is Fraction

    class Sub(Fraction):
        pass

    assert type(rat(Sub(2, 6))) is Fraction and rat(Sub(2, 6)) == Fraction(1, 3)


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


def test_rat_str_past_the_int_str_digit_limit():
    # at the default limit of 4,300 digits "%d" refuses a 5,000-digit
    # numerator, and rat_str must lift the limit and print it all
    saved = sys.get_int_max_str_digits()
    x = Fraction(10**4999 + 3, 7**1000)
    sys.set_int_max_str_digits(0)
    want = str(x.numerator) + "/" + str(x.denominator)
    try:
        sys.set_int_max_str_digits(4300)
        assert rat_str(x) == want and len(want) > 5000
    finally:
        sys.set_int_max_str_digits(saved)


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
    assert to_decimal(rat(1, 3 * 10**1500), 12) == "3.33333333333e-1501"
    assert to_decimal(rat(10**1500, 3), 12) == "3.33333333333e+1499"
    assert to_decimal(rat(5, 4), 2) == "1.2"  # an exact tie, to even
    assert to_decimal(rat(-15, 4), 2) == "-3.8"
    assert to_decimal(rat(1000000001, 800000000), 2) == "1.3"  # 1.25000000125: only the remainder breaks the tie
    assert to_decimal(rat(10**18, 10**17 + 1), 12) == "10"  # 9.99999999999999999..., carried to 10
    assert to_decimal(rat(10**1518, 10**17 + 1), 12) == "1e+1501"
    assert to_decimal(rat(1, 10**4), 3) == "0.0001"
    assert to_decimal(rat(1, 10**5), 3) == "1e-5"
    assert to_decimal(rat(123), 3) == "123"
    assert to_decimal(rat(1234), 3) == "1.23e+3"


def _decimal_oracle(p, q, digits):
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(p) / decimal.Decimal(q)
    return d


@settings(max_examples=300)
@given(
    p=st.integers(min_value=-(10**700), max_value=10**700),
    q=st.integers(min_value=1, max_value=10**700),
    digits=st.integers(min_value=1, max_value=100),
)
@example(p=1, q=10**700, digits=100)  # bit lengths 2,326 apart, both ways
@example(p=-(10**700), q=3, digits=12)
@example(p=3**1400, q=1, digits=1)
@example(p=-1, q=7**828, digits=37)
def test_to_decimal_matches_decimal_module(p, q, digits):
    got = to_decimal(rat(p, q), digits)
    want = _decimal_oracle(p, q, digits)
    assert decimal.Decimal(got) == want


def test_to_decimal_rejects_zero_digits():
    with pytest.raises(ValueError):
        to_decimal(rat(1), 0)
