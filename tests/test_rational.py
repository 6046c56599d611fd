"""Rational parsing/formatting conventions at the package boundary."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rlah.errors import CapacityExceeded, InvalidParameter
from rlah.rational import _MAX_LITERAL_DIGITS, as_rational, check_decimal_digits, format_rational


def test_parse_forms():
    assert as_rational("1/2") == F(1, 2)
    assert as_rational("0.5") == F(1, 2)
    assert as_rational("7") == 7
    assert as_rational(" -3/4 ") == F(-3, 4)
    assert as_rational(5) == 5
    assert as_rational(F(2, 6)) == F(1, 3)


def test_decimal_is_exact_base_ten():
    assert as_rational("0.1") == F(1, 10)  # not the binary 0.1
    assert as_rational("2.875") == F(23, 8)


def test_rejections():
    with pytest.raises(InvalidParameter):
        as_rational(0.5)
    with pytest.raises(InvalidParameter):
        as_rational("1/0")
    with pytest.raises(InvalidParameter):
        as_rational("pi")
    with pytest.raises(InvalidParameter):
        as_rational(True)
    with pytest.raises(InvalidParameter):
        as_rational(None)


def test_literal_size_cap():
    cap = _MAX_LITERAL_DIGITS
    assert as_rational("7" * cap) == int("7" * cap)
    assert as_rational(f"1e{cap}") == 10 ** cap
    for text in ("7" * (cap + 1), f"1e{cap + 1}", f"1e-{cap + 1}", "1e999999", "1.5E+999999999"):
        with pytest.raises(CapacityExceeded):
            as_rational(text)


def test_format():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-3, 7)) == "-3/7"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_roundtrip(num, den):
    q = F(num, den)
    assert as_rational(format_rational(q)) == q


def test_decimal_digit_boundary_is_ten_to_the_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for sign in (1, -1):
            assert check_decimal_digits(sign * (10**640 - 1)) == sign * (10**640 - 1)
            with pytest.raises(CapacityExceeded):
                check_decimal_digits(sign * 10**640)
    finally:
        sys.set_int_max_str_digits(saved)
