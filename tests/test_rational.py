from fractions import Fraction

import pytest

from flowreject.rational import decimal_str, format_rational, parse_rational


def test_parse_integer():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-3") == Fraction(-3)


def test_parse_ratio_string():
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("-5/10") == Fraction(-1, 2)


def test_parse_fraction_passthrough():
    assert parse_rational(Fraction(3, 4)) == Fraction(3, 4)


@pytest.mark.parametrize(
    "bad",
    ["", "1/0", "a/b", "1.5", "1/2/3", None, 1.5, True, "1_0", "1/2_0", "\u0661\u0662", "\u00b2"],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_integer_stays_int():
    assert format_rational(Fraction(4)) == 4
    assert isinstance(format_rational(Fraction(4)), int)


def test_format_ratio_string():
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"


def test_format_parse_roundtrip():
    for num in range(-6, 7):
        for den in range(1, 7):
            x = Fraction(num, den)
            assert parse_rational(format_rational(x)) == x


def test_decimal_str_rounding():
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(2, 3)) == "0.666667"
    assert decimal_str(Fraction(-1, 3)) == "-0.333333"
    assert decimal_str(Fraction(5)) == "5.000000"


def test_decimal_str_half_away_from_zero():
    assert decimal_str(Fraction(1, 2), places=0) == "1"
    assert decimal_str(Fraction(-1, 2), places=0) == "-1"
    assert decimal_str(Fraction(25, 1000), places=2) == "0.03"


def test_decimal_str_places():
    assert decimal_str(Fraction(1, 8), places=3) == "0.125"
    with pytest.raises(ValueError):
        decimal_str(Fraction(1), places=-1)
