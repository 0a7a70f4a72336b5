"""Exact rational arithmetic helpers.

All quantities in the scheduler and its checkers are exact rationals backed by
:class:`fractions.Fraction`: normalized num/den with den > 0 and gcd 1,
arbitrary-precision integers underneath, and comparisons done by
cross-multiplication. No floating point is used anywhere in the core; the only
decimal output is a display-only string produced by integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Rational", "parse_integer", "parse_rational", "format_rational", "decimal_str"]

Rational = Fraction


def parse_integer(text: str) -> int:
    """Parse an optional sign and ASCII digits exactly.

    Raises ValueError otherwise; int() would also take "1_0", non-ASCII
    digits and surrounding blanks.
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_rational(value: int | str | Fraction) -> Fraction:
    """Parse an int, an integer string, or a "num/den" string exactly.

    Integers are an optional sign and ASCII digits only. Raises ValueError
    for malformed input, a zero denominator, or a float (floats are rejected
    so inexact values can never sneak in).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        num_text, slash, den_text = value.strip().partition("/")
        try:
            num = parse_integer(num_text)
            den = parse_integer(den_text) if slash else 1
        except ValueError:
            raise ValueError(f"not a rational: {value!r}") from None
        if den == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(num, den)
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> int | str:
    """Canonical serialized form: a bare int when integral, else "num/den"."""
    if value.denominator == 1:
        return int(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal_str(value: Fraction, places: int = 6) -> str:
    """Fixed-point decimal string, computed with integers only.

    Rounds half away from zero. Display convenience only; never compared.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    sign = "-" if value < 0 else ""
    num = abs(value.numerator)
    den = value.denominator
    scaled = num * 10**places
    quotient, remainder = divmod(scaled, den)
    if 2 * remainder >= den:
        quotient += 1
    if places == 0:
        return f"{sign}{quotient}"
    whole, frac = divmod(quotient, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
