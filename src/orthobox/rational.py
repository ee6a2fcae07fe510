"""Exact rational parsing and rendering helpers.

All core verdicts in this package are computed over ``fractions.Fraction``;
floats appear only at output boundaries.
"""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse a probability written as ``"num/den"`` or a plain integer/decimal string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Render as ``num/den`` (``num`` alone for integers)."""
    if type(value) is not Fraction:  # rebuilding a Fraction would cost more than rendering it
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_decimal(value: Fraction) -> str:
    """Render with 12 significant digits, for human-facing tables."""
    return f"{float(value):.12g}"


def check_probability(value: Fraction, what: str = "probability") -> Fraction:
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError(f"{what} {format_rational(value)} outside [0, 1]")
    return value
