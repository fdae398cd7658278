"""Parsing and formatting of exact rationals as "p/q" strings."""

from __future__ import annotations

from fractions import Fraction


def format_rational(x: int | Fraction) -> str:
    """Render as "p/q", omitting the denominator when it is 1."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals."""
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError(f"empty rational list: {text!r}")
    return tuple(parse_rational(part) for part in items)

