"""Exact rational scalars.

All exact computations in this package are carried by ``fractions.Fraction``,
which already guarantees the canonical form we need (positive denominator,
gcd-reduced after every operation).  This module adds the parsing and
formatting conventions used at the package boundary: rationals are written
as ``"p/q"`` (or a bare integer ``"p"``), and decimal literals like ``"0.5"``
are parsed exactly as p/10^m, never through binary floating point.  A
parsed literal may be at most ``_MAX_LITERAL_DIGITS`` characters long, with a
decimal exponent at most that large, so its numerator and denominator have
at most about twice that many digits.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import CapacityExceeded, InvalidParameter

RationalLike = Union[int, str, Fraction]

_MAX_LITERAL_DIGITS = 1000
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+(?:_[0-9]+)*)$")


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact Fraction.

    Accepts Fraction, int, and strings in "p/q" or decimal form.  Floats are
    rejected: a binary float rarely equals the decimal the caller had in
    mind, and exactness is the whole point of this carrier.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidParameter(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _EXPONENT.search(text)
        if len(text) > _MAX_LITERAL_DIGITS or (
            exponent and abs(int(exponent.group(1))) > _MAX_LITERAL_DIGITS
        ):
            raise CapacityExceeded(
                f"rational literal exceeds the {_MAX_LITERAL_DIGITS}-digit cap: {text[:40]!r}"
            )
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"cannot parse rational from {value!r}") from exc
    if isinstance(value, float):
        raise InvalidParameter(
            f"refusing float {value!r}; pass a string like '1/2' or a Fraction"
        )
    raise InvalidParameter(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or bare "p" when the denominator is 1.  Exact."""
    return str(value)
