"""Exact rational scalars.

All exact computations in this package are carried by ``fractions.Fraction``,
which already guarantees the canonical form we need (positive denominator,
gcd-reduced after every operation).  This module adds the parsing and
formatting conventions used at the package boundary: rationals are written
as ``"p/q"`` (or a bare integer ``"p"``), and decimal literals like ``"0.5"``
are parsed exactly as p/10^m, never through binary floating point.  A
parsed literal may be at most ``_MAX_LITERAL_DIGITS`` characters long, with a
decimal exponent at most that large, so its numerator and denominator have
at most about twice that many digits.  On the way out, an integer with more
decimal digits than the interpreter's int-to-str limit is refused with
``CapacityExceeded`` before any conversion is tried, and a value with a
lower bound past that limit is refused by the same record before it is
computed.
"""

from __future__ import annotations

import re
import sys
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


def check_decimal_digits(value: int) -> int:
    """Return ``value`` if ``str`` can render it, else raise CapacityExceeded.

    ``str`` refuses integers with more decimal digits than
    ``sys.get_int_max_str_digits()``, that is |value| >= 10^limit.  The bit
    length settles every case but those within a few bits of 10^limit.
    """
    limit = sys.get_int_max_str_digits()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
        raise _too_many_digits(limit)
    return value


def check_log10_bound(log10_lower: float) -> None:
    """Raise ``check_decimal_digits``'s CapacityExceeded, before the value
    exists, for a value whose log10 is at least ``log10_lower``.

    Only a bound past the limit by more than one digit refuses: a bound
    summed from float logs is off by far less than that, so a value that
    ``str`` can render is never refused here.
    """
    limit = sys.get_int_max_str_digits()
    if limit and log10_lower > limit + 1:
        raise _too_many_digits(limit)


def _too_many_digits(limit: int) -> CapacityExceeded:
    return CapacityExceeded(f"exact output has more than {limit} decimal digits (the int-to-str limit)")


def format_rational(value: Fraction) -> str:
    """Render as "p/q", or bare "p" when the denominator is 1.  Exact."""
    check_decimal_digits(value.numerator)
    check_decimal_digits(value.denominator)
    return str(value)
