"""Shared canonical coefficient and text form.

A coefficient of any of the three carriers is an ``int`` when it is
integral and a ``Fraction`` with denominator > 1 otherwise (``canonical``);
the two compare and hash equal and print the same, so the form is invisible
outside the carriers but keeps integer arithmetic off ``Fraction``.

Terms arrive already sorted; ``render_terms`` only renders signs,
coefficients and separators:  coefficients as reduced fractions ("3/2"), "*"
between a coefficient and its monomial, explicit " + " / " - " separators, a
bare "-" prefix on a leading negative term, and "0" for the zero element.
A coefficient past the integer-text limit (``sys.get_int_max_str_digits()``,
lifted by PYTHONINTMAXSTRDIGITS=0) is a CapExceededError.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import CapExceededError

Scalar = Fraction | int


def canonical(value) -> Scalar:
    """The canonical form of a rational: ``int`` when integral, else a
    ``Fraction`` (which has denominator > 1)."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def render_terms(items: list[tuple[str, Scalar]]) -> str:
    """items: (monomial text, coefficient) pairs in final order.

    The monomial text is "" for the constant term.  Coefficients are nonzero.
    """
    if not items:
        return "0"
    parts: list[str] = []
    try:
        for monomial, coeff in items:
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if monomial == "":
                body = str(mag)
            elif mag == 1:
                body = monomial
            else:
                body = f"{mag}*{monomial}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
    except ValueError:  # str(int) refused a coefficient past the limit
        raise CapExceededError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                               "digits; PYTHONINTMAXSTRDIGITS=0 lifts the limit") from None
    return "".join(parts)
