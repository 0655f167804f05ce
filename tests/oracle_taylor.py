"""The former Taylor decomposition, kept as an oracle.

``LndSystem.taylor_decompose`` used to walk the table of iterated
derivatives ``d^alpha a`` layer by layer and call ``phi`` once per entry,
so phi re-derived, in every later direction, values the table already held.
It now stages the projections over that one table.  ``taylor_decompose``
below is the old loop, built on the public ``phi`` and the layer walk that
``order`` still uses, so the tests can compare coefficient maps.
"""

from fractions import Fraction

from lndcalc import TaylorCoefficients
from lndcalc.multiindex import multi_factorial


def taylor_decompose(system, a) -> TaylorCoefficients:
    """alpha -> phi(d^alpha a) / alpha!, one phi call per table entry."""
    coeffs = {}
    if not a.is_zero():
        for _, layer in system._layers(a):
            for alpha, val in layer.items():
                c = system.phi(val) * Fraction(1, multi_factorial(alpha))
                if not c.is_zero():
                    coeffs[alpha] = c
    return TaylorCoefficients(system.s, coeffs)
