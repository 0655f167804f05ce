"""The Taylor closed form of an automorphism's series on P_m, kept as an
oracle.

On P_m (n = 0) an automorphism s is the series

    s = sum_alpha (s(x) - x)^alpha / alpha! * d^alpha,

Taylor's formula at x in the direction s(x) - x.  ``aut_to_series`` used to
compute exactly this, and refused every n > 0; it now solves the table of s
layer by layer on every A(n, m) (``map_to_series``), so the closed form
checks that solve on P_m.
"""

from fractions import Fraction

from lndcalc import WeylElement
from lndcalc.multiindex import iter_upto, multi_factorial
from lndcalc.weyl import weyl_mul


def closed_form_series(aut, max_order: int) -> dict:
    """{alpha: (s(x) - x)^alpha / alpha!} over |alpha| <= max_order, zero
    coefficients left out; s must live on P_m."""
    sig = aut.signature
    assert sig.n == 0, "the closed form holds on P_m only"
    diffs = [aut.images[i] - WeylElement.generator(sig, i) for i in range(sig.s)]
    coeffs = {}
    for alpha in iter_upto(sig.s, max_order):
        piece = WeylElement.one(sig)
        for i, e in enumerate(alpha):
            for _ in range(e):
                piece = weyl_mul(piece, diffs[i])
        piece = piece * Fraction(1, multi_factorial(alpha))
        if not piece.is_zero():
            coeffs[alpha] = piece
    return coeffs
