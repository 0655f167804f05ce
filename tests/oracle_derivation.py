"""Reference Leibniz extension of a derivation of A(n, m) from its values on
the generators.

Each normal monomial x_1^e_1 * ... * x_s^e_s is derived factor by factor,

    D(f g) = D(f) g + f D(g),   D(x_i^e) = sum_j x_i^j v_i x_i^(e-1-j),

with every product formed by ``weyl_mul``.  It uses nothing but the
product and the values, so it checks ``Derivation.apply``, which runs the
descriptor ad(u) + sum_l v_{2n+l} d_{2n+l} instead.
"""

from lndcalc import WeylElement
from lndcalc.weyl import weyl_mul


def leibniz_apply(values, a: WeylElement) -> WeylElement:
    """D(a) for the derivation with D(x_i) = values[i]."""
    sig = a.signature
    gen_power: dict[tuple[int, int], WeylElement] = {}
    der_power: dict[tuple[int, int], WeylElement] = {}

    def xpow(i: int, e: int) -> WeylElement:
        key = (i, e)
        if key not in gen_power:
            exps = tuple(e if j == i else 0 for j in range(sig.s))
            gen_power[key] = WeylElement.monomial(sig, exps)
        return gen_power[key]

    def dxpow(i: int, e: int) -> WeylElement:
        key = (i, e)
        if key not in der_power:
            total = WeylElement.zero(sig)
            for j in range(e):
                piece = values[i]
                if j:
                    piece = weyl_mul(xpow(i, j), piece)
                if e - 1 - j:
                    piece = weyl_mul(piece, xpow(i, e - 1 - j))
                total = total + piece
            der_power[key] = total
        return der_power[key]

    out = WeylElement.zero(sig)
    for exps, c in a.terms.items():
        value = WeylElement.one(sig)
        deriv = WeylElement.zero(sig)
        for i, e in enumerate(exps):
            if not e:
                continue
            f = xpow(i, e)
            deriv = weyl_mul(deriv, f) + weyl_mul(value, dxpow(i, e))
            value = weyl_mul(value, f)
        out = out + deriv * c
    return out
