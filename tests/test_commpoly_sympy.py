"""CommPoly products and ``sparse.substitute`` (what ``Automorphism.apply``
runs, here on A(0,3)) against sympy; the central Jacobian's sympy check is in
test_properties.py.

sympy is a test-only oracle: each case is rebuilt as a sympy expression,
computed there, expanded and read back into an exponent -> Fraction map.
The library must agree on the values and keep its coefficients canonical
(int when integral, Fraction otherwise)."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import CommPoly, WeylElement, WeylSignature
from lndcalc.sparse import substitute
from support import is_canonical, random_comm

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x1:4")


def _to_sympy(p: CommPoly):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(v ** e for v, e in zip(X, exps)))
        for exps, c in p.terms.items()
    ))


def _from_sympy(expr, num_vars: int) -> dict:
    out: dict[tuple, Fraction] = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        if term == 0:
            continue
        coeff, rest = term.as_coeff_Mul()
        powers = rest.as_powers_dict()
        exps = tuple(int(powers.get(v, 0)) for v in X[:num_vars])
        out[exps] = out.get(exps, Fraction(0)) + Fraction(int(coeff.p), int(coeff.q))
    return {e: c for e, c in out.items() if c}


def _check(got, expr) -> None:
    assert got.terms == _from_sympy(expr, len(got.generators()))
    assert all(is_canonical(c) for c in got.terms.values())


def _cancelling_pairs(mask=frozenset()):
    """Pairs whose products have coefficients cancelling to integers
    (1/2*2, 1/3 + 2/3) next to ones that stay rational."""
    x1, x2 = CommPoly.variable(3, 0, mask), CommPoly.variable(3, 1, mask)
    third = Fraction(1, 3)
    return [
        (x1.scale(Fraction(1, 2)), x2.scale(2)),
        (x1.scale(third) + x2.scale(2 * third), x1 + x2),
        (x1.scale(third) + x2, x1.scale(Fraction(3, 4)) - x2.scale(Fraction(5, 2))),
    ]


@pytest.mark.parametrize("mask", [frozenset(), frozenset({0})])
def test_products_match_sympy(mask):
    rng = Random(109)
    unit = CommPoly.monomial(3, (1, 0, 0), 1, mask) ** -1 if mask else CommPoly.one(3)
    pairs = _cancelling_pairs(mask) + [
        (random_comm(rng, 3, 4, 5, mask) * unit, random_comm(rng, 3, 3, 5, mask))
        for _ in range(15)
    ]
    for a, b in pairs:
        _check(a * b, _to_sympy(a) * _to_sympy(b))
    one = (pairs[1][0] * pairs[1][1]).terms[(1, 1, 0)]
    assert one == 1 and type(one) is int


def test_substitute_matches_sympy():
    rng = Random(110)
    cases = [(a * b, [a, b, CommPoly.variable(3, 2)]) for a, b in _cancelling_pairs()]
    for _ in range(12):
        cases.append((random_comm(rng, 3, 3), [random_comm(rng, 3, 2) for _ in range(3)]))
    for p, images in cases:
        expr = _to_sympy(p).subs(dict(zip(X, map(_to_sympy, images))), simultaneous=True)
        _check(substitute(_on_a03(p), [_on_a03(f) for f in images]), expr)


def _on_a03(p: CommPoly) -> WeylElement:
    return WeylElement(WeylSignature(0, 3), p.terms)
