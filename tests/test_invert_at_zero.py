"""Inversion from constant terms against the table-driven Taylor path.

``invert`` reads the constant term eps(c_alpha) of each Taylor coefficient
off one walk of the derivative table, pairing the terms in x_1..x_n of each
entry with the terms in the momenta alone of the slice products, the slices
taken mod the centre (``LndSystem._taylor_at_zero``); on P_m that is
evaluation at 0.  The constant terms of ``taylor_decompose`` are the oracle."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from lndcalc import (
    CapExceededError,
    LndError,
    LndSystem,
    WeylElement,
    WeylSignature,
    aut_compose,
    invert,
    standard_system,
    twisted_partials,
    weyl,
)
from lndcalc.multiindex import multi_factorial
from support import (
    A10_P5Q4,
    MAP_A11,
    MAP_A20,
    NAGATA,
    is_canonical,
    random_tame_poly,
    random_triangular_a11,
    random_weyl,
    sheared_a10,
    verified_map,
)


def _unchecked(aut, nilpotence_cap=256):
    return LndSystem(twisted_partials(aut), list(aut.images),
                     nilpotence_cap=nilpotence_cap, check=False)


def _maps():
    """Seeded tame maps on P_2..P_4 (constant shifts move the images off 0,
    some variables are scaled) and the Nagata map, with their inverses."""
    rng = Random(811)
    cases = [random_tame_poly(rng, m, steps=2) for m in (2, 3, 4) for _ in range(4)]
    cases += [random_tame_poly(rng, 2, steps=3) for _ in range(2)]
    nagata = verified_map(*NAGATA)
    return cases + [(nagata, None)]


def _weyl_systems():
    """Twisted systems of maps on A(1,0), A(1,1), A(2,0) and A(1,2), whose
    images move off 0 and mix coordinates, momenta and centre, and the
    standard systems of those signatures."""
    rng = Random(813)
    a10 = aut_compose(verified_map(1, 0, "x1 -> x1 + x2^2 + 1; x2 -> x2"),
                      verified_map(1, 0, "x1 -> x1; x2 -> x2 + 3*x1^2 - 2"))
    a12 = aut_compose(
        verified_map(1, 2, "x1 -> x1 + x2*x3 + x4^2; x2 -> x2; x3 -> x3 + x4 + 1; "
                           "x4 -> x4 - 1"),
        verified_map(1, 2, "x1 -> x1; x2 -> x2 + x1^2*x4 + 1/2*x3; x3 -> x3; x4 -> x4"))
    maps = [a10, verified_map(*MAP_A11), random_triangular_a11(rng),
            verified_map(*MAP_A20), a12]
    systems = [_unchecked(aut) for aut in maps]
    return systems + [standard_system(WeylElement.one(WeylSignature(n, m)))
                      for n, m in ((1, 0), (1, 1), (2, 0), (1, 2))]


def _at_zero(system, a):
    return {alpha: c.constant_term()
            for alpha, c in system.taylor_decompose(a).items()
            if c.constant_term()}


def _evaluated_at_zero(system, a):
    """The P_m rule on any signature: entries and slices replaced by their
    constant terms (correct only where evaluation at 0 is multiplicative),
    c_alpha = sum_(gamma >= alpha) (d^gamma a)(0) (-y)^(gamma-alpha)
    / (alpha! (gamma-alpha)!) over the walk's table, with y = t(0)."""
    y = [t.constant_term() for t in system.slices]
    out = {}
    for gamma, entry in system._table(system.s, a):
        for beta in product(*(range(g + 1) for g in gamma)):
            alpha = tuple(g - b for g, b in zip(gamma, beta))
            term = Fraction(entry.constant_term(),
                            multi_factorial(alpha) * multi_factorial(beta))
            for yi, b in zip(y, beta):
                term *= (-yi) ** b
            out[alpha] = out.get(alpha, 0) + term
    return {alpha: c for alpha, c in out.items() if c}


def _verdict(call):
    try:
        call()
    except LndError as exc:
        return type(exc)
    return None


def test_constant_terms_equal_the_table_path():
    rng = Random(812)
    maps = _maps()
    # y = s(x)(0) != 0 makes the resummation over gamma >= alpha non-trivial
    assert sum(any(img.constant_term() for img in aut.images) for aut, _ in maps) >= 8
    for aut, _ in maps:
        sig = aut.signature
        system = _unchecked(aut)
        gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
        for a in gens + [random_weyl(rng, sig, 2, 3) for _ in range(2)]:
            got = system._taylor_at_zero(a)
            assert got == _at_zero(system, a), (str(aut), str(a))
            assert all(is_canonical(c) for c in got.values())
    # on A(n, m) with n > 0 the walk cuts slices mod the centre and entries
    # to x_1..x_n; evaluating at 0, the P_m rule, differs in some cases
    differ = 0
    for system in _weyl_systems():
        for a in [random_weyl(rng, system._one.signature, 3, 4) for _ in range(2)]:
            got = system._taylor_at_zero(a)
            assert got == _at_zero(system, a), ([str(t) for t in system.slices], str(a))
            assert all(is_canonical(c) for c in got.values())
            differ += got != _evaluated_at_zero(system, a)
    assert differ >= 1


def test_invert_equals_the_known_inverse_and_the_table_path():
    for aut, inverse in _maps():
        sig = aut.signature
        got = invert(aut)
        if inverse is not None:
            assert got == inverse
            assert str(got) == str(inverse)
        system = _unchecked(aut)
        for i in range(sig.s):
            x = WeylElement.generator(sig, i)
            assert all(c.is_constant() for _, c in system.taylor_decompose(x).items())
            assert got.images[i] == WeylElement(sig, _at_zero(system, x))


def test_the_walk_derives_what_the_table_derives(monkeypatch):
    calls = []
    derive = LndSystem.derive

    def counted(self, i, a):
        calls.append(i)
        return derive(self, i, a)

    monkeypatch.setattr(LndSystem, "derive", counted)
    for aut, _ in _maps():
        system = _unchecked(aut)
        for i in range(aut.signature.s):
            x = WeylElement.generator(aut.signature, i)
            calls.clear()
            system.taylor_decompose(x)
            table = list(calls)
            calls.clear()
            system._taylor_at_zero(x)
            assert calls == table


def test_nilpotence_cap_below_at_and_above_the_order_raises_like_the_table():
    for aut, _ in _maps():
        system = _unchecked(aut)
        for i in range(aut.signature.s):
            x = WeylElement.generator(aut.signature, i)
            order = system.order(x)
            for cap in (order - 1, order, order + 1):
                capped = _unchecked(aut, nilpotence_cap=cap)
                expected = None if cap > order else CapExceededError
                assert _verdict(lambda: capped.taylor_decompose(x)) == expected
                assert _verdict(lambda: capped._taylor_at_zero(x)) == expected


def test_stretch_walk_reaches_the_inverse_and_certification_trips_the_cap():
    # No slice product is formed, so every coefficient comes out (the table
    # path trips DEGREE_CAP in a fold of degree 66); what is left of invert
    # on this map is certification, whose s(t(x1)) forms a degree-65 power.
    inner = verified_map(0, 3, "x1 -> x1; x2 -> x2 + x1^2; x3 -> x3 + x2^2 - x1")
    inner_inv = verified_map(0, 3, "x1 -> x1; x2 -> x2 - x1^2; "
                                   "x3 -> x3 - (x2 - x1^2)^2 + x1")
    nagata_inv = invert(verified_map(*NAGATA))
    stretch = aut_compose(verified_map(*NAGATA), inner)
    expected = aut_compose(inner_inv, nagata_inv)
    system = _unchecked(stretch)
    sig = WeylSignature(0, 3)
    for i in range(sig.s):
        got = WeylElement(sig, system._taylor_at_zero(WeylElement.generator(sig, i)))
        assert got == expected.images[i]
    with pytest.raises(CapExceededError, match="degree 65"):
        stretch.apply(expected.images[0])


def test_the_walk_forms_no_weyl_product_on_nagata(monkeypatch):
    # on P_m every pairing row is a scalar t(0)^beta, so the walk multiplies
    # no elements at all
    system = _unchecked(verified_map(*NAGATA))
    sig = WeylSignature(0, 3)
    calls = []
    mul = weyl.weyl_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(weyl, "weyl_mul", counted)
    for i in range(sig.s):
        system._taylor_at_zero(WeylElement.generator(sig, i))
    assert calls == []


def test_a10_p5q4_inverts_to_its_composed_inverse_at_a_raised_cap(monkeypatch):
    # the pairing needs pi_L(t^beta) only, never a power of a whole slice;
    # at the default cap a derive of the walk still exceeds it
    aut, inverse = sheared_a10(A10_P5Q4)
    with pytest.raises(CapExceededError, match="degree 67"):
        invert(aut)
    monkeypatch.setattr(weyl, "DEGREE_CAP", 400)
    assert str(invert(aut)) == str(inverse)
