"""Projections phi/psi, filtration order, and the Taylor decomposition."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CapExceededError,
    CombinationDerivation,
    CommPoly,
    FreeElement,
    InnerDerivation,
    LndError,
    LndSystem,
    PartialDerivation,
    TaylorCoefficients,
    WeylElement,
    WeylSignature,
    parse_comm,
    parse_free,
    parse_weyl,
    standard_system,
)
from support import random_comm, random_free, random_weyl

A10 = WeylSignature(1, 0)
A11 = WeylSignature(1, 1)


def _p3_system():
    return standard_system(CommPoly.constant(3, 1))


def _p3_partial_system():
    """Two of the three directions: nontrivial kernel Q[x3]."""
    return LndSystem(
        [PartialDerivation(0), PartialDerivation(1)],
        [CommPoly.variable(3, 0), CommPoly.variable(3, 1)],
    )


def _a11_partial_system():
    """The two Weyl directions of A(1,1): kernel contains the center Q[x3]."""
    return LndSystem(
        [InnerDerivation(WeylElement.generator(A11, 1)),
         CombinationDerivation([(Fraction(-1), InnerDerivation(WeylElement.generator(A11, 0)))])],
        [WeylElement.generator(A11, 0), WeylElement.generator(A11, 1)],
    )


def test_standard_system_shapes():
    sys_p3 = _p3_system()
    assert sys_p3.s == 3
    for i in range(3):
        for j in range(3):
            image = sys_p3.derive(i, CommPoly.variable(3, j))
            assert image == CommPoly.constant(3, 1 if i == j else 0)

    sys_weyl = standard_system(WeylElement.one(A11))
    assert sys_weyl.s == 3
    for i in range(3):
        for j in range(3):
            image = sys_weyl.derive(i, WeylElement.generator(A11, j))
            assert image == WeylElement.constant(A11, 1 if i == j else 0)

    sys_free = standard_system(FreeElement.one(2))
    assert sys_free.s == 2
    assert sys_free.derive(0, parse_free("x1*x2*x1", 2)) == \
        parse_free("x2*x1 + x1*x2", 2)


def test_system_validation_rejects_bad_slices():
    with pytest.raises(LndError):
        LndSystem([PartialDerivation(0)], [CommPoly.variable(2, 1)])
    with pytest.raises(LndError):
        LndSystem(
            [PartialDerivation(0), PartialDerivation(0)],
            [CommPoly.variable(2, 0), CommPoly.variable(2, 1)],
        )


def test_system_validation_rejects_derivations_moving_a_unit():
    mask = frozenset({0})
    with pytest.raises(LndError, match="derivation 1 does not kill the unit x1"):
        LndSystem([PartialDerivation(0)], [CommPoly.variable(1, 0, mask)])
    # the unit is the second variable; the first direction is fine
    with pytest.raises(LndError, match="derivation 2 does not kill the unit x2"):
        LndSystem(
            [PartialDerivation(0), PartialDerivation(1)],
            [CommPoly.variable(2, 0, frozenset({1})), CommPoly.variable(2, 1, frozenset({1}))],
        )
    # derivations that kill every unit still validate
    system = LndSystem([PartialDerivation(1)], [CommPoly.variable(2, 1, mask)])
    assert system.derive(0, CommPoly.variable(2, 0, mask)).is_zero()


def test_order_examples():
    sys_p2 = standard_system(CommPoly.constant(2, 1))
    assert sys_p2.order(parse_comm("5", 2)) == 0
    assert sys_p2.order(parse_comm("x1*x2", 2)) == 2
    assert sys_p2.order(parse_comm("x1", 2)) == 1
    with pytest.raises(LndError):
        sys_p2.order(CommPoly.constant(2, 0))


def test_non_nilpotent_directions_hit_the_cap():
    # d = d1 + x2*d2 has d(x1) = 1 but d(x2) = x2 forever: not locally
    # nilpotent, caught by the construction-time probe
    d = CombinationDerivation([
        (Fraction(1), PartialDerivation(0)),
        (CommPoly.variable(2, 1), PartialDerivation(1)),
    ])
    with pytest.raises(CapExceededError):
        LndSystem([d], [CommPoly.variable(2, 0)], nilpotence_cap=16)
    # skipping validation defers the failure to order()
    sys_bad = LndSystem([d], [CommPoly.variable(2, 0)], nilpotence_cap=16,
                        check=False)
    with pytest.raises(CapExceededError):
        sys_bad.order(CommPoly.variable(2, 1))


def test_phi_examples():
    sys_p3 = _p3_system()
    assert sys_p3.phi(parse_comm("7/2", 3)) == parse_comm("7/2", 3)
    for i in range(3):
        for k in range(1, 4):
            assert sys_p3.phi(CommPoly.variable(3, i) ** k).is_zero()

    sys_weyl = standard_system(WeylElement.one(A10))
    assert sys_weyl.phi(parse_weyl("x1*x2 + 1", A10)) == WeylElement.one(A10)

    # kernel elements are fixed (partial system, kernel Q[x3])
    part = _p3_partial_system()
    y = parse_comm("x3^2 + 2*x3", 3)
    assert part.phi(y) == y
    assert part.psi(y) == y


def test_psi_mirrors_phi_on_commutative_carriers():
    rng = Random(401)
    part = _p3_partial_system()
    for _ in range(20):
        a = random_comm(rng, 3, 4)
        assert part.psi(a) == part.phi(a)
    sys_p3 = _p3_system()
    for i in range(3):
        assert sys_p3.psi(CommPoly.variable(3, i) ** 2).is_zero()


def test_projection_laws():
    rng = Random(402)
    part_comm = _p3_partial_system()
    part_weyl = _a11_partial_system()
    sys_free = standard_system(FreeElement.one(2))
    for _ in range(15):
        a = random_comm(rng, 3, 4)
        assert part_comm.phi(part_comm.phi(a)) == part_comm.phi(a)
        assert part_comm.psi(part_comm.psi(a)) == part_comm.psi(a)
        w = random_weyl(rng, A11, 3, 3)
        assert part_weyl.phi(part_weyl.phi(w)) == part_weyl.phi(w)
        assert part_weyl.psi(part_weyl.psi(w)) == part_weyl.psi(w)
        f = random_free(rng, 2, 4, 3)
        assert sys_free.phi(sys_free.phi(f)) == sys_free.phi(f)
        assert sys_free.psi(sys_free.psi(f)) == sys_free.psi(f)


def test_phi_is_a_right_module_map_over_the_kernel():
    rng = Random(403)
    part_weyl = _a11_partial_system()
    x3 = WeylElement.generator(A11, 2)
    for _ in range(10):
        a = random_weyl(rng, A11, 3, 3)
        y = x3 * x3 + x3.scale(rng.randint(1, 5))  # a kernel element
        assert part_weyl.phi(a * y) == part_weyl.phi(a) * y
        assert part_weyl.psi(y * a) == y * part_weyl.psi(a)


def test_phi_is_multiplicative_on_commutative_carriers():
    rng = Random(404)
    part = _p3_partial_system()
    full = _p3_system()
    for _ in range(10):
        a = random_comm(rng, 3, 4)
        b = random_comm(rng, 3, 4)
        assert part.phi(a * b) == part.phi(a) * part.phi(b)
        assert full.phi(a * b) == full.phi(a) * full.phi(b)


def test_taylor_decompose_examples():
    part = _p3_partial_system()
    y = parse_comm("x3^2 - 4", 3)
    coeffs = part.taylor_decompose(y)
    assert coeffs.coeffs == {(0, 0): y}

    sys_p2 = standard_system(CommPoly.constant(2, 1))
    coeffs = sys_p2.taylor_decompose(parse_comm("x1^2 + x1*x2", 2))
    assert coeffs.coeffs == {
        (2, 0): CommPoly.constant(2, 1),
        (1, 1): CommPoly.constant(2, 1),
    }

    sys_weyl = standard_system(WeylElement.one(A10))
    coeffs = sys_weyl.taylor_decompose(parse_weyl("x2*x1", A10))
    assert coeffs.coeffs == {
        (0, 0): WeylElement.one(A10),
        (1, 1): WeylElement.one(A10),
    }


def test_taylor_reconstruct_examples():
    part = _p3_partial_system()
    q = parse_comm("x3^3 + 1", 3)
    assert part.taylor_reconstruct(TaylorCoefficients(2, {(0, 0): q})) == q

    sys_p2 = standard_system(CommPoly.constant(2, 1))
    one = CommPoly.constant(2, 1)
    assert sys_p2.taylor_reconstruct(TaylorCoefficients(2, {(1, 0): one})) == \
        CommPoly.variable(2, 0)


def test_taylor_reconstruct_rejects_non_kernel_coefficients():
    sys_p2 = standard_system(CommPoly.constant(2, 1))
    with pytest.raises(LndError):
        sys_p2.taylor_reconstruct(
            TaylorCoefficients(2, {(0, 0): CommPoly.variable(2, 0)})
        )


def test_taylor_round_trip_all_carriers():
    rng = Random(405)
    systems = [
        (_p3_system(), lambda: random_comm(rng, 3, 5)),
        (_p3_partial_system(), lambda: random_comm(rng, 3, 5)),
        (standard_system(WeylElement.one(A11)), lambda: random_weyl(rng, A11, 4, 3)),
        (_a11_partial_system(), lambda: random_weyl(rng, A11, 4, 3)),
        (standard_system(FreeElement.one(2)), lambda: random_free(rng, 2, 5, 3)),
    ]
    for system, make in systems:
        for _ in range(15):
            a = make()
            coeffs = system.taylor_decompose(a)
            for value in coeffs.coeffs.values():
                for i in range(system.s):
                    assert system.derive(i, value).is_zero()
            assert system.taylor_reconstruct(coeffs) == a


def test_phi_equals_the_constant_taylor_coefficient():
    rng = Random(406)
    part = _p3_partial_system()
    zero = CommPoly.constant(3, 0)
    for _ in range(15):
        a = random_comm(rng, 3, 4)
        coeffs = part.taylor_decompose(a)
        assert part.phi(a) == coeffs.coeffs.get((0, 0), zero)


def test_taylor_noncommutative_sides():
    # phi-coefficients multiply monomials from the right: a = sum x^alpha c_alpha
    sys_weyl = standard_system(WeylElement.one(A10))
    rng = Random(407)
    for _ in range(10):
        a = random_weyl(rng, A10, 4, 3)
        coeffs = sys_weyl.taylor_decompose(a)
        rebuilt = WeylElement.zero(A10)
        for alpha, value in coeffs.coeffs.items():
            rebuilt = rebuilt + sys_weyl.slice_monomial(alpha) * value
        assert rebuilt == a


def test_taylor_text_form():
    sys_p2 = standard_system(CommPoly.constant(2, 1))
    coeffs = sys_p2.taylor_decompose(parse_comm("x1^2 + x1*x2", 2))
    assert str(coeffs) == "alpha=(1,1): 1\nalpha=(2,0): 1"
    assert str(sys_p2.taylor_decompose(CommPoly.constant(2, 0))) == "alpha: none"


def test_combination_derivation_system():
    # The unipotent shift on P2 realized as the one-direction system
    # d = d1 + (x1 - 1/2) d2 with slice x1.
    x1 = CommPoly.variable(2, 0)
    d = CombinationDerivation([
        (Fraction(1), PartialDerivation(0)),
        (x1 - CommPoly.constant(2, Fraction(1, 2)), PartialDerivation(1)),
    ])
    system = LndSystem([d], [x1])
    assert system.derive(0, x1) == CommPoly.constant(2, 1)
    value = system.phi(CommPoly.variable(2, 1))
    assert value == parse_comm("x2 - 1/2*x1^2 + 1/2*x1", 2)
    assert system.derive(0, value).is_zero()


def test_inner_derivation_system_is_the_weyl_partial():
    sys_weyl = standard_system(WeylElement.one(A10))
    ad_sys = LndSystem(
        [InnerDerivation(WeylElement.generator(A10, 1)),
         CombinationDerivation([(Fraction(-1), InnerDerivation(WeylElement.generator(A10, 0)))])],
        [WeylElement.generator(A10, 0), WeylElement.generator(A10, 1)],
    )
    rng = Random(408)
    for _ in range(10):
        a = random_weyl(rng, A10, 4, 3)
        for i in range(2):
            assert ad_sys.derive(i, a) == sys_weyl.derive(i, a)
        assert ad_sys.phi(a) == sys_weyl.phi(a)
