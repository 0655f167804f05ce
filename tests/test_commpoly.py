"""Commutative (optionally Laurent) polynomials over exact rationals."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CommPoly,
    LndError,
    SignatureMismatchError,
    UsageError,
    jacobian_det,
    parse_comm,
    standard_system,
)
from support import is_canonical, random_comm


def _naive_mul(a: CommPoly, b: CommPoly) -> CommPoly:
    """Distributive-law oracle for products."""
    out = CommPoly.constant(a.num_vars, 0, a.laurent_mask)
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            out = out + CommPoly.monomial(a.num_vars, gamma, ca * cb, a.laurent_mask)
    return out


def test_mul_matches_naive_distribution():
    rng = Random(101)
    for _ in range(40):
        a = random_comm(rng, 3, 4)
        b = random_comm(rng, 3, 4)
        assert a * b == _naive_mul(a, b)


def test_mul_is_commutative():
    rng = Random(102)
    for _ in range(25):
        a = random_comm(rng, 3, 5)
        b = random_comm(rng, 3, 5)
        assert a * b == b * a


def test_partial_power_rule_examples():
    assert parse_comm("x1^2*x2", 2).partial(0) == parse_comm("2*x1*x2", 2)
    assert parse_comm("x1", 2).partial(1).is_zero()
    mask = frozenset({0})
    a = parse_comm("x2^2*x1^-1", 2, mask)
    assert a.partial(0) == parse_comm("-1*x2^2*x1^-2", 2, mask)


def test_leibniz_and_commuting_partials():
    rng = Random(103)
    for _ in range(25):
        a = random_comm(rng, 3, 5)
        b = random_comm(rng, 3, 5)
        for i in range(3):
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b + a * b.partial(i)
            assert lhs == rhs
        for i in range(3):
            for j in range(3):
                assert a.partial(i).partial(j) == a.partial(j).partial(i)


def test_substitute_examples():
    a = parse_comm("x1 + x2", 2)
    swapped = a.substitute([parse_comm("x2", 2), parse_comm("x1", 2)])
    assert swapped == a

    sq = parse_comm("x1^2", 1)
    assert sq.substitute([parse_comm("x1 + 1", 1)]) == \
        parse_comm("x1^2 + 2*x1 + 1", 1)

    prod = parse_comm("x1*x2", 2)
    images = [parse_comm("2*x1", 2), parse_comm("x2 + x1", 2)]
    assert prod.substitute(images) == parse_comm("2*x1*x2 + 2*x1^2", 2)


def test_substitute_on_p0_and_at_a_high_power():
    # P_0 has no generators: its elements are constants and stay so
    assert CommPoly.constant(0, Fraction(3, 4)).substitute([]) == CommPoly.constant(0, Fraction(3, 4))
    assert CommPoly.zero(0).substitute([]).is_zero()
    # powers are built one factor at a time, not by recursion on the exponent
    x1 = CommPoly.variable(1, 0)
    assert (x1 ** 2000).substitute([x1.scale(2)]) == CommPoly.monomial(1, (2000,), 2 ** 2000)
    mask = frozenset({0})
    inv = CommPoly.monomial(1, (-1,), 1, mask)
    assert CommPoly.monomial(1, (-2000,), 1, mask).substitute([inv.scale(2)]) == \
        CommPoly.monomial(1, (2000,), Fraction(1, 2 ** 2000), mask)


def test_substitute_negative_exponent_requires_a_unit():
    mask = frozenset({0})
    a = parse_comm("x1^-1", 2, mask)
    # substituting a non-unit into an inverted position fails
    with pytest.raises(LndError):
        a.substitute([parse_comm("x1 + 1", 2, mask), parse_comm("x2", 2, mask)])
    # a plain monomial image is fine: (x2)^-1 needs x2 invertible in the target
    b = a.substitute(
        [parse_comm("x2", 2, frozenset({0, 1})), parse_comm("x1", 2, frozenset({0, 1}))]
    )
    assert b == parse_comm("x2^-1", 2, frozenset({0, 1}))


def test_jacobian_examples():
    assert jacobian_det([parse_comm("x1", 2), parse_comm("x2", 2)]) == \
        parse_comm("1", 2)
    assert jacobian_det([parse_comm("x1 + x2^2", 2), parse_comm("x2", 2)]) == \
        parse_comm("1", 2)
    assert jacobian_det([parse_comm("2*x1", 2), parse_comm("3*x2", 2)]) == \
        parse_comm("6", 2)


def test_jacobian_requires_square_input():
    with pytest.raises(LndError):
        jacobian_det([parse_comm("x1", 2)])


def test_jacobian_chain_rule_on_triangular_samples():
    rng = Random(104)
    for _ in range(10):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        c, d = rng.randint(1, 4), rng.randint(1, 4)
        outer = [
            CommPoly.constant(2, a) * CommPoly.variable(2, 0) + random_comm(rng, 2, 3).substitute([CommPoly.constant(2, 0), CommPoly.variable(2, 1)]),
            CommPoly.constant(2, b) * CommPoly.variable(2, 1),
        ]
        inner = [
            CommPoly.constant(2, c) * CommPoly.variable(2, 0) + random_comm(rng, 2, 3).substitute([CommPoly.constant(2, 0), CommPoly.variable(2, 1)]),
            CommPoly.constant(2, d) * CommPoly.variable(2, 1),
        ]
        composed = [f.substitute(inner) for f in outer]
        lhs = jacobian_det(composed)
        rhs = jacobian_det(outer).substitute(inner) * jacobian_det(inner)
        assert lhs == rhs


def test_laurent_arithmetic():
    mask = frozenset({0})
    inv = parse_comm("x1^-1", 2, mask)
    assert inv * parse_comm("x1", 2, mask) == parse_comm("1", 2, mask)
    assert (inv ** 2) == parse_comm("x1^-2", 2, mask)
    with pytest.raises(LndError):
        CommPoly.monomial(2, (-1, 0))  # no mask: not invertible


@pytest.mark.parametrize("num_vars, mask, index", [
    (1, {5}, 5), (2, {-1}, -1), (2, {0, 2}, 2), (0, {0}, 0),
])
def test_laurent_mask_outside_the_variables_is_a_usage_error(num_vars, mask, index):
    # a mask index names a variable x(i+1) with 0 <= i < num_vars
    message = f"Laurent mask index {index} names no variable of P_{num_vars}"
    with pytest.raises(UsageError, match=message):
        CommPoly(num_vars, {(1,) * num_vars: 1}, frozenset(mask))
    with pytest.raises(UsageError, match=message):
        standard_system(CommPoly.one(num_vars, frozenset(mask)))
    for build in (CommPoly.zero, CommPoly.one):
        with pytest.raises(UsageError, match=message):
            build(num_vars, frozenset(mask))


def test_construction_and_queries():
    zero = CommPoly.constant(2, 0)
    assert zero.is_zero() and zero.is_constant()
    assert str(zero) == "0"
    a = parse_comm("x1*x2 + 1", 2)
    assert str(a) == "x1*x2 + 1"
    assert a.constant_term() == 1
    assert a.total_degree() == 2
    assert not a.is_constant()
    assert a.scale(Fraction(3, 2)) == parse_comm("3/2*x1*x2 + 3/2", 2)
    # zero coefficients are never stored
    assert (a - a).terms == {}


def _assert_clean(x):
    for exps, c in x.terms.items():
        assert type(exps) is tuple and len(exps) == x.num_vars
        assert all(type(e) is int and (e >= 0 or i in x.laurent_mask)
                   for i, e in enumerate(exps))
        assert is_canonical(c), c
    assert x == CommPoly(x.num_vars, dict(x.terms), x.laurent_mask)


def test_arithmetic_results_are_well_formed():
    rng = Random(108)
    for mask in (frozenset(), frozenset({0})):
        unit = CommPoly.monomial(3, (1, 0, 0) if mask else (0, 0, 0), Fraction(2, 3), mask)
        x = random_comm(rng, 3, 3, laurent_mask=mask)
        for _ in range(60):
            y = random_comm(rng, 3, 2, laurent_mask=mask)
            op = rng.randrange(9)
            if op == 0:
                x = x + y
            elif op == 1:
                x = x - y
            elif op == 2:
                x = -x
            elif op == 3:
                x = x.scale(rng.choice([0, 1, -2, Fraction(3, 4), Fraction(4, 2)]))
            elif op == 4:
                x = x.partial(rng.randrange(3))
            elif op == 5:
                x = x * y
            elif op == 6:
                x = x * unit ** -rng.randint(1, 2)
            elif op == 7:
                # x1 may carry a negative exponent only under the mask, where
                # its image is the unit
                images = [unit, y, CommPoly.variable(3, 1, mask)]
                x = x.substitute(images if mask else images[::-1])
            else:
                x = x - x + y
            _assert_clean(x)
            if x.total_degree() > 10 or len(x.terms) > 40:
                x = y
    assert type(CommPoly.variable(2, 0).constant_term()) is int
    # input keys that coincide as tuples are summed into canonical form
    one = CommPoly(1, {(1,): Fraction(1, 3), range(1, 2): Fraction(2, 3)}).terms[(1,)]
    assert one == 1 and type(one) is int


def test_mismatched_carriers_are_rejected():
    with pytest.raises(SignatureMismatchError):
        CommPoly.variable(2, 0) * CommPoly.variable(3, 0)
    with pytest.raises(SignatureMismatchError):
        CommPoly.variable(2, 0, frozenset({0})) + CommPoly.variable(2, 0)
