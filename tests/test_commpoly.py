"""Commutative (optionally Laurent) polynomials over exact rationals."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CommCarrier,
    CommPoly,
    LndError,
    SignatureMismatchError,
    UsageError,
    parse_element,
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
    assert parse_element("x1^2*x2", CommCarrier(2)).partial(0) == \
        parse_element("2*x1*x2", CommCarrier(2))
    assert parse_element("x1", CommCarrier(2)).partial(1).is_zero()
    mask = frozenset({0})
    a = parse_element("x2^2*x1^-1", CommCarrier(2, mask))
    assert a.partial(0) == parse_element("-1*x2^2*x1^-2", CommCarrier(2, mask))


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


def test_laurent_arithmetic():
    mask = frozenset({0})
    inv = parse_element("x1^-1", CommCarrier(2, mask))
    assert inv * parse_element("x1", CommCarrier(2, mask)) == \
        parse_element("1", CommCarrier(2, mask))
    assert (inv ** 2) == parse_element("x1^-2", CommCarrier(2, mask))
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
    a = parse_element("x1*x2 + 1", CommCarrier(2))
    assert str(a) == "x1*x2 + 1"
    assert a.constant_term() == 1
    assert a.total_degree() == 2
    assert not a.is_constant()
    assert a.scale(Fraction(3, 2)) == parse_element("3/2*x1*x2 + 3/2", CommCarrier(2))
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
            op = rng.randrange(8)
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
