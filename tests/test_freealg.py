"""Free associative algebra: word arithmetic and formal partials."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    FreeElement,
    InnerDerivation,
    SignatureMismatchError,
    parse_free,
)
from support import is_canonical, random_free


def _gen(i, num_gens=2):
    return FreeElement.generator(num_gens, i)


def test_mul_examples():
    assert _gen(0) * _gen(1) == FreeElement.word(2, (0, 1))
    a = parse_free("x1*x2*x1 + 3", 2)
    assert FreeElement.one(2) * a == a
    lhs = parse_free("x1 + x2", 2) * parse_free("x1 - x2", 2)
    assert lhs == parse_free("x1*x1 - x1*x2 + x2*x1 - x2*x2", 2)
    # order matters
    assert _gen(0) * _gen(1) != _gen(1) * _gen(0)


def test_partial_examples():
    a = parse_free("x1*x2*x1", 2)
    assert a.partial(0) == parse_free("x2*x1 + x1*x2", 2)
    assert _gen(0).partial(1).is_zero()
    commutator = parse_free("x1*x2 - x2*x1", 2)
    assert commutator.partial(0).is_zero()
    assert commutator.partial(1).is_zero()


def test_partial_out_of_range():
    with pytest.raises(IndexError):
        _gen(0).partial(5)


def test_ad_examples():
    ad_x1 = InnerDerivation(_gen(0)).apply
    assert ad_x1(_gen(1)) == parse_free("x1*x2 - x2*x1", 2)
    u = random_free(Random(301), 2, 4)
    assert InnerDerivation(u).apply(u).is_zero()
    assert ad_x1(ad_x1(_gen(1))) == \
        parse_free("x1*x1*x2 - 2*x1*x2*x1 + x2*x1*x1", 2)


def test_leibniz_and_commuting_partials():
    rng = Random(302)
    for _ in range(20):
        a = random_free(rng, 3, 4, 3)
        b = random_free(rng, 3, 4, 3)
        for i in range(3):
            lhs = (a * b).partial(i)
            rhs = a.partial(i) * b + a * b.partial(i)
            assert lhs == rhs
        for i in range(3):
            for j in range(3):
                assert a.partial(i).partial(j) == a.partial(j).partial(i)


def test_partials_are_locally_nilpotent():
    rng = Random(303)
    for _ in range(20):
        length = rng.randint(0, 6)
        word = FreeElement.word(2, tuple(rng.randrange(2) for _ in range(length)))
        for i in range(2):
            out = word
            for _ in range(length + 1):
                out = out.partial(i)
            assert out.is_zero()


def test_commutator_family_lies_in_the_joint_kernel():
    # iterated ad-images of [x1,x2] up to total degree 4
    commutator = parse_free("x1*x2 - x2*x1", 2)
    family = [commutator]
    for a in range(3):
        for b in range(3):
            if a + b == 0 or a + b + 2 > 4:
                continue
            value = commutator
            for _ in range(a):
                value = InnerDerivation(_gen(0)).apply(value)
            for _ in range(b):
                value = InnerDerivation(_gen(1)).apply(value)
            family.append(value)
    assert len(family) > 3
    for f in family:
        assert f.partial(0).is_zero()
        assert f.partial(1).is_zero()


def test_construction_and_queries():
    zero = FreeElement.zero(2)
    assert zero.is_zero()
    assert str(zero) == "0"
    a = parse_free("x1*x2*x1 - 1/2", 2)
    assert str(a) == "x1*x2*x1 - 1/2"
    assert a.constant_term() == Fraction(-1, 2)
    assert a.total_degree() == 3
    assert a.scale(2) == parse_free("2*x1*x2*x1 - 1", 2)
    assert (a - a).terms == {}


def _assert_clean(x):
    for word, c in x.terms.items():
        assert type(word) is tuple
        assert all(type(g) is int and 0 <= g < x.num_gens for g in word)
        assert is_canonical(c), c
    assert x == FreeElement(x.num_gens, dict(x.terms))


def test_arithmetic_results_are_well_formed():
    rng = Random(305)
    x = random_free(rng, 2, 3)
    for _ in range(80):
        y = random_free(rng, 2, 2)
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
            x = x.partial(rng.randrange(2))
        elif op == 5:
            x = x * y
        elif op == 6:
            x = InnerDerivation(y).apply(x)
        else:
            x = x - x + y
        _assert_clean(x)
        if x.total_degree() > 8 or len(x.terms) > 60:
            x = y
    assert type(FreeElement.generator(2, 0).constant_term()) is int
    # input words that coincide as tuples are summed into canonical form
    one = FreeElement(1, {(0,): Fraction(1, 3), range(0, 1): Fraction(2, 3)}).terms
    assert one == {(0,): 1} and type(one[(0,)]) is int


def test_mismatched_generator_counts():
    with pytest.raises(SignatureMismatchError):
        FreeElement.generator(2, 0) * FreeElement.generator(3, 0)
