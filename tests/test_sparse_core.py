"""The element methods the shared core gives every carrier, which the layers
above use instead of testing which carrier they hold."""

from itertools import product

import pytest

from lndcalc import (
    CommPoly,
    FreeElement,
    LndError,
    UsageError,
    WeylCarrier,
    WeylElement,
    WeylSignature,
    parse_element,
)
from lndcalc.multiindex import iter_layer
from lndcalc.sparse import substitute

A11 = WeylSignature(1, 1)
LAURENT = frozenset({1})
CARRIERS = {
    "P_3": (CommPoly.one(3), [CommPoly.variable(3, i) for i in range(3)]),
    "P_2 Laurent": (CommPoly.one(2, LAURENT), [CommPoly.variable(2, i, LAURENT) for i in range(2)]),
    "A(1,1)": (WeylElement.one(A11), [WeylElement.generator(A11, i) for i in range(3)]),
    "F_3": (FreeElement.one(3), [FreeElement.generator(3, i) for i in range(3)]),
}


@pytest.mark.parametrize("name", CARRIERS)
def test_generators_unit_and_zero_stay_in_the_carrier(name):
    one, gens = CARRIERS[name]
    for x in gens + [one]:
        assert x.generators() == gens
        assert x ** 0 == one and x.scale(0) == one.like({}) and x.scale(0).is_zero()


def test_like_validates_like_the_constructor():
    assert CommPoly.one(2, LAURENT).like({(1, -2): 3}) == CommPoly(2, {(1, -2): 3}, LAURENT)
    with pytest.raises(LndError, match="noninvertible variable x1"):
        CommPoly.one(2, LAURENT).like({(-1, 0): 1})
    with pytest.raises(LndError, match="negative exponent"):
        WeylElement.one(A11).like({(0, 0, -1): 1})
    with pytest.raises(IndexError):
        FreeElement.one(2).like({(2,): 1})


def test_homogeneous_keys_are_the_basis_of_one_degree():
    assert CommPoly.one(3).homogeneous_keys(2) == list(iter_layer(3, 2))
    assert WeylElement.one(A11).homogeneous_keys(3) == list(iter_layer(3, 3))
    assert FreeElement.one(2).homogeneous_keys(3) == list(product(range(2), repeat=3))
    assert FreeElement.one(2).homogeneous_keys(0) == [()]
    with pytest.raises(UsageError):
        CommPoly.one(2, LAURENT).homogeneous_keys(1)


def test_degrees_are_exponent_sums_or_word_lengths():
    x1, x2 = CommPoly.variable(2, 0), CommPoly.variable(2, 1)
    assert (x1 * x2 + x1 + CommPoly.one(2)).degrees() == {0, 1, 2}
    w1, w2 = FreeElement.generator(2, 0), FreeElement.generator(2, 1)
    assert (w1 * w2 * w1 - w2).degrees() == {1, 3}
    assert FreeElement.zero(2).degrees() == set()


def test_units_centres_and_names():
    assert CommPoly.one(2, LAURENT).invertible_indices() == [1]
    assert WeylElement.one(A11).invertible_indices() == []
    x1, x3 = WeylElement.generator(A11, 0), WeylElement.generator(A11, 2)
    assert x3.is_central() and not x1.is_central()
    assert CommPoly.variable(2, 0).is_central()
    assert FreeElement.constant(2, 3).is_central() and not FreeElement.generator(2, 0).is_central()
    assert [x.algebra for x, _ in CARRIERS.values()] == ["P_3", "P_2 (Laurent x2)", "A(1,1)", "F_3"]
    assert repr(FreeElement.generator(2, 0)) == "FreeElement(F_2, 'x1')"


def test_elements_are_immutable_and_negative_powers_need_units():
    for x, _ in CARRIERS.values():
        with pytest.raises(AttributeError, match=f"{type(x).__name__} is immutable"):
            x.terms = {}
    with pytest.raises(LndError, match="negative powers do not exist in a Weyl algebra"):
        WeylElement.generator(A11, 0) ** -1
    with pytest.raises(LndError, match="negative powers do not exist in a free algebra"):
        FreeElement.generator(2, 0) ** -1
    assert CommPoly.variable(2, 1, LAURENT) ** -2 == CommPoly.monomial(2, (0, -2), 1, LAURENT)


def test_substitute_examples():
    def el(text):
        return parse_element(text, WeylCarrier(WeylSignature(0, 2)))

    assert substitute(el("x1 + x2"), [el("x2"), el("x1")]) == el("x1 + x2")
    assert substitute(el("x1^2"), [el("x1 + 1"), el("x2")]) == el("x1^2 + 2*x1 + 1")
    assert substitute(el("x1*x2"), [el("2*x1"), el("x2 + x1")]) == el("2*x1*x2 + 2*x1^2")
    assert substitute(el("3/4"), [el("x2"), el("x1")]) == el("3/4")
