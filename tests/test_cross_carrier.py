"""Operands from different carriers are a signature mismatch, not an
AttributeError, wherever they meet."""

import operator
import re
from itertools import permutations

import pytest

from lndcalc import (
    CommPoly,
    FreeElement,
    InnerDerivation,
    LndSystem,
    PartialDerivation,
    SignatureMismatchError,
    WeylElement,
    WeylSignature,
    subalgebra_graded_dimension,
)

ELEMENTS = {
    "P_2": CommPoly.variable(2, 0),
    "A(1,0)": WeylElement.generator(WeylSignature(1, 0), 0),
    "F_2": FreeElement.generator(2, 1),
}
PAIRS = list(permutations(ELEMENTS, 2))
# same carrier, other context
CONTEXTS = [
    (CommPoly.variable(2, 0), CommPoly.variable(3, 0)),
    (CommPoly.variable(2, 0), CommPoly.variable(2, 0, frozenset({1}))),
    (WeylElement.generator(WeylSignature(1, 0), 0), WeylElement.generator(WeylSignature(0, 2), 0)),
    (FreeElement.generator(2, 0), FreeElement.generator(3, 0)),
]


@pytest.mark.parametrize("left, right", PAIRS, ids=[f"{a}-{b}" for a, b in PAIRS])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                lambda a, b: InnerDerivation(a).apply(b)],
                         ids=["add", "sub", "mul", "ad"])
def test_operands_from_different_carriers_raise_a_signature_mismatch(op, left, right):
    a, b = ELEMENTS[left], ELEMENTS[right]
    with pytest.raises(SignatureMismatchError, match=re.escape(f"{left} and {right}")):
        op(a, b)
    assert a != b and not a == b


@pytest.mark.parametrize("a, b", CONTEXTS, ids=["P2-P3", "P2-laurent", "A10-A02", "F2-F3"])
def test_operands_from_different_contexts_raise_a_signature_mismatch(a, b):
    for op in (operator.add, operator.sub, operator.mul,
               lambda a, b: InnerDerivation(a).apply(b)):
        with pytest.raises(SignatureMismatchError):
            op(a, b)
    assert a != b


def test_subalgebra_dimension_of_mixed_carriers_is_a_signature_mismatch():
    with pytest.raises(SignatureMismatchError, match="P_2 and F_2"):
        subalgebra_graded_dimension([ELEMENTS["P_2"], ELEMENTS["F_2"]], 2)


@pytest.mark.parametrize("check", [True, False])
def test_system_rejects_slices_from_different_carriers_up_front(check):
    derivations = [PartialDerivation(0), PartialDerivation(1)]
    slices = [CommPoly.variable(2, 0), FreeElement.generator(2, 1)]
    with pytest.raises(SignatureMismatchError, match="P_2 and F_2"):
        LndSystem(derivations, slices, check=check)
