"""Witness enumeration and ``order`` against the former box enumeration and
layer walk of ``oracle_taylor`` (needs hypothesis for the drawn inputs).
Examples are derandomized and few, so the run is fixed and short."""

from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lndcalc import (  # noqa: E402
    CommCarrier,
    CommPoly,
    FreeElement,
    WeylElement,
    WeylSignature,
    enumerate_generators,
    parse_element,
    standard_system,
)
import oracle_taylor  # noqa: E402
from support import random_comm, random_free, random_weyl  # noqa: E402

A11 = WeylSignature(1, 1)

# name -> (standard system, element drawn from a seeded Random)
CARRIERS = {
    "F_2": (standard_system(FreeElement.one(2)), lambda rng: random_free(rng, 2, 4, 3)),
    "P_3": (standard_system(CommPoly.one(3)), lambda rng: random_comm(rng, 3, 4, 4)),
    "A(1,1)": (standard_system(WeylElement.one(A11)), lambda rng: random_weyl(rng, A11, 3, 3)),
}


@st.composite
def witness_inputs(draw):
    """(system, nonzero generators, word bound, degree bound) on F_2, P_3 or
    A(1,1) with the standard system."""
    system, make = CARRIERS[draw(st.sampled_from(sorted(CARRIERS)))]
    rng = Random(draw(st.integers(0, 2**32)))
    gens = [y for y in (make(rng) for _ in range(draw(st.integers(1, 2)))) if not y.is_zero()]
    return system, gens or list(system.slices[:1]), draw(st.integers(0, 2)), draw(st.integers(0, 5))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(witness_inputs())
# two alpha with equal values: c_(0,2,0) = c_(1,0,0) = 1 pins which one
# deduplication keeps
@example((CARRIERS["P_3"][0], [parse_element("x2^2 + x1", CommCarrier(3))], 1, 4))
def test_witnesses_and_order_equal_the_box_enumeration(case):
    system, gens, word_bound, degree_bound = case
    for y in gens:
        assert system.order(y) == oracle_taylor.order(system, y)
    got = enumerate_generators(system, gens, word_bound, degree_bound)
    assert got == oracle_taylor.enumerate_generators(system, gens, word_bound, degree_bound)
