"""Invariant-ring witnesses, the graded kernel oracle, and worked systems."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CombinationDerivation,
    CommCarrier,
    CommPoly,
    FreeCarrier,
    FreeElement,
    LndSystem,
    PartialDerivation,
    UsageError,
    WeylElement,
    WeylSignature,
    aut_verify,
    enumerate_generators,
    graded_kernel_oracle,
    log_aut,
    parse_element,
    parse_images,
    standard_system,
    subalgebra_graded_dimension,
    weitzenboeck_closed_form,
    weitzenboeck_invariants,
)
from lndcalc import invariants
from lndcalc.invariants import weitzenboeck_system
from lndcalc.parsing import WeylCarrier
import oracle_linalg


def _f2_system():
    return standard_system(FreeElement.one(2))


def _f2_generators():
    return [FreeElement.generator(2, 0), FreeElement.generator(2, 1)]


COMMUTATOR = "x1*x2 - x2*x1"


# -- witness enumeration ----------------------------------------------------------


def test_witnesses_word_bound_zero():
    witnesses = enumerate_generators(_f2_system(), _f2_generators(), 0, 6)
    # phi(d^alpha x_i / alpha!) is 0 or 1; only the single constant survives
    assert [w.value for w in witnesses] == [FreeElement.one(2)]
    assert witnesses[0].describe() == "z - (1,0) y1 : 1"


def test_witnesses_word_bound_one_add_the_commutator():
    witnesses = enumerate_generators(_f2_system(), _f2_generators(), 1, 6)
    values = [w.value for w in witnesses]
    commutator = parse_element(COMMUTATOR, FreeCarrier(2))
    assert commutator in values
    assert -commutator in values
    x_kinds = [w for w in witnesses if w.kind == "x"]
    assert {(w.word, w.source) for w in x_kinds} == {((0,), 1), ((1,), 0)}


def test_witnesses_word_bound_two_reach_the_iterated_commutators():
    witnesses = enumerate_generators(_f2_system(), _f2_generators(), 2, 6)
    values = [w.value for w in witnesses]
    commutator = parse_element(COMMUTATOR, FreeCarrier(2))
    x1, x2 = _f2_generators()
    ad1 = x1 * commutator - commutator * x1
    ad2 = x2 * commutator - commutator * x2
    assert ad1 in values or -ad1 in values
    assert ad2 in values or -ad2 in values


def test_witness_values_are_invariant_and_deduplicated():
    system = _f2_system()
    witnesses = enumerate_generators(system, _f2_generators(), 2, 6)
    values = [w.value for w in witnesses]
    assert len(set(values)) == len(values)
    for w in witnesses:
        assert not w.value.is_zero()
        for i in range(system.s):
            assert system.derive(i, w.value).is_zero()


def test_witnesses_are_sorted_by_word_length_first():
    witnesses = enumerate_generators(_f2_system(), _f2_generators(), 2, 6)
    lengths = [len(w.word) for w in witnesses]
    assert lengths == sorted(lengths)


def test_commutative_full_slice_witnesses_are_constant():
    system = standard_system(CommPoly.constant(2, 1))
    gens = [CommPoly.variable(2, 0), CommPoly.variable(2, 1)]
    witnesses = enumerate_generators(system, gens, 2, 6)
    assert all(w.value.is_constant() for w in witnesses)


# -- relation check ---------------------------------------------------------------


def test_relation_check_examples():
    system = _f2_system()
    assert system.phi(FreeElement.zero(2)).is_zero()
    commutator = parse_element(COMMUTATOR, FreeCarrier(2))
    syntactic_duplicate = commutator * commutator - commutator ** 2
    assert syntactic_duplicate.is_zero()
    assert system.phi(syntactic_duplicate).is_zero()
    assert not system.phi(commutator).is_zero()


def test_relation_check_matches_the_constant_taylor_coefficient():
    rng = Random(701)
    system = _f2_system()
    from support import random_free

    for _ in range(10):
        a = random_free(rng, 2, 4, 3)
        coeffs = system.taylor_decompose(a)
        zero_coeff = coeffs.coeffs.get((0, 0))
        assert system.phi(a).is_zero() == (zero_coeff is None)


# -- graded kernel oracle ----------------------------------------------------------


def test_oracle_f2_low_degrees():
    system = _f2_system()
    assert graded_kernel_oracle(system, 1) == []
    deg2 = graded_kernel_oracle(system, 2)
    assert len(deg2) == 1
    commutator = parse_element(COMMUTATOR, FreeCarrier(2))
    # the basis element spans the same line as the commutator
    lead = next(iter(deg2[0].terms.values()))
    assert deg2[0].scale(1 / lead) in (commutator, -commutator)
    assert len(graded_kernel_oracle(system, 3)) == 2
    assert len(graded_kernel_oracle(system, 4)) == 4


def test_oracle_output_is_in_the_kernel_and_independent():
    system = _f2_system()
    for degree in (2, 3, 4):
        basis = graded_kernel_oracle(system, degree)
        for b in basis:
            assert all(len(w) == degree for w in b.terms)
            for i in range(2):
                assert system.derive(i, b).is_zero()
        assert subalgebra_graded_dimension(basis, degree) == len(basis)


def _kernel_text(system, degree):
    return "\n".join(str(b) for b in graded_kernel_oracle(system, degree))


@pytest.mark.parametrize("one, degrees", [
    (FreeElement.one(2), range(8)),
    (FreeElement.one(3), range(5)),
    (CommPoly.constant(3, 1), range(5)),
    (WeylElement.one(WeylSignature(1, 1)), range(5)),
    (WeylElement.one(WeylSignature(2, 0)), [3]),
], ids=["F2", "F3", "P3", "A11", "A20"])
def test_oracle_text_matches_the_dense_elimination(monkeypatch, one, degrees):
    system = standard_system(one)
    sparse = {d: _kernel_text(system, d) for d in degrees}
    vectors = []

    def dense_nullspace(rows, ncols):
        found = oracle_linalg.nullspace(rows, ncols)
        vectors.append(found)
        return found

    monkeypatch.setattr(invariants, "nullspace", dense_nullspace)
    for d in degrees:
        assert _kernel_text(system, d) == sparse[d]
        # each basis element is the coordinate vector summed over the
        # monomial basis by carrier arithmetic
        one = system._one
        monomials = one.homogeneous_keys(d)
        summed = []
        for vec in vectors[-1]:
            total = one.like({})
            for c, key in zip(vec, monomials):
                total = total + one.like({key: 1}) * c
            summed.append(str(total))
        assert "\n".join(summed) == sparse[d]


@pytest.mark.parametrize("k, degree, count", [(2, 9, 128), (3, 6, 216)])
def test_oracle_reaches_free_components_of_a_few_hundred_words(k, degree, count):
    system = standard_system(FreeElement.one(k))
    basis = graded_kernel_oracle(system, degree)
    assert len(basis) == count
    for b in basis:
        assert all(len(w) == degree for w in b.terms)
        for i in range(k):
            assert system.derive(i, b).is_zero()


def test_oracle_p2_single_direction():
    system = LndSystem([PartialDerivation(0)], [CommPoly.variable(2, 0)])
    basis = graded_kernel_oracle(system, 2)
    assert basis == [parse_element("x2^2", CommCarrier(2))]


def test_oracle_rejects_inhomogeneous_directions():
    # d = d1 + x1 d2 on P_2 maps x2 to x1 (degree 1, not 0) and x2^2 to
    # 2*x1*x2; on the degree-0 component every image is zero
    x1 = CommPoly.variable(2, 0)
    d = CombinationDerivation([
        (Fraction(1), PartialDerivation(0)),
        (x1, PartialDerivation(1)),
    ])
    system = LndSystem([d], [x1])
    for degree in (1, 2):
        with pytest.raises(UsageError) as info:
            graded_kernel_oracle(system, degree)
        assert str(info.value) == "derivation is not homogeneous of degree -1 on the component"
    assert graded_kernel_oracle(system, 0) == [CommPoly.constant(2, 1)]


# -- subalgebra dimensions vs oracle ------------------------------------------------


def test_subalgebra_dimensions_match_oracle_where_witnesses_reach():
    system = _f2_system()
    kernel_dims = {d: len(graded_kernel_oracle(system, d)) for d in (2, 3, 4)}
    assert kernel_dims == {2: 1, 3: 2, 4: 4}

    w2 = [w.value for w in enumerate_generators(system, _f2_generators(), 2, 4)]
    assert subalgebra_graded_dimension(w2, 2) == kernel_dims[2]
    assert subalgebra_graded_dimension(w2, 3) == kernel_dims[3]

    w3 = [w.value for w in enumerate_generators(system, _f2_generators(), 3, 4)]
    for d in (2, 3, 4):
        assert subalgebra_graded_dimension(w3, d) == kernel_dims[d]


def test_subalgebra_dimension_without_positive_degree_values():
    assert subalgebra_graded_dimension([], 0) == 1
    for d in (1, 2, 5):
        assert subalgebra_graded_dimension([], d) == 0
        assert subalgebra_graded_dimension([FreeElement.one(2)], d) == 0


def test_subalgebra_dimension_requires_homogeneous_values():
    with pytest.raises(UsageError):
        subalgebra_graded_dimension([parse_element("x1*x2 + x1", FreeCarrier(2))], 2)


# -- commutative images -------------------------------------------------------------


def test_commutative_invariant_images_examples():
    system = standard_system(CommPoly.constant(2, 1))
    gens = [CommPoly.variable(2, 0), CommPoly.variable(2, 1)]
    assert all(system.phi(y).is_zero() for y in gens)

    single = LndSystem([PartialDerivation(0)], [CommPoly.variable(2, 0)])
    x2 = CommPoly.variable(2, 1)
    assert single.phi(x2) == x2


# -- the Weitzenboeck system ---------------------------------------------------------


def test_weitzenboeck_system_has_a_unit_slice():
    system = weitzenboeck_system(4)
    slice_ = system.slices[0]
    assert str(slice_) == "x2*x1^-1"
    assert system.derive(0, slice_) == CommPoly.constant(4, 1, slice_.laurent_mask)


def test_weitzenboeck_system_passes_the_unit_check():
    # d = x1 d2 + x2 d3 + ... kills the unit x1, so validation accepts it
    for n in (2, 3, 5):
        system = weitzenboeck_system(n)
        unit = CommPoly.variable(n, 0, frozenset({0}))
        assert system.derive(0, unit).is_zero()


def test_weitzenboeck_phi_of_x2_vanishes():
    for n in (3, 4, 5):
        system = weitzenboeck_system(n)
        mask = system.slices[0].laurent_mask
        assert system.phi(CommPoly.variable(n, 1, mask)).is_zero()


def test_weitzenboeck_invariants_examples():
    values = dict(weitzenboeck_invariants(3))
    mask = frozenset({0})
    assert str(values[3]) == "x3 - 1/2*x2^2*x1^-1"

    # clearing denominators gives the classical invariant 2 x1 x3 - x2^2
    cleared = values[3] * parse_element("2*x1", CommCarrier(3, mask))
    assert cleared == parse_element("2*x1*x3 - x2^2", CommCarrier(3, mask))
    # direct differentiation oracle: (x1 d2 + x2 d3) kills it
    delta = parse_element("x1", CommCarrier(3, mask)) * cleared.partial(1) + \
        parse_element("x2", CommCarrier(3, mask)) * cleared.partial(2)
    assert delta.is_zero()


def test_weitzenboeck_matches_the_closed_form_up_to_n6():
    for n in range(3, 7):
        system = weitzenboeck_system(n)
        for i, value in weitzenboeck_invariants(n):
            assert value == weitzenboeck_closed_form(n, i)
            assert system.derive(0, value).is_zero()


# -- shift-automorphism fixed points -------------------------------------------------


def _shift_system(sig):
    """LndSystem of the log of the shift x_i -> x_i + x_{i-1} (x_0 = 1)."""
    text = "; ".join(
        f"x{i + 1} -> x{i + 1} + " + (f"x{i}" if i else "1") for i in range(sig.s)
    )
    sigma = aut_verify(sig, parse_images(text, WeylCarrier(sig)))
    delta = log_aut(sigma)
    parts = [(delta.values[i], PartialDerivation(i)) for i in range(sig.s)]
    system = LndSystem(
        [CombinationDerivation(parts)], [WeylElement.generator(sig, 0)]
    )
    return sigma, system


def test_shift_invariants_are_fixed_points_p2():
    sig = WeylSignature(0, 2)
    sigma, system = _shift_system(sig)
    value = system.phi(WeylElement.generator(sig, 1))
    assert str(value) == "x2 - 1/2*x1^2 + 1/2*x1"
    assert sigma.apply(value) == value


def test_shift_invariants_are_fixed_points_p3():
    sig = WeylSignature(0, 3)
    sigma, system = _shift_system(sig)
    for j in (1, 2):
        value = system.phi(WeylElement.generator(sig, j))
        assert sigma.apply(value) == value
        assert system.derive(0, value).is_zero()
