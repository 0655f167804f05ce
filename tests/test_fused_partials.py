"""The fused twisted-partial kernel against the per-piece sum.

A ``CombinationDerivation`` of coordinate partials with scalar or central
coefficients applies sum_l c_l * partial_l(a) in one dict
(``weyl.combine_partials``).  The oracle here forms every piece as the
per-piece path does, partial then product, with the products taken from the
single-swap rewriter of ``tests/oracle_weyl.py``.
"""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CapExceededError,
    CombinationDerivation,
    InnerDerivation,
    PartialDerivation,
    WeylElement,
    WeylSignature,
    twisted_partials,
)
from lndcalc import projections, weyl
from oracle_weyl import oracle_mul_terms
from support import (
    MAP_A11,
    NAGATA,
    is_canonical,
    random_tame_poly,
    random_weyl,
    verified_map,
)


def _per_piece_oracle(combo, a):
    """sum_k c_k * D_k(a), each product by single swaps; a nested
    combination is summed the same way, never by its fused ``apply``."""
    total: dict = {}
    for coeff, deriv in combo.parts:
        if isinstance(deriv, CombinationDerivation):
            piece = _per_piece_oracle(deriv, a)
        else:
            piece = deriv.apply(a)
        if isinstance(coeff, WeylElement):
            terms = oracle_mul_terms(coeff, piece)
        else:
            terms = {e: Fraction(coeff) * c for e, c in piece.terms.items()}
        for e, c in terms.items():
            total[e] = total.get(e, 0) + c
    return WeylElement(a.signature, total)


def _per_piece(combo, a):
    """The per-piece path of the library: partial, product, partial sum."""
    total = WeylElement.zero(a.signature)
    for coeff, deriv in combo.parts:
        total = total + coeff * deriv.apply(a)
    return total


def _verdict(call):
    try:
        return call()
    except CapExceededError:
        return CapExceededError


def _combinations(aut):
    return [d for d in twisted_partials(aut) if isinstance(d, CombinationDerivation)]


def test_twisted_partials_of_tame_maps_equal_the_per_piece_sum():
    rng = Random(931)
    maps = [random_tame_poly(rng, m, steps=2)[0] for m in (2, 3, 4) for _ in range(3)]
    maps.append(verified_map(*NAGATA))
    fused = 0
    for aut in maps:
        sig = aut.signature
        for combo in _combinations(aut):
            fused += combo._fused is not None
            for a in list(aut.images) + [random_weyl(rng, sig, 4, 5) for _ in range(3)]:
                assert combo.apply(a) == _per_piece_oracle(combo, a), (str(aut), str(a))
    assert fused >= len(maps) * 2


def test_the_a11_central_direction_fuses_its_partials_beside_an_inner_part():
    # ad(u) + sum_l c_l d_l, nested as a Derivation's descriptor
    rng = Random(932)
    aut = verified_map(*MAP_A11)
    (combo,) = _combinations(aut)
    (one, inner), (other, partials) = combo.parts
    assert one == other == 1 and isinstance(inner, InnerDerivation)
    assert combo._fused is None and partials._fused is not None
    for a in list(aut.images) + [random_weyl(rng, aut.signature, 3, 4) for _ in range(4)]:
        assert combo.apply(a) == _per_piece_oracle(combo, a)


def test_scalar_and_central_coefficients_equal_the_per_piece_sum():
    rng = Random(933)
    sig = WeylSignature(1, 2)
    x3, x4 = (WeylElement.generator(sig, i) for i in (2, 3))
    coeffs = [
        3, Fraction(-2, 3), 1, 0,  # scalars
        WeylElement.constant(sig, Fraction(5, 2)), WeylElement.zero(sig),  # constant central
        x3 * x4 - x4.scale(2), x3 * x3 + WeylElement.constant(sig, 1),  # central
    ]
    for _ in range(40):
        parts = [(rng.choice(coeffs), PartialDerivation(rng.randrange(sig.s)))
                 for _ in range(rng.randint(1, 4))]
        combo = CombinationDerivation(parts)
        assert combo._fused is not None
        for _ in range(3):
            a = random_weyl(rng, sig, 4, 5)
            got = combo.apply(a)
            assert got == _per_piece_oracle(combo, a) == _per_piece(combo, a)
            assert all(is_canonical(c) for c in got.terms.values())


def test_non_central_coefficients_are_not_fused():
    sig = WeylSignature(1, 1)
    x1 = WeylElement.generator(sig, 0)
    combo = CombinationDerivation([(x1, PartialDerivation(2))])
    assert combo._fused is None
    a = WeylElement.monomial(sig, (0, 1, 2))
    assert combo.apply(a) == _per_piece_oracle(combo, a)


@pytest.mark.parametrize("cap", [6, 9])
def test_at_the_cap_the_bound_picks_the_path_and_the_cap_raises_as_before(cap, monkeypatch):
    monkeypatch.setattr(weyl, "DEGREE_CAP", cap)
    paths = []
    combine = projections.combine_partials

    def spy(a, *fused):
        out = combine(a, *fused)
        paths.append("fused" if out is not None else "fallback")
        return out

    monkeypatch.setattr(projections, "combine_partials", spy)
    sig = WeylSignature(1, 2)
    top = 2
    combo = CombinationDerivation([
        (WeylElement.monomial(sig, (0, 0, top, 0)), PartialDerivation(3)),
        (Fraction(1, 2), PartialDerivation(0)),
    ])
    k = cap - top + 1  # maxdeg(a) - 1 + top == cap
    cases = [
        # bound == cap: fused, and no product can pass the cap
        (WeylElement.monomial(sig, (0, 0, 0, k)), "fused"),
        (WeylElement.monomial(sig, (1, 1, k - 2, 0)), "fused"),
        # bound == cap + 1: per piece; x3^2 * x4^k passes the cap and raises
        (WeylElement.monomial(sig, (0, 0, 0, k + 1)), "fallback"),
        # bound == cap + 1, but only the scalar part sees the top degree
        (WeylElement.monomial(sig, (k + 1, 0, 0, 0)) + WeylElement.generator(sig, 3),
         "fallback"),
    ]
    for a, path in cases:
        paths.clear()
        got = _verdict(lambda: combo.apply(a))
        assert paths == [path]
        assert got == _verdict(lambda: _per_piece(combo, a))
        if got is not CapExceededError:
            assert got == _per_piece_oracle(combo, a)
    raised = [_verdict(lambda: combo.apply(a)) is CapExceededError for a, _ in cases]
    assert raised == [False, False, True, False]


def test_weyl_mul_with_a_constant_operand_is_scale():
    rng = Random(934)
    for sig in (WeylSignature(1, 1), WeylSignature(2, 0), WeylSignature(0, 3)):
        for c in (1, -3, Fraction(2, 5), Fraction(-7, 2)):
            const = WeylElement.constant(sig, c)
            for _ in range(4):
                a = random_weyl(rng, sig, 3, 4)
                left, right = weyl.weyl_mul(const, a), weyl.weyl_mul(a, const)
                expected = WeylElement(sig, oracle_mul_terms(const, a))
                assert left == right == a.scale(c) == expected
            assert weyl.weyl_mul(const, const) == WeylElement.constant(sig, c * c)


def test_weyl_mul_with_a_constant_operand_still_caps(monkeypatch):
    monkeypatch.setattr(weyl, "DEGREE_CAP", 5)
    sig = WeylSignature(1, 1)
    high = WeylElement.monomial(sig, (3, 0, 3))
    two = WeylElement.constant(sig, 2)
    with pytest.raises(CapExceededError, match="degree 6"):
        weyl.weyl_mul(two, high)
    with pytest.raises(CapExceededError, match="degree 6"):
        weyl.weyl_mul(high, two)
    assert weyl.weyl_mul(two, WeylElement.monomial(sig, (2, 0, 3))).terms == {(2, 0, 3): 2}
