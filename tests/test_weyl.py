"""Normal-ordered arithmetic in A(n,m) against the single-swap oracle."""

import math
from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    CapExceededError,
    LndError,
    SignatureMismatchError,
    WeylCarrier,
    WeylElement,
    WeylSignature,
    parse_element,
    weyl_mul,
)
from lndcalc import weyl
from oracle_weyl import oracle_mul, oracle_mul_terms
from support import is_canonical, random_weyl

A10 = WeylSignature(1, 0)
A11 = WeylSignature(1, 1)
A21 = WeylSignature(2, 1)


def _gen(sig, i):
    return WeylElement.generator(sig, i)


def test_signature_requires_a_generator():
    with pytest.raises(LndError):
        WeylSignature(0, 0)
    assert WeylSignature(0, 1).s == 1
    assert WeylSignature(2, 1).s == 5
    assert str(WeylSignature(1, 2)) == "A(1,2)"


def test_mul_examples():
    x1, x2 = _gen(A10, 0), _gen(A10, 1)
    assert weyl_mul(x2, x1) == parse_element("x1*x2 + 1", WeylCarrier(A10))
    a = parse_element("x1^2*x2 + 3/2", WeylCarrier(A10))
    assert weyl_mul(WeylElement.one(A10), a) == a
    assert weyl_mul(x2 * x2, x1 * x1) == parse_element("x1^2*x2^2 + 4*x1*x2 + 2", WeylCarrier(A10))


def test_closed_form_matches_swap_oracle_for_all_pairs_up_to_5():
    for a in range(6):
        for b in range(6):
            p = WeylElement.monomial(A10, (0, a))
            q = WeylElement.monomial(A10, (b, 0))
            got = weyl_mul(p, q)
            assert got == oracle_mul(p, q)
            # the explicit sum: p^a q^b = sum_j j! C(a,j) C(b,j) q^(b-j) p^(a-j)
            expected = WeylElement.zero(A10)
            for j in range(min(a, b) + 1):
                coeff = math.factorial(j) * math.comb(a, j) * math.comb(b, j)
                expected = expected + WeylElement.monomial(A10, (b - j, a - j), coeff)
            assert got == expected


def test_mul_matches_oracle_on_random_elements():
    rng = Random(201)
    for sig in (A10, A11, A21):
        for _ in range(12):
            a = random_weyl(rng, sig, 3, 3)
            b = random_weyl(rng, sig, 3, 3)
            assert weyl_mul(a, b) == oracle_mul(a, b)


def test_defining_relations_exhaustively():
    for sig in (A10, A11, A21):
        n, s = sig.n, sig.s
        for i in range(s):
            for j in range(s):
                bracket = weyl.ad(_gen(sig, i), _gen(sig, j))
                if i < 2 * n and j < 2 * n and i == j + n:
                    assert bracket == WeylElement.one(sig), (i, j)
                elif i < 2 * n and j < 2 * n and j == i + n:
                    assert bracket == -WeylElement.one(sig), (i, j)
                else:
                    # same block, or at least one central variable: commute
                    assert bracket.is_zero(), (i, j)


def test_mul_is_associative_on_random_triples():
    rng = Random(202)
    for _ in range(100):
        a = random_weyl(rng, A10, 4, 2)
        b = random_weyl(rng, A10, 4, 2)
        c = random_weyl(rng, A10, 4, 2)
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def test_partial_examples():
    a = parse_element("x1*x2", WeylCarrier(A10))
    assert a.partial(0) == _gen(A10, 1)
    assert a.partial(1) == _gen(A10, 0)
    # differentiating the normal-ordered form of x2*x1
    b = weyl_mul(_gen(A10, 1), _gen(A10, 0))
    assert b == parse_element("x1*x2 + 1", WeylCarrier(A10))
    assert b.partial(0) == _gen(A10, 1)


def test_partial_out_of_range():
    with pytest.raises(IndexError):
        _gen(A10, 0).partial(2)


def test_ad_examples():
    x1, x2 = _gen(A10, 0), _gen(A10, 1)
    assert weyl.ad(x2, x1) == WeylElement.one(A10)
    u = parse_element("x1^2*x2 + x2", WeylCarrier(A10))
    assert weyl.ad(u, u).is_zero()
    assert weyl.ad(x1 * x1, x2) == parse_element("-2*x1", WeylCarrier(A10))


def test_ad_and_power_rule_partials_agree_on_monomials():
    # d_i = ad(x_{n+i}) and d_{n+i} = -ad(x_i); also guards weyl.ad's swap rows
    from lndcalc.multiindex import iter_upto

    for sig, bound in ((A11, 6), (A21, 4)):
        n = sig.n
        for alpha in iter_upto(sig.s, bound):
            mono = WeylElement.monomial(sig, alpha)
            for i in range(n):
                assert mono.partial(i) == weyl.ad(_gen(sig, n + i), mono), (alpha, i)
                assert mono.partial(n + i) == -weyl.ad(_gen(sig, i), mono), (alpha, i)


def test_leibniz_for_partials():
    rng = Random(203)
    for _ in range(20):
        a = random_weyl(rng, A11, 3, 3)
        b = random_weyl(rng, A11, 3, 3)
        for i in range(A11.s):
            lhs = weyl_mul(a, b).partial(i)
            rhs = weyl_mul(a.partial(i), b) + weyl_mul(a, b.partial(i))
            assert lhs == rhs


def test_multi_partial_examples():
    a = parse_element("x1^2*x2", WeylCarrier(A10))
    assert a.multi_partial((0, 0)) == a
    # divided by alpha! = 2! and 1! 1!
    assert a.multi_partial((2, 0)).scale(Fraction(1, 2)) == _gen(A10, 1)
    assert parse_element("x1*x2", WeylCarrier(A10)).multi_partial((1, 1)) == WeylElement.one(A10)


def test_multi_partial_order_is_irrelevant():
    rng = Random(204)
    for _ in range(10):
        a = random_weyl(rng, A11, 4, 3)
        left = a.multi_partial((1, 2, 1))
        right = a
        for i in (2, 1, 1, 0):  # apply in a scrambled order
            right = right.partial(i)
        assert left == right


def test_central_variables_are_central():
    x3 = _gen(A11, 2)
    rng = Random(205)
    for _ in range(10):
        a = random_weyl(rng, A11, 3, 3)
        assert weyl.ad(x3, a).is_zero()
    assert _gen(A11, 2).is_central()
    assert not _gen(A11, 0).is_central()
    assert parse_element("x3^2 + 1/2", WeylCarrier(A11)).is_central()


def test_degree_cap(monkeypatch):
    big = WeylElement.monomial(A10, (33, 0))
    with pytest.raises(CapExceededError):
        weyl_mul(big, big)
    # a higher cap lets the product through
    monkeypatch.setattr(weyl, "DEGREE_CAP", 128)
    assert weyl_mul(big, big) == WeylElement.monomial(A10, (66, 0))


def test_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        weyl_mul(_gen(A10, 0), _gen(A11, 0))


def test_text_form():
    assert str(WeylElement.zero(A10)) == "0"
    assert str(weyl_mul(_gen(A10, 1), _gen(A10, 0))) == "x1*x2 + 1"
    assert str(parse_element("3/2*x1^2", WeylCarrier(A10))) == "3/2*x1^2"


# -- fast paths: one-pass bracket and trusted arithmetic results ---------------

A20 = WeylSignature(2, 0)


def test_one_pass_ad_matches_both_products_and_the_swap_oracle():
    rng = Random(206)
    for sig in (A10, A11, A20, A21):
        for _ in range(10):
            u = random_weyl(rng, sig, 3, 3)
            a = random_weyl(rng, sig, 3, 3)
            got = weyl.ad(u, a)
            assert got == weyl_mul(u, a) - weyl_mul(a, u)
            assert got == oracle_mul(u, a) - oracle_mul(a, u)


def test_products_and_brackets_match_the_oracle_in_canonical_form():
    """Values from the single-swap oracle; coefficients that cancel to
    integers (1/2*2, 1/3 + 2/3) come back as int, the others as Fraction."""
    rng = Random(208)
    third = Fraction(1, 3)
    for sig in (A10, A11, A20, A21):
        x, p = _gen(sig, 0), _gen(sig, sig.n)  # a coordinate and its momentum
        cases = [
            (p.scale(Fraction(1, 2)), x.scale(2)),
            (x.scale(third) + p.scale(2 * third), x + p),
            (p.scale(third) + x, x.scale(Fraction(3, 4)) + p.scale(Fraction(-5, 2))),
        ] + [(random_weyl(rng, sig, 3, 3), random_weyl(rng, sig, 3, 3)) for _ in range(8)]
        for a, b in cases:
            ab, ba = oracle_mul_terms(a, b), oracle_mul_terms(b, a)
            bracket = {k: ab.get(k, 0) - ba.get(k, 0) for k in ab.keys() | ba.keys()}
            for got, expected in (
                (weyl_mul(a, b), ab),
                (weyl.ad(a, b), {k: c for k, c in bracket.items() if c}),
            ):
                assert got.terms == expected
                assert all(is_canonical(c) for c in got.terms.values())
    x1, x2 = _gen(A10, 0), _gen(A10, 1)
    one = weyl.ad(x2.scale(Fraction(1, 2)), x1.scale(2)).constant_term()
    assert one == 1 and type(one) is int
    one = weyl_mul(x1.scale(third) + x2.scale(2 * third), x1 + x2).terms[(1, 1)]
    assert one == 1 and type(one) is int


def test_ad_caps_the_bracket_not_the_products():
    x1, x2 = _gen(A10, 0), _gen(A10, 1)
    with pytest.raises(CapExceededError):
        weyl.ad(x2 ** 40, x1 ** 40)  # the bracket itself has degree 78
    with pytest.raises(CapExceededError):
        weyl_mul(x2 ** 33, x1 ** 33)  # degree 66
    bracket = weyl.ad(x2 ** 33, x1 ** 33)
    assert bracket.total_degree() == 64
    assert len(bracket.terms) == 33
    expected = WeylElement.zero(A10)
    for j in range(1, 34):
        coeff = math.factorial(j) * math.comb(33, j) ** 2
        expected = expected + WeylElement.monomial(A10, (33 - j, 33 - j), coeff)
    assert bracket == expected


def _assert_clean(x):
    s = x.signature.s
    for exps, c in x.terms.items():
        assert type(exps) is tuple and len(exps) == s
        assert all(type(e) is int and e >= 0 for e in exps)
        assert is_canonical(c), c
    assert x == WeylElement(x.signature, dict(x.terms))


def test_trusted_results_are_well_formed():
    rng = Random(207)
    for sig in (A10, A11, A20, A21):
        x = random_weyl(rng, sig, 3, 3)
        for _ in range(40):
            y = random_weyl(rng, sig, 2, 3)
            op = rng.randrange(8)
            if op == 0:
                x = x + y
            elif op == 1:
                x = x - y
            elif op == 2:
                x = -x
            elif op == 3:
                x = x.scale(rng.choice([0, 1, -2, Fraction(3, 4)]))
            elif op == 4:
                x = x.partial(rng.randrange(sig.s))
            elif op == 5:
                x = weyl_mul(x, y)
            elif op == 6:
                x = weyl.ad(y, x)
            else:
                x = x - x + y
            _assert_clean(x)
            if x.total_degree() > 12:
                x = y


# -- the kernel's swap-row cache, zero operands and the degree-cap bound -------

A30 = WeylSignature(3, 0)


def test_cached_swap_rows_match_the_oracle_from_a_cold_cache():
    rng = Random(209)
    for sig in (A10, A20, A30):
        zero = WeylElement.zero(sig)
        pairs = [(random_weyl(rng, sig, 3, 3), random_weyl(rng, sig, 3, 3))
                 for _ in range(6)]
        pairs += [(zero, pairs[0][1]), (pairs[0][0], zero), (zero, zero)]
        for warm in (False, True):
            if not warm:
                weyl._swap_rows.cache_clear()
            for a, b in pairs:
                assert weyl_mul(a, b) == oracle_mul(a, b)
                assert weyl.ad(a, b) == oracle_mul(a, b) - oracle_mul(b, a)
        assert weyl._swap_rows.cache_info().hits > 0


def test_zero_operands_and_p_m_brackets_give_zero():
    p3 = WeylSignature(0, 3)
    a = parse_element("x1^2*x3 + 2*x2 - 1", WeylCarrier(p3))
    assert weyl.ad(a, a * a + a).is_zero()
    for sig in (A10, A21, p3):
        zero, one = WeylElement.zero(sig), WeylElement.one(sig)
        for x in (zero, one, _gen(sig, 0)):
            assert weyl_mul(zero, x).is_zero() and weyl_mul(x, zero).is_zero()
            assert weyl.ad(zero, x).is_zero() and weyl.ad(x, zero).is_zero()


def test_degree_cap_at_and_one_below_the_result_degree(monkeypatch):
    # the product of two elements has degree deg a + deg b exactly (the
    # leading parts multiply commutatively), so the cap is met at that
    # bound and the scan runs only below it
    rng = Random(210)
    for sig in (A10, A20, A30):
        for _ in range(6):
            a, b = random_weyl(rng, sig, 3, 3), random_weyl(rng, sig, 3, 3)
            if a.is_zero() or b.is_zero():
                continue
            d = a.total_degree() + b.total_degree()
            monkeypatch.setattr(weyl, "DEGREE_CAP", d)
            got = weyl_mul(a, b)
            assert got == oracle_mul(a, b) and got.total_degree() == d
            monkeypatch.setattr(weyl, "DEGREE_CAP", d - 1)
            with pytest.raises(CapExceededError, match=f"degree {d}"):
                weyl_mul(a, b)
            monkeypatch.undo()
            bracket = weyl.ad(a, b)
            if bracket.is_zero():
                continue
            e = bracket.total_degree()
            monkeypatch.setattr(weyl, "DEGREE_CAP", e)
            assert weyl.ad(a, b) == bracket
            monkeypatch.setattr(weyl, "DEGREE_CAP", e - 1)
            with pytest.raises(CapExceededError, match=f"degree {e}"):
                weyl.ad(a, b)
            monkeypatch.undo()
