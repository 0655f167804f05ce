"""One set of laws, run on all three carriers.

``CommPoly`` (with and without a Laurent variable), ``WeylElement`` and
``FreeElement`` share one sparse exact-coefficient contract: the
constructors, ``+ - neg scale`` against a plain-``Fraction`` reference on
the term dicts, ``==``/``hash`` across ``int`` and equal ``Fraction``
coefficients, ``multi_partial`` against repeated ``partial``, and the
printed form parsing back to an equal element.  Each carrier is reached
through its own public constructor names only.
"""

from fractions import Fraction
from math import factorial, prod
from random import Random

import pytest

from lndcalc import CommPoly, FreeElement, WeylElement, WeylSignature
from lndcalc.parsing import CommCarrier, FreeCarrier, WeylCarrier, parse_element

from support import is_canonical


class Spec:
    """How to reach one carrier: its constructors, keys and parser."""

    def __init__(self, name, cls, count, new, zero, one, constant, gen, mono, key,
                 const_key, gen_key, carrier):
        self.name, self.cls, self.count = name, cls, count
        self.new, self.zero, self.one, self.constant = new, zero, one, constant
        self.gen, self.mono, self.key = gen, mono, key
        self.const_key, self.gen_key, self.carrier = const_key, gen_key, carrier

    def random(self, rng: Random, terms: int = 4):
        return self.new({self.key(rng): _coeff(rng) for _ in range(terms)})


def _coeff(rng: Random) -> Fraction | int:
    c = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
    return int(c) if c.denominator == 1 and rng.random() < 0.5 else c


def _vector(n: int, laurent=frozenset()):
    return lambda rng: tuple(rng.randint(-2 if i in laurent else 0, 2) for i in range(n))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(n))


def _comm(n: int, mask: frozenset[int], name: str) -> Spec:
    return Spec(
        name, CommPoly, n,
        new=lambda t: CommPoly(n, t, mask),
        zero=lambda: CommPoly.zero(n, mask),
        one=lambda: CommPoly.one(n, mask),
        constant=lambda v: CommPoly.constant(n, v, mask),
        gen=lambda i: CommPoly.variable(n, i, mask),
        mono=lambda k, c: CommPoly.monomial(n, k, c, mask),
        key=_vector(n, mask),
        const_key=(0,) * n,
        gen_key=lambda i: _unit(n, i),
        carrier=CommCarrier(n, mask),
    )


def _weyl(n: int, m: int) -> Spec:
    sig = WeylSignature(n, m)
    return Spec(
        f"A({n},{m})", WeylElement, sig.s,
        new=lambda t: WeylElement(sig, t),
        zero=lambda: WeylElement.zero(sig),
        one=lambda: WeylElement.one(sig),
        constant=lambda v: WeylElement.constant(sig, v),
        gen=lambda i: WeylElement.generator(sig, i),
        mono=lambda k, c: WeylElement.monomial(sig, k, c),
        key=_vector(sig.s),
        const_key=(0,) * sig.s,
        gen_key=lambda i: _unit(sig.s, i),
        carrier=WeylCarrier(sig),
    )


def _free(k: int) -> Spec:
    return Spec(
        f"F_{k}", FreeElement, k,
        new=lambda t: FreeElement(k, t),
        zero=lambda: FreeElement.zero(k),
        one=lambda: FreeElement.one(k),
        constant=lambda v: FreeElement.constant(k, v),
        gen=lambda i: FreeElement.generator(k, i),
        mono=lambda w, c: FreeElement.monomial(k, w, c),
        key=lambda rng: tuple(rng.randrange(k) for _ in range(rng.randint(0, 3))),
        const_key=(),
        gen_key=lambda i: (i,),
        carrier=FreeCarrier(k),
    )


SPECS = [
    _comm(3, frozenset(), "P_3"),
    _comm(2, frozenset({0}), "P_2 Laurent x1"),
    _weyl(1, 1),
    _weyl(0, 2),
    _free(2),
]
SEEDS = range(12)


def _ids(spec: Spec) -> str:
    return spec.name


def _reference(*pairs) -> dict:
    """sum of factor * terms over ``(factor, terms)`` pairs, in plain
    ``Fraction`` arithmetic, zeros dropped."""
    out: dict = {}
    for factor, terms in pairs:
        for k, c in terms.items():
            out[k] = out.get(k, Fraction(0)) + Fraction(factor) * Fraction(c)
    return {k: c for k, c in out.items() if c}


def _assert_canonical(x) -> None:
    assert all(is_canonical(c) for c in x.terms.values()), x.terms


@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_constructors(spec):
    zero, one = spec.zero(), spec.one()
    assert zero.is_zero() and zero.terms == {} and zero.total_degree() == -1
    assert one.terms == {spec.const_key: 1} and one.is_constant() and not one.is_zero()
    assert str(zero) == "0" and str(one) == "1"
    assert spec.constant(0).is_zero()
    half = spec.constant(Fraction(3, 2))
    assert half.constant_term() == Fraction(3, 2) and half.total_degree() == 0
    assert type(spec.constant(Fraction(4, 2)).constant_term()) is int
    assert zero.constant_term() == 0
    for i in range(spec.count):
        g = spec.gen(i)
        assert g.terms == {spec.gen_key(i): 1}
        assert g.total_degree() == 1 and not g.is_constant() and g.constant_term() == 0
    with pytest.raises(IndexError):
        spec.gen(spec.count)
    key = spec.gen_key(spec.count - 1)
    m = spec.mono(key, Fraction(6, 3))
    assert m.terms == {key: 2} and type(m.terms[key]) is int
    assert spec.mono(key, 0).is_zero()
    assert spec.new({key: 1, spec.const_key: Fraction(1, 2)}) == spec.gen(spec.count - 1) + \
        spec.constant(Fraction(1, 2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_linear_arithmetic_matches_a_fraction_reference(spec, seed):
    rng = Random(seed)
    a, b = spec.random(rng), spec.random(rng)
    assert a.terms == _reference((1, a.terms))
    assert (a + b).terms == _reference((1, a.terms), (1, b.terms))
    assert (a - b).terms == _reference((1, a.terms), (-1, b.terms))
    assert (-a).terms == _reference((-1, a.terms))
    assert (a - a).is_zero() and (a + (-a)).is_zero()
    for f in (0, 1, 2, -3, Fraction(-1, 3), Fraction(4, 2), Fraction(5, 7)):
        want = _reference((f, a.terms))
        for got in (a.scale(f), f * a, a * f):
            assert type(got) is spec.cls and got.terms == want
            _assert_canonical(got)
    for x in (a, b, a + b, a - b, -a):
        _assert_canonical(x)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_int_and_equal_fraction_coefficients_compare_and_hash_equal(spec, seed):
    rng = Random(seed)
    a = spec.random(rng)
    as_fractions = spec.new({k: Fraction(c) * Fraction(2, 2) for k, c in a.terms.items()})
    assert as_fractions == a and hash(as_fractions) == hash(a)
    halves = a.scale(Fraction(1, 2)) + a.scale(Fraction(1, 2))
    assert halves == a and hash(halves) == hash(a)
    _assert_canonical(halves)
    assert a != a + spec.one() and {a, as_fractions, halves} == {a}


def test_equality_never_crosses_carriers():
    ones = [spec.one() for spec in SPECS]
    for i, x in enumerate(ones):
        for j, y in enumerate(ones):
            assert (x == y) == (i == j)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_multi_partial_matches_repeated_partial(spec, seed):
    if not hasattr(spec.cls, "multi_partial"):
        pytest.skip(f"{spec.cls.__name__} has no multi_partial")
    rng = Random(seed)
    a = spec.random(rng, terms=5)
    alpha = tuple(rng.randint(0, 2) for _ in range(spec.count))
    want = a
    for i, k in enumerate(alpha):
        for _ in range(k):
            want = want.partial(i)
    assert a.multi_partial(alpha) == want
    divided = a.multi_partial(alpha).scale(Fraction(1, prod(map(factorial, alpha))))
    assert divided == want.scale(Fraction(1, prod(factorial(k) for k in alpha)))
    _assert_canonical(divided)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", SPECS, ids=_ids)
def test_printed_form_parses_back(spec, seed):
    rng = Random(seed)
    for x in (spec.random(rng), spec.zero(), spec.one(), spec.gen(0), spec.constant(-2)):
        text = str(x)
        back = parse_element(text, spec.carrier)
        assert back == x and str(back) == text
