"""Expression grammar, byte-offset errors, and parse/format round trips."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    ParseError,
    WeylSignature,
    parse_element,
    parse_images,
)
from lndcalc.parsing import CommCarrier, FreeCarrier, WeylCarrier, tokenize
from support import random_comm, random_free, random_weyl

A10 = WeylSignature(1, 0)


def _offset_of(text, exc_info):
    assert f"(at offset" in str(exc_info.value)
    return exc_info.value.offset


def test_tokenizer_records_offsets():
    tokens = tokenize("x1 + 3/2*x12")
    kinds = [(t.kind, t.offset) for t in tokens]
    assert kinds == [("VAR", 0), ("PLUS", 3), ("NUM", 5), ("STAR", 8),
                     ("VAR", 9), ("END", 12)]
    assert tokens[2].value == Fraction(3, 2)
    assert tokens[4].value == 11  # x12 -> 0-based index


def test_precedence_and_grouping():
    p1, p2 = CommCarrier(1), CommCarrier(2)
    assert parse_element("x1 + x2*x1^2", p2) == \
        parse_element("x1", p2) + parse_element("x2", p2) * parse_element("x1", p2) ** 2
    assert parse_element("-x1^2", p1) == -(parse_element("x1", p1) ** 2)
    assert parse_element("(x1 + 1)^2", p1) == parse_element("x1^2 + 2*x1 + 1", p1)
    assert parse_element("2^3", p1) == parse_element("8", p1)
    assert parse_element("-(x1 + 1)", p1) == parse_element("-x1 - 1", p1)
    assert parse_element("1/2*x1", p1).terms == {(1,): Fraction(1, 2)}


def test_noncommutative_parsing_respects_order():
    assert parse_element("x1*x2", FreeCarrier(2)) != parse_element("x2*x1", FreeCarrier(2))
    assert parse_element("x2*x1", WeylCarrier(A10)) == parse_element("x1*x2 + 1", WeylCarrier(A10))


def test_laurent_parsing():
    mask = frozenset({0})
    a = parse_element("x1^-1*x2^2", CommCarrier(2, mask))
    assert str(a) == "x2^2*x1^-1"
    assert a.terms == {(-1, 2): Fraction(1)}


def test_juxtaposition_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_element("2x1", CommCarrier(1))
    assert "missing '*'" in str(err.value)
    assert _offset_of("2x1", err) == 1
    with pytest.raises(ParseError):
        parse_element("x1 x2", CommCarrier(2))
    with pytest.raises(ParseError):
        parse_element("(x1)(x1)", CommCarrier(1))


def test_error_offsets():
    with pytest.raises(ParseError) as err:
        parse_element("x1 + @", CommCarrier(1))
    assert _offset_of("x1 + @", err) == 5

    with pytest.raises(ParseError) as err:
        parse_element("1/0", CommCarrier(1))
    assert _offset_of("1/0", err) == 2

    with pytest.raises(ParseError) as err:
        parse_element("x0 + 1", CommCarrier(1))
    assert "start at x1" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_element("x3", CommCarrier(2))
    assert "out of range" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_element("x1^(1/2)", CommCarrier(1))
    # parenthesized exponents are not part of the grammar
    assert _offset_of("x1^(1/2)", err) == 3

    with pytest.raises(ParseError) as err:
        parse_element("x1 + ", CommCarrier(1))
    assert _offset_of("x1 + ", err) == 5

    with pytest.raises(ParseError) as err:
        parse_element("x1 )", CommCarrier(1))
    assert "trailing" in str(err.value)


def test_negative_exponent_needs_the_laurent_mask():
    with pytest.raises(ParseError) as err:
        parse_element("x1^-1", CommCarrier(1))
    assert "not invertible" in str(err.value)
    assert parse_element("x1^-1", CommCarrier(1, frozenset({0}))).terms == {(-1,): Fraction(1)}
    with pytest.raises(ParseError):
        parse_element("x1^-1", WeylCarrier(A10))


def test_parse_images():
    carrier = WeylCarrier(A10)
    images = parse_images("x2 -> x2 + x1^2; x1 -> x1", carrier)
    assert images[0] == parse_element("x1", WeylCarrier(A10))
    assert images[1] == parse_element("x2 + x1^2", WeylCarrier(A10))

    with pytest.raises(ParseError) as err:
        parse_images("x1 -> x1; x1 -> x2", carrier)
    assert "twice" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_images("x1 -> x1", carrier)
    assert "missing image for x2" in str(err.value)

    with pytest.raises(ParseError):
        parse_images("x1 -> x1; x3 -> x2", carrier)
    with pytest.raises(ParseError):
        parse_images("x1 x1; x2 -> x2", carrier)


def test_round_trip_comm():
    rng = Random(601)
    for _ in range(80):
        a = random_comm(rng, 3, 5)
        assert parse_element(str(a), CommCarrier(3)) == a


def test_round_trip_laurent():
    rng = Random(602)
    mask = frozenset({0})
    for _ in range(40):
        a = random_comm(rng, 2, 4, laurent_mask=mask)
        inv = parse_element("x1^-2", CommCarrier(2, mask))
        b = a * inv
        assert parse_element(str(b), CommCarrier(2, mask)) == b


def test_round_trip_weyl():
    rng = Random(603)
    for sig in (A10, WeylSignature(1, 1)):
        for _ in range(40):
            a = random_weyl(rng, sig, 5, 4)
            assert parse_element(str(a), WeylCarrier(sig)) == a


def test_round_trip_free():
    rng = Random(604)
    for _ in range(80):
        a = random_free(rng, 3, 5)
        assert parse_element(str(a), FreeCarrier(3)) == a


def test_carriers_expose_constants_and_variables():
    assert CommCarrier(2).constant(Fraction(1, 2)) == parse_element("1/2", CommCarrier(2))
    assert WeylCarrier(A10).variable(1) == parse_element("x2", WeylCarrier(A10))
    assert FreeCarrier(2).variable(0) == parse_element("x1", FreeCarrier(2))
