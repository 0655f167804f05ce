"""The token grammar against the character-loop scanner it replaced, and the
parser's two budgets: the nesting of '(' and unary '-', and the interpreter's
integer-text limit on digit runs (see the ``lndcalc.parsing`` docstring)."""

import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from lndcalc import LndError, ParseError, WeylSignature, parse_element
from lndcalc.parsing import (
    MAX_NESTING,
    CommCarrier,
    FreeCarrier,
    WeylCarrier,
    decimal,
    tokenize,
)
from oracle_tokenize import tokenize as oracle_tokenize

# ASCII and non-ASCII decimal digits (int reads them), digits int refuses,
# Unicode and ASCII whitespace, and characters outside the grammar
CHARS = ("0123456789" "٣७７" "²¹①" " \t\n  " "x/->+*^();" "ay@.")
PIECES = ("x1", "x12", "x0", "x", "0", "7", "12", "3/4", "1/0", "1/", "/2", "->",
          " ", "(", ")", "-", "+", "*", "^", ";", "x²", "1²", "x٣", "٣/٤", "3/²")


def _outcome(scan, text):
    try:
        return "tokens", scan(text)
    except ParseError as exc:
        return "error", (str(exc), exc.offset)


def _random_texts(seed, count):
    rng = Random(seed)
    for k in range(count):
        if k % 2:
            yield "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 12)))
        else:
            yield "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 8)))


def test_the_pattern_scans_like_the_character_loop():
    refused_digits = 0
    for text in _random_texts(3201, 20000):
        got = _outcome(tokenize, text)
        try:
            want = _outcome(oracle_tokenize, text)
        except ValueError:
            # the old scanner fed a non-decimal digit to int(); for the
            # pattern it is no digit, and the text a syntax error
            refused_digits += 1
            assert got[0] == "error", text
            continue
        assert got == want, text
    assert refused_digits > 100  # the exception is exercised, not vacuous


@pytest.mark.parametrize("text, message", [
    ("x1²", "unexpected character '²' (at offset 2)"),
    ("²", "unexpected character '²' (at offset 0)"),
    ("1/¹", "expected digits after '/' (at offset 2)"),
    ("x¹", "expected a variable index after 'x' (at offset 0)"),
])
def test_non_decimal_digits_are_unexpected_characters(text, message):
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == message


def test_decimal_reads_exactly_the_digit_rule():
    assert decimal("٣٤") == 34
    for text in ("", "²", "1 ", "-1", "+1", "1_0"):
        with pytest.raises(ParseError):
            decimal(text, 5)


# -- the nesting budget -----------------------------------------------------------


P1 = CommCarrier(1)


def test_nesting_up_to_the_budget_parses():
    depth = MAX_NESTING
    assert parse_element("(" * depth + "x1" + ")" * depth, P1) == parse_element("x1", P1)
    assert parse_element("-" * depth + "x1", P1) == parse_element("x1", P1)
    assert parse_element("(-" * (depth // 2) + "x1" + ")" * (depth // 2), P1) == \
        parse_element("x1", P1)
    # the budget bounds open levels, not their number
    assert parse_element(" + ".join(["(x1)"] * 3 * depth), P1) == \
        parse_element(f"{3 * depth}*x1", P1)


@pytest.mark.parametrize("text, offset", [
    ("(" * 300 + "x1" + ")" * 300, MAX_NESTING),
    ("-" * 600 + "x1", MAX_NESTING),
    ("x1 + " + "(-" * 60 + "x1" + ")" * 60, 5 + MAX_NESTING),
    ("(" * (MAX_NESTING + 1), MAX_NESTING),
], ids=["parentheses", "minus-signs", "mixed", "unclosed"])
def test_nesting_past_the_budget_is_a_parse_error(text, offset):
    with pytest.raises(ParseError) as err:
        parse_element(text, P1)
    assert str(err.value) == f"nesting deeper than {MAX_NESTING} levels (at offset {offset})"


# -- the integer-text limit -------------------------------------------------------


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="no integer-text limit in force")


@needs_limit
@pytest.mark.parametrize("text, offset", [
    ("1" * (LIMIT + 1), 0),
    ("x1 + 0" + "0" * LIMIT, 5),
    ("1/" + "7" * (LIMIT + 1), 2),
    ("x" + "1" * (LIMIT + 1), 1),
], ids=["number", "leading-zeros", "denominator", "variable"])
def test_digit_runs_past_the_limit_are_parse_errors(text, offset):
    with pytest.raises(ParseError) as err:
        tokenize(text)
    assert str(err.value) == f"number with more than {LIMIT} digits (at offset {offset})"


@needs_limit
def test_digit_runs_at_the_limit_parse():
    assert parse_element("9" * LIMIT, P1) == parse_element(f"10^{LIMIT} - 1", P1)


def test_no_limit_reads_and_prints_long_numbers_exactly():
    # PYTHONINTMAXSTRDIGITS=0 lifts the limit in both directions
    script = (
        "from lndcalc.cli import main\n"
        "main(['mul', '--poly', '1', '1' * 5000, '1'])\n"
        "main(['mul', '--poly', '1', '2^15000', '1'])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0", PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    ones, power, end = run.stdout.split("\n")
    assert (ones, end) == ("1" * 5000, "")
    value = 0  # read back 1,000 digits at a time, under any limit
    for k in range(0, len(power), 1000):
        value = value * 10 ** len(power[k:k + 1000]) + int(power[k:k + 1000])
    assert value == 2 ** 15000
