"""Text input for elements of any carrier and generator-image lists.

Grammar (whitespace insensitive, offsets are 0-based character positions):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' ['-'] integer)?
    atom    := number | variable | '(' expr ')' | '-' factor
    number  := digits ['/' digits]
    variable:= 'x' digits          (1-based)

The tokens are the alternatives of ``_TOKEN``.  Digits are the decimal digits
``int`` reads ("x1²" has an unexpected character).  A digit run past the
integer-text limit (``sys.get_int_max_str_digits()``, 4300 unless
PYTHONINTMAXSTRDIGITS sets it, 0 for none) and '(' or unary '-' nested deeper
than ``MAX_NESTING`` are syntax errors.

Juxtaposition is rejected ("2x1" needs the explicit '*').  Variables are
written 1-based on the wire and converted to 0-based indices internally.
Image lists use arrows: "x1 -> x1 + x2; x2 -> x2" with every generator
assigned exactly once.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .commpoly import CommPoly
from .errors import LndError, ParseError, UsageError
from .freealg import FreeElement
from .weyl import WeylElement, WeylSignature

MAX_NESTING = 100

# one alternative per token; the group that matched names the token's kind
_TOKEN = re.compile(r"""
    (?P<SPACE>\s+) | (?P<NUM>(?P<num>\d+)(?:/(?P<den>\d*))?) | x(?P<VAR>\d*) | (?P<ARROW>->)
  | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<CARET>\^)
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<SEMI>;) | (?P<OTHER>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str
    text: str
    offset: int
    value: object = None


def decimal(text: str, offset: int = 0) -> int:
    """``int(text)`` of decimal digits (``str.isdecimal`` is the ``\\d`` of
    ``_TOKEN``) within the integer-text limit, else a ParseError at ``offset``."""
    if not text.isdecimal():
        raise ParseError("expected decimal digits", offset=offset)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if limit and len(text) > limit:
        raise ParseError(f"number with more than {limit} digits", offset=offset)
    return int(text)


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind, i, value = match.lastgroup, match.start(), None
        if kind == "SPACE":
            continue
        if kind == "OTHER":
            raise ParseError(f"unexpected character {match[0]!r}", offset=i)
        if kind == "NUM":
            num, den, k = decimal(match["num"], i), match["den"], match.start("den")
            if den == "":
                raise ParseError("expected digits after '/'", offset=k)
            if den is not None and not (den := decimal(den, k)):
                raise ParseError("zero denominator", offset=k)
            value = Fraction(num, den or 1)
        elif kind == "VAR":
            if not match["VAR"]:
                raise ParseError("expected a variable index after 'x'", offset=i)
            value = decimal(match["VAR"], i + 1) - 1
            if value < 0:
                raise ParseError("variable indices start at x1", offset=i)
        out.append(Token(kind, match[0], i, value))
    out.append(Token("END", "", len(text)))
    return out


# -- carriers ------------------------------------------------------------------


class Carrier:
    """The elements a text names, built from ``one``, the unit of any carrier
    and context: numbers scale it, x1..xs are its generators."""

    def __init__(self, one):
        self.constant = one.scale
        self._gens = one.generators()
        self.count = len(self._gens)

    def variable(self, i: int):
        return self._gens[i]


class CommCarrier(Carrier):
    def __init__(self, num_vars: int, laurent_mask: frozenset[int] = frozenset()):
        super().__init__(CommPoly.one(num_vars, laurent_mask))


class WeylCarrier(Carrier):
    def __init__(self, signature: WeylSignature):
        super().__init__(WeylElement.one(signature))
        self.signature = signature


class FreeCarrier(Carrier):
    def __init__(self, num_gens: int):
        super().__init__(FreeElement.one(num_gens))


# -- recursive descent ----------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], carrier: Carrier):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open '(' and unary '-', at most MAX_NESTING
        self.carrier = carrier

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", offset=tok.offset)
        return self.take()

    def index(self, tok: Token) -> int:
        """The 0-based index of a VAR token inside the carrier."""
        if tok.value >= self.carrier.count:
            raise ParseError(f"variable {tok.text} out of range (carrier has "
                             f"{self.carrier.count} generators)", offset=tok.offset)
        return tok.value

    def expr(self):
        node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.take()
            rhs = self.term()
            node = node + rhs if op.kind == "PLUS" else node - rhs
        return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.take()
                node = node * self.factor()
            elif tok.kind in ("NUM", "VAR", "LPAREN"):
                raise ParseError("missing '*' between factors", offset=tok.offset)
            else:
                return node

    def factor(self):
        node = self.atom()
        if self.peek().kind == "CARET":
            self.take()
            sign = 1
            if self.peek().kind == "MINUS":
                self.take()
                sign = -1
            tok = self.expect("NUM", "an integer exponent")
            if tok.value.denominator != 1:
                raise ParseError("exponent must be an integer", offset=tok.offset)
            try:
                node = node ** (sign * int(tok.value))
            except LndError as exc:  # the carrier's refusal, at the exponent
                raise ParseError(str(exc), offset=tok.offset) from None
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "NUM":
            return self.carrier.constant(tok.value)
        if tok.kind == "VAR":
            return self.carrier.variable(self.index(tok))
        if tok.kind not in ("LPAREN", "MINUS"):
            raise ParseError("expected a number, variable, or '('", offset=tok.offset)
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset=tok.offset)
        self.depth += 1
        node = -self.factor() if tok.kind == "MINUS" else self.expr()
        if tok.kind == "LPAREN":
            self.expect("RPAREN", "')'")
        self.depth -= 1
        return node


def parse_element(text: str, carrier: Carrier):
    parser = _Parser(tokenize(text), carrier)
    node = parser.expr()
    tok = parser.peek()
    if tok.kind != "END":
        raise ParseError("unexpected trailing input", offset=tok.offset)
    return node


def parse_list(text: str, carrier: Carrier, name: str) -> list:
    """Parse "expr; expr; ..." into its elements, offsets counted from the
    start of ``text``; an empty ``text`` or entry is a UsageError naming
    ``name``."""
    parser = _Parser(tokenize(text), carrier)
    if parser.peek().kind == "END":
        raise UsageError(f"{name} is empty")
    out = []
    while True:
        if parser.peek().kind in ("SEMI", "END"):
            raise UsageError(f"{name} entry {len(out) + 1} is empty")
        out.append(parser.expr())
        tok = parser.take()
        if tok.kind == "END":
            return out
        if tok.kind != "SEMI":
            raise ParseError("unexpected trailing input", offset=tok.offset)


def parse_images(text: str, carrier: Carrier) -> list:
    """Parse "x1 -> expr; x2 -> expr; ..." into a 0-indexed image list with
    every generator assigned exactly once."""
    parser = _Parser(tokenize(text), carrier)
    images: dict[int, object] = {}
    while True:
        var = parser.expect("VAR", "a generator on the left of '->'")
        index = parser.index(var)
        if index in images:
            raise ParseError(f"image for {var.text} given twice", offset=var.offset)
        parser.expect("ARROW", "'->'")
        images[index] = parser.expr()
        tok = parser.peek()
        if tok.kind == "SEMI":
            parser.take()
            continue
        if tok.kind == "END":
            break
        raise ParseError("expected ';' or end of input", offset=tok.offset)
    for i in range(carrier.count):
        if i not in images:
            raise ParseError(f"missing image for x{i + 1}", offset=len(text))
    return [images[i] for i in range(carrier.count)]
