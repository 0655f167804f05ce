"""Text input for carrier elements and generator-image lists.

Grammar (whitespace insensitive, offsets are 0-based byte positions):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := atom ('^' ['-'] integer)?
    atom    := number | variable | '(' expr ')' | '-' factor
    number  := digits ['/' digits]
    variable:= 'x' digits          (1-based)

Juxtaposition is rejected ("2x1" needs the explicit '*').  Variables are
written 1-based on the wire and converted to 0-based indices internally.
Image lists use arrows: "x1 -> x1 + x2; x2 -> x2" with every generator
assigned exactly once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .commpoly import CommPoly
from .errors import LndError, ParseError, UsageError
from .freealg import FreeElement
from .weyl import WeylElement, WeylSignature

_SIMPLE = {
    "+": "PLUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
}


class Token(NamedTuple):
    kind: str
    text: str
    offset: int
    value: object = None


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = int(text[i:j])
            den = 1
            if j < n and text[j] == "/":
                k = j + 1
                if k >= n or not text[k].isdigit():
                    raise ParseError("expected digits after '/'", offset=j + 1)
                j = k
                while j < n and text[j].isdigit():
                    j += 1
                den = int(text[k:j])
                if den == 0:
                    raise ParseError("zero denominator", offset=k)
            out.append(Token("NUM", text[i:j], i, Fraction(num, den)))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("expected a variable index after 'x'", offset=i)
            index = int(text[i + 1 : j])
            if index < 1:
                raise ParseError("variable indices start at x1", offset=i)
            out.append(Token("VAR", text[i:j], i, index - 1))
            i = j
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                out.append(Token("ARROW", "->", i))
                i += 2
                continue
            out.append(Token("MINUS", "-", i))
            i += 1
            continue
        if ch in _SIMPLE:
            out.append(Token(_SIMPLE[ch], ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", offset=i)
    out.append(Token("END", "", n))
    return out


# -- carriers ------------------------------------------------------------------


class CommCarrier:
    def __init__(self, num_vars: int, laurent_mask: frozenset[int] = frozenset()):
        self.count = num_vars
        self.laurent_mask = laurent_mask

    def constant(self, value: Fraction) -> CommPoly:
        return CommPoly.constant(self.count, value, self.laurent_mask)

    def variable(self, i: int) -> CommPoly:
        return CommPoly.variable(self.count, i, self.laurent_mask)


class WeylCarrier:
    def __init__(self, signature: WeylSignature):
        self.signature = signature
        self.count = signature.s

    def constant(self, value: Fraction) -> WeylElement:
        return WeylElement.constant(self.signature, value)

    def variable(self, i: int) -> WeylElement:
        return WeylElement.generator(self.signature, i)


class FreeCarrier:
    def __init__(self, num_gens: int):
        self.count = num_gens

    def constant(self, value: Fraction) -> FreeElement:
        return FreeElement.constant(self.count, value)

    def variable(self, i: int) -> FreeElement:
        return FreeElement.generator(self.count, i)


Carrier = CommCarrier | WeylCarrier | FreeCarrier


# -- recursive descent ----------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], carrier: Carrier):
        self.tokens = tokens
        self.pos = 0
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
            except LndError as exc:
                if isinstance(exc, ParseError):
                    raise
                raise ParseError(str(exc), offset=tok.offset) from None
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUM":
            self.take()
            return self.carrier.constant(tok.value)
        if tok.kind == "VAR":
            self.take()
            if tok.value >= self.carrier.count:
                raise ParseError(
                    f"variable {tok.text} out of range (carrier has "
                    f"{self.carrier.count} generators)",
                    offset=tok.offset,
                )
            return self.carrier.variable(tok.value)
        if tok.kind == "LPAREN":
            self.take()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "MINUS":
            self.take()
            return -self.factor()
        raise ParseError("expected a number, variable, or '('", offset=tok.offset)


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
        if var.value >= carrier.count:
            raise ParseError(
                f"variable {var.text} out of range (carrier has "
                f"{carrier.count} generators)",
                offset=var.offset,
            )
        if var.value in images:
            raise ParseError(f"image for {var.text} given twice", offset=var.offset)
        parser.expect("ARROW", "'->'")
        images[var.value] = parser.expr()
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
