"""The character-loop scanner lndcalc's tokenizer used to be, kept as an oracle.

``tokenize`` here walks the text one character at a time; the library's
``lndcalc.parsing.tokenize`` states the same token grammar as one regular
expression.  Both return equal ``Token`` lists, or raise a ``ParseError``
with equal message and offset, on any text, except where this scanner dies
with a ``ValueError``: it takes every character ``str.isdigit`` accepts
(``²``, ``¹``, ...) into a number that ``int`` then refuses, and it has no
guard for digit runs past the interpreter's integer-text limit.
"""

from fractions import Fraction

from lndcalc.errors import ParseError
from lndcalc.parsing import Token

_SIMPLE = {
    "+": "PLUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    ";": "SEMI",
}


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
