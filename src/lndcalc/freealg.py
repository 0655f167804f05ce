"""Free associative algebra F_k over the rationals.

Basis words are tuples of generator indices; the empty word is the unit.
The derivation partial_i sends a word to the sum of the words obtained by
deleting one occurrence of x_{i+1} at a time, which makes the partials
commuting locally nilpotent derivations with partial_i(x_j) = delta_ij.
Coefficients are ``int`` when integral and ``Fraction`` (denominator > 1)
otherwise (``formatting.canonical``).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LndError, SignatureMismatchError
from .formatting import Scalar, canonical, render_terms

Word = tuple[int, ...]


class FreeElement:
    __slots__ = ("num_gens", "terms")

    def __init__(self, num_gens: int, terms: dict[Word, Scalar] | None = None):
        clean: dict[Word, Scalar] = {}
        for word, coeff in (terms or {}).items():
            word = tuple(word)
            if any(not 0 <= g < num_gens for g in word):
                raise IndexError(f"letter out of range in word {word}")
            c = canonical(coeff)
            if c:
                clean[word] = canonical(clean.get(word, 0) + c)
                if not clean[word]:
                    del clean[word]
        object.__setattr__(self, "num_gens", num_gens)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FreeElement is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_gens: int) -> FreeElement:
        return cls(num_gens, {})

    @classmethod
    def constant(cls, num_gens: int, value: Scalar) -> FreeElement:
        return cls(num_gens, {(): value})

    @classmethod
    def one(cls, num_gens: int) -> FreeElement:
        return cls.constant(num_gens, 1)

    @classmethod
    def generator(cls, num_gens: int, i: int) -> FreeElement:
        if not 0 <= i < num_gens:
            raise IndexError(f"generator index {i} out of range")
        return cls(num_gens, {(i,): 1})

    @classmethod
    def word(cls, num_gens: int, letters: Word, coeff: Scalar = 1) -> FreeElement:
        return cls(num_gens, {tuple(letters): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not w for w in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((), 0)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def sorted_terms(self) -> list[tuple[Word, Scalar]]:
        # Longer words first, lexicographically descending within a length.
        return sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0]), reverse=True)

    def _check_compatible(self, other: FreeElement) -> None:
        if self.num_gens != other.num_gens:
            raise SignatureMismatchError("free elements over different generator counts")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: FreeElement) -> FreeElement:
        self._check_compatible(other)
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0) + c
        return FreeElement(self.num_gens, merged)

    def __sub__(self, other: FreeElement) -> FreeElement:
        return self + (-other)

    def __neg__(self) -> FreeElement:
        return FreeElement(self.num_gens, {w: -c for w, c in self.terms.items()})

    def scale(self, factor: Scalar) -> FreeElement:
        f = canonical(factor)
        return FreeElement(self.num_gens, {w: c * f for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[Word, Scalar] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                key = wa + wb
                out[key] = out.get(key, 0) + ca * cb
        return FreeElement(self.num_gens, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> FreeElement:
        if k < 0:
            raise LndError("negative powers do not exist in a free algebra")
        out = FreeElement.one(self.num_gens)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FreeElement)
            and self.num_gens == other.num_gens
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_gens, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> FreeElement:
        """Delete one occurrence of x_{i+1} from each word, summed over
        occurrences."""
        if not 0 <= i < self.num_gens:
            raise IndexError(f"generator index {i} out of range")
        out: dict[Word, Scalar] = {}
        for word, c in self.terms.items():
            for pos, letter in enumerate(word):
                if letter == i:
                    key = word[:pos] + word[pos + 1:]
                    out[key] = out.get(key, 0) + c
        return FreeElement(self.num_gens, out)

    def multi_partial(self, alpha: tuple[int, ...], divide: bool = False) -> FreeElement:
        from .multiindex import multi_factorial

        if len(alpha) != self.num_gens:
            raise SignatureMismatchError("multi-index length does not match generators")
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.partial(i)
                if out.is_zero():
                    break
        if divide:
            out = out.scale(Fraction(1, multi_factorial(alpha)))
        return out

    # -- text --------------------------------------------------------------

    def _word_text(self, word: Word) -> str:
        pieces = []
        for letter in word:
            if pieces and pieces[-1][0] == letter:
                pieces[-1][1] += 1
            else:
                pieces.append([letter, 1])
        return "*".join(
            f"x{g + 1}" if e == 1 else f"x{g + 1}^{e}" for g, e in pieces
        )

    def __str__(self) -> str:
        return render_terms([(self._word_text(w), c) for w, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"FreeElement({self.num_gens}, {str(self)!r})"


def ad(u: FreeElement, a: FreeElement) -> FreeElement:
    """The inner derivation ad(u): a -> u*a - a*u."""
    return u * a - a * u
