"""Free associative algebra F_k over the rationals.

``FreeElement(num_gens, terms=None)`` sits on the shared core of
``sparse.SparseElement`` with words as keys: tuples of generator indices,
the empty word being the unit, the degree of a word its length.  The
derivation partial_i sends a word to the sum of the words obtained by
deleting one occurrence of x_{i+1} at a time, which makes the partials
commuting locally nilpotent derivations with partial_i(x_j) = delta_ij.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .formatting import Scalar
from .sparse import SparseElement

Word = tuple[int, ...]


class FreeElement(SparseElement):
    __slots__ = ()

    num_gens = SparseElement._ctx  # the context slot under its public name
    _kind = "a free algebra"
    _key_degree = staticmethod(len)

    @staticmethod
    def _size(num_gens: int) -> int:
        return num_gens

    @staticmethod
    def _check_key(num_gens: int, word: Word) -> None:
        if any(not 0 <= g < num_gens for g in word):
            raise IndexError(f"letter out of range in word {word}")

    @staticmethod
    def _const_key(n: int) -> Word:
        return ()

    @staticmethod
    def _gen_key(n: int, i: int) -> Word:
        return (i,)

    @staticmethod
    def _sort_key(word: Word) -> tuple:
        # longer words first, lexicographically descending within a length
        return len(word), word

    @property
    def algebra(self) -> str:
        return f"F_{self.num_gens}"

    def is_central(self) -> bool:
        """Constants only: the centre of F_k for k >= 2, applied for every k."""
        return self.is_constant()

    def homogeneous_keys(self, degree: int) -> list[Word]:
        return list(product(range(self.num_gens), repeat=degree))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[Word, Scalar] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                key = wa + wb
                out[key] = out.get(key, 0) + ca * cb
        return self._from_sums(out)

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
        return self._from_sums(out)

    def _monomial_text(self, word: Word) -> str:
        pieces = []
        for letter in word:
            if pieces and pieces[-1][0] == letter:
                pieces[-1][1] += 1
            else:
                pieces.append([letter, 1])
        return "*".join(
            f"x{g + 1}" if e == 1 else f"x{g + 1}^{e}" for g, e in pieces
        )
