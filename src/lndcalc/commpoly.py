"""Commutative polynomial carrier with optional Laurent variables.

``CommPoly(num_vars, terms=None, laurent_mask=frozenset())`` is a sparse
exact polynomial over the rationals in variables x1..xs, on the shared core
of ``sparse.SparseElement``.  Exponents are non-negative except at
positions listed in ``laurent_mask``, which are invertible (Laurent)
variables; keys are exponent vectors, and a monomial in those variables
has negative powers: a ** -k is the inverse of a unit monomial a to the
power k, and a ** k for k >= 0 is ``SparseElement``'s k successive products.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import LndError, SignatureMismatchError, UsageError
from .formatting import Scalar
from .multiindex import MultiIndex
from .sparse import SparseElement


class CommPoly(SparseElement):
    __slots__ = ()

    num_vars = property(lambda self: self._ctx[0])
    laurent_mask = property(lambda self: self._ctx[1])

    @staticmethod
    def _context(num_vars: int, laurent_mask: frozenset[int] = frozenset()):
        mask = frozenset(laurent_mask)
        if bad := [i for i in sorted(mask) if not 0 <= i < num_vars]:
            raise UsageError(f"Laurent mask index {bad[0]} names no variable of P_{num_vars}")
        return num_vars, mask

    @staticmethod
    def _size(ctx) -> int:
        return ctx[0]

    @staticmethod
    def _check_key(ctx, exps: MultiIndex) -> None:
        num_vars, mask = ctx
        if len(exps) != num_vars:
            raise SignatureMismatchError(
                f"exponent tuple of length {len(exps)}, expected {num_vars}"
            )
        for i, e in enumerate(exps):
            if e < 0 and i not in mask:
                raise LndError(f"negative exponent on noninvertible variable x{i + 1}")

    @property
    def algebra(self) -> str:
        units = ",".join(f"x{i + 1}" for i in sorted(self.laurent_mask))
        return f"P_{self.num_vars}" + (f" (Laurent {units})" if units else "")

    @classmethod
    def variable(
        cls, num_vars: int, i: int, laurent_mask: frozenset[int] = frozenset()
    ) -> CommPoly:
        return cls.generator(num_vars, i, laurent_mask)

    def is_central(self) -> bool:
        return True

    def invertible_indices(self) -> list[int]:
        return sorted(self.laurent_mask)

    def homogeneous_keys(self, degree: int) -> list[MultiIndex]:
        if self.laurent_mask:
            # a Laurent carrier's graded components are infinite
            raise UsageError("kernel oracle needs a plain polynomial carrier")
        return super().homogeneous_keys(degree)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[MultiIndex, Scalar] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                acc = out.get(key)
                out[key] = ca * cb if acc is None else acc + ca * cb
        return self._from_sums(out)

    def __pow__(self, k: int) -> CommPoly:
        if k < 0:
            return self._unit_inverse() ** (-k)
        return super().__pow__(k)

    def _unit_inverse(self) -> CommPoly:
        """Inverse of an invertible monomial c*x^e with e supported on the mask."""
        if len(self.terms) != 1:
            raise LndError("negative power of a non-monomial element")
        (exps, coeff), = self.terms.items()
        for i, e in enumerate(exps):
            if e and i not in self.laurent_mask:
                raise LndError(f"variable x{i + 1} is not invertible")
        return self.like({tuple(-e for e in exps): Fraction(1) / coeff})
