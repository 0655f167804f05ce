"""Commutative polynomial carrier with optional Laurent variables.

``CommPoly`` is a sparse exact polynomial over the rationals in variables
x1..xs.  Exponents are non-negative except at positions listed in
``laurent_mask``, which are invertible (Laurent) variables.  Coefficients
are ``int`` when integral and ``Fraction`` (denominator > 1) otherwise
(``formatting.canonical``).  Values are immutable after construction; all
arithmetic returns new objects.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import LndError, SignatureMismatchError
from .formatting import Scalar, canonical, render_terms
from .multiindex import MultiIndex, term_order_key


class CommPoly:
    __slots__ = ("num_vars", "laurent_mask", "terms")

    def __init__(
        self,
        num_vars: int,
        terms: dict[MultiIndex, Scalar] | None = None,
        laurent_mask: frozenset[int] = frozenset(),
    ):
        mask = frozenset(laurent_mask)
        clean: dict[MultiIndex, Scalar] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise SignatureMismatchError(
                    f"exponent tuple of length {len(exps)}, expected {num_vars}"
                )
            for i, e in enumerate(exps):
                if e < 0 and i not in mask:
                    raise LndError(f"negative exponent on noninvertible variable x{i + 1}")
            c = canonical(coeff)
            if c:
                clean[exps] = canonical(clean.get(exps, 0) + c)
                if not clean[exps]:
                    del clean[exps]
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "laurent_mask", mask)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("CommPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int, laurent_mask: frozenset[int] = frozenset()) -> CommPoly:
        return cls(num_vars, {}, laurent_mask)

    @classmethod
    def constant(
        cls, num_vars: int, value: Scalar, laurent_mask: frozenset[int] = frozenset()
    ) -> CommPoly:
        return cls(num_vars, {(0,) * num_vars: value}, laurent_mask)

    @classmethod
    def one(cls, num_vars: int, laurent_mask: frozenset[int] = frozenset()) -> CommPoly:
        return cls.constant(num_vars, 1, laurent_mask)

    @classmethod
    def variable(
        cls, num_vars: int, i: int, laurent_mask: frozenset[int] = frozenset()
    ) -> CommPoly:
        if not 0 <= i < num_vars:
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(1 if j == i else 0 for j in range(num_vars))
        return cls(num_vars, {exps: 1}, laurent_mask)

    @classmethod
    def monomial(
        cls,
        num_vars: int,
        exponents: MultiIndex,
        coeff: Scalar = 1,
        laurent_mask: frozenset[int] = frozenset(),
    ) -> CommPoly:
        return cls(num_vars, {tuple(exponents): coeff}, laurent_mask)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.num_vars, 0)

    def total_degree(self) -> int:
        """Max over terms of the exponent sum; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[MultiIndex, Scalar]]:
        return sorted(self.terms.items(), key=lambda t: term_order_key(t[0]), reverse=True)

    def _check_compatible(self, other: CommPoly) -> None:
        if self.num_vars != other.num_vars or self.laurent_mask != other.laurent_mask:
            raise SignatureMismatchError("polynomials live over different variable sets")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: CommPoly) -> CommPoly:
        self._check_compatible(other)
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, 0) + c
        return CommPoly(self.num_vars, merged, self.laurent_mask)

    def __sub__(self, other: CommPoly) -> CommPoly:
        return self + (-other)

    def __neg__(self) -> CommPoly:
        return CommPoly(
            self.num_vars, {e: -c for e, c in self.terms.items()}, self.laurent_mask
        )

    def scale(self, factor: Scalar) -> CommPoly:
        f = canonical(factor)
        return CommPoly(
            self.num_vars, {e: c * f for e, c in self.terms.items()}, self.laurent_mask
        )

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
        return CommPoly(self.num_vars, out, self.laurent_mask)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> CommPoly:
        if k < 0:
            return self._unit_inverse() ** (-k)
        out = CommPoly.one(self.num_vars, self.laurent_mask)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def _unit_inverse(self) -> CommPoly:
        """Inverse of an invertible monomial c*x^e with e supported on the mask."""
        if len(self.terms) != 1:
            raise LndError("negative power of a non-monomial element")
        (exps, coeff), = self.terms.items()
        for i, e in enumerate(exps):
            if e and i not in self.laurent_mask:
                raise LndError(f"variable x{i + 1} is not invertible")
        return CommPoly(
            self.num_vars,
            {tuple(-e for e in exps): Fraction(1) / coeff},
            self.laurent_mask,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CommPoly)
            and self.num_vars == other.num_vars
            and self.laurent_mask == other.laurent_mask
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.laurent_mask, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> CommPoly:
        """Formal partial derivative in x_{i+1}; Laurent exponents follow the
        same power rule (d/dx x^-k = -k x^-k-1)."""
        if not 0 <= i < self.num_vars:
            raise IndexError(f"variable index {i} out of range")
        out: dict[MultiIndex, Scalar] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1:]
            out[key] = out.get(key, 0) + c * e
        return CommPoly(self.num_vars, out, self.laurent_mask)

    def substitute(self, images: list[CommPoly]) -> CommPoly:
        """Simultaneous substitution x_i -> images[i].

        A negative exponent at position i requires images[i] to be an
        invertible monomial; otherwise the substitution is rejected.
        """
        if len(images) != self.num_vars:
            raise SignatureMismatchError(
                f"{len(images)} images for {self.num_vars} variables"
            )
        for img in images[1:]:
            images[0]._check_compatible(img)
        target = images[0] if images else CommPoly.one(0)
        out = CommPoly.zero(target.num_vars, target.laurent_mask)
        power_cache: dict[tuple[int, int], CommPoly] = {}

        def powed(i: int, e: int) -> CommPoly:
            key = (i, e)
            if key not in power_cache:
                power_cache[key] = images[i] ** e
            return power_cache[key]

        for exps, c in self.terms.items():
            term = CommPoly.constant(target.num_vars, c, target.laurent_mask)
            for i, e in enumerate(exps):
                if e:
                    term = term * powed(i, e)
            out = out + term
        return out

    # -- text --------------------------------------------------------------

    def _monomial_text(self, exps: MultiIndex) -> str:
        positive = [(i, e) for i, e in enumerate(exps) if e > 0]
        negative = [(i, e) for i, e in enumerate(exps) if e < 0]
        pieces = []
        for i, e in positive + negative:
            pieces.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
        return "*".join(pieces)

    def __str__(self) -> str:
        return render_terms(
            [(self._monomial_text(e), c) for e, c in self.sorted_terms()]
        )

    def __repr__(self) -> str:
        return f"CommPoly({self.num_vars}, {str(self)!r})"


def jacobian_det(images: list[CommPoly]) -> CommPoly:
    """det(d images_i / d x_j) over a square system, by cofactor expansion."""
    m = len(images)
    if m == 0:
        raise LndError("empty system has no Jacobian")
    for img in images:
        if img.num_vars != m:
            raise SignatureMismatchError(
                f"system of {m} images over {img.num_vars} variables is not square"
            )
    rows = [[img.partial(j) for j in range(m)] for img in images]
    return _det(rows)


def _det(rows: list[list[CommPoly]]) -> CommPoly:
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(len(rows)) if k != j] for row in rows[1:]]
        piece = entry * _det(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    if total is None:
        some = rows[0][0]
        return CommPoly.zero(some.num_vars, some.laurent_mask)
    return total
