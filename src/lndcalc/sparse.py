"""The sparse exact-coefficient core shared by the three carriers.

An element is a context, which fixes the generators (``CommPoly``: variable
count and Laurent mask; ``WeylElement``: the signature; ``FreeElement``:
the letter count), and ``terms``, a map from monomial keys to nonzero
coefficients in canonical form: an ``int`` when integral, else a
``Fraction`` with denominator > 1 (``formatting.canonical``).  Elements are
immutable; arithmetic returns new ones, built by a trusted constructor that
skips the validation the public constructor applies to outside input.

``SparseElement`` holds all that does not depend on what a key means: both
constructors, ``zero``/``one``/``constant``/``generator``/``monomial``, the
queries, ``+ - neg scale``, ``==``/``hash``, powers, ``multi_partial``, the
printed form, and the element-level ``generators()``, ``like(terms)``,
``degrees()`` and ``homogeneous_keys(d)`` that the layers above use instead
of testing which carrier they hold.  A carrier supplies the hooks

    _context, _size, _check_key   context from the constructor arguments,
                                  its generator count, key validation
    _const_key, _gen_key          keys of 1 and of the generators
    _key_degree                   degree of a key
    _monomial_text, _sort_key     printed form and printing order
    partial, is_central, __mul__  the calculus, the centre and the product
    algebra, _kind                names of the algebra in messages

The defaults below are those of exponent-vector keys (commutative and
normal-ordered Weyl monomials); ``FreeElement`` overrides them for words.
Operands of different carriers or contexts raise ``SignatureMismatchError``.

Two pieces of algebra over elements also live here, written once for every
carrier: ``det(rows)``, a determinant by cofactor expansion (the entries
must commute), and ``substitute(a, images)``, the image of an exponent-vector
element under x_i -> images[i].  Only the automorphisms call them:
``Automorphism.apply`` calls ``substitute``, and the checks that
``aut_verify`` runs (and ``twisted_partials``) call ``det``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LndError, SignatureMismatchError
from .formatting import Scalar, canonical, render_terms
from .multiindex import MultiIndex, iter_layer, term_order_key


class SparseElement:
    """Constructed as ``Carrier(size, terms=None, *rest)``: ``size`` and
    ``rest`` are the carrier's context arguments, ``terms`` a map from keys
    to rationals, validated, merged and put in canonical form."""

    __slots__ = ("_ctx", "terms")

    _kind = "this algebra"  # in the negative-power error: "a Weyl algebra"

    def __init__(self, size, terms: dict | None = None, *rest):
        ctx = self._context(size, *rest)
        _set_ctx(self, ctx)
        _set_terms(self, self._clean(ctx, terms))

    @classmethod
    def _clean(cls, ctx, terms: dict | None) -> dict:
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            cls._check_key(ctx, key)
            c = canonical(coeff)
            if c:
                clean[key] = canonical(clean.get(key, 0) + c)
                if not clean[key]:
                    del clean[key]
        return clean

    @classmethod
    def _trusted(cls, ctx, terms: dict):
        """Wrap terms that are already clean: valid keys, nonzero canonical
        coefficients.  Internal use only."""
        out = object.__new__(cls)
        _set_ctx(out, ctx)
        _set_terms(out, terms)
        return out

    def _like(self, terms: dict):
        """A trusted element of the same carrier and context."""
        return self._trusted(self._ctx, terms)

    def like(self, terms: dict):
        """The element of the same carrier and context with these terms
        (validated like the constructor's)."""
        return self._trusted(self._ctx, self._clean(self._ctx, terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- hooks (exponent-vector defaults) ------------------------------------

    @staticmethod
    def _context(size, *rest):
        return size

    @staticmethod
    def _const_key(n: int) -> MultiIndex:
        return (0,) * n

    @staticmethod
    def _gen_key(n: int, i: int) -> MultiIndex:
        return tuple(int(j == i) for j in range(n))

    _key_degree = staticmethod(sum)
    _sort_key = staticmethod(term_order_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, size, *rest):
        return cls._trusted(cls._context(size, *rest), {})

    @classmethod
    def constant(cls, size, value: Scalar, *rest):
        ctx = cls._context(size, *rest)
        c = canonical(value)
        return cls._trusted(ctx, {cls._const_key(cls._size(ctx)): c} if c else {})

    @classmethod
    def one(cls, size, *rest):
        return cls.constant(size, 1, *rest)

    @classmethod
    def generator(cls, size, i: int, *rest):
        ctx = cls._context(size, *rest)
        n = cls._size(ctx)
        if not 0 <= i < n:
            raise IndexError(f"generator index {i} out of range")
        return cls._trusted(ctx, {cls._gen_key(n, i): 1})

    @classmethod
    def monomial(cls, size, key, coeff: Scalar = 1, *rest):
        return cls(size, {tuple(key): coeff}, *rest)

    def generators(self) -> list:
        """The generators x1..xs of this element's carrier."""
        n = self._size(self._ctx)
        return [self._like({self._gen_key(n, i): 1}) for i in range(n)]

    def homogeneous_keys(self, degree: int) -> list:
        """Keys of the degree-d component, in basis order."""
        return list(iter_layer(self._size(self._ctx), degree))

    def invertible_indices(self) -> list[int]:
        """Indices of the generators that are units (none by default)."""
        return []

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= {self._const_key(self._size(self._ctx))}

    def constant_term(self) -> Scalar:
        return self.terms.get(self._const_key(self._size(self._ctx)), 0)

    def total_degree(self) -> int:
        """Max over terms of the key degree; -1 for the zero element."""
        return max(map(self._key_degree, self.terms), default=-1)

    def degrees(self) -> set[int]:
        """The degrees of the keys that occur."""
        return set(map(self._key_degree, self.terms))

    def sorted_terms(self) -> list[tuple]:
        key = self._sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self) or other._ctx != self._ctx:
            theirs = other.algebra if isinstance(other, SparseElement) else type(other).__name__
            raise SignatureMismatchError(f"elements of {self.algebra} and {theirs}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for key, c in other.terms.items():
            prev = merged.get(key)
            if prev is None:
                merged[key] = c
            elif total := prev + c:
                merged[key] = canonical(total)
            else:
                del merged[key]
        return self._like(merged)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, factor: Scalar):
        f = canonical(factor)
        if not f:
            return self._like({})
        return self._like({k: canonical(c * f) for k, c in self.terms.items()})

    def _from_sums(self, out: dict):
        """The element of accumulated sums ``out``: zeros dropped, canonical."""
        return self._like({k: canonical(c) for k, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise LndError(f"negative powers do not exist in {self._kind}")
        out = self._like({self._const_key(self._size(self._ctx)): 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._ctx == other._ctx and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._ctx, frozenset(self.terms.items())))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int):
        """The i-th partial derivative: the power rule in exponent i
        (d/dx x^-k = -k x^-k-1 on a Laurent variable)."""
        if not 0 <= i < self._size(self._ctx):
            raise IndexError(f"generator index {i} out of range")
        out: dict = {}
        for exps, c in self.terms.items():
            if e := exps[i]:
                # distinct monomials stay distinct after lowering exponent i
                out[exps[:i] + (e - 1,) + exps[i + 1:]] = canonical(c * e)
        return self._like(out)

    def multi_partial(self, alpha: MultiIndex):
        """Apply d^alpha = prod partial_i^alpha_i."""
        if len(alpha) != self._size(self._ctx):
            raise SignatureMismatchError("multi-index length does not match the generators")
        out = self
        for i, a in enumerate(alpha):
            for _ in range(a):
                out = out.partial(i)
                if out.is_zero():
                    break
        return out

    # -- text --------------------------------------------------------------

    def _monomial_text(self, exps: MultiIndex) -> str:
        """Positive exponents first, then the negative (Laurent) ones."""
        order = [(i, e) for i, e in enumerate(exps) if e > 0]
        order += [(i, e) for i, e in enumerate(exps) if e < 0]
        return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in order)

    def __str__(self) -> str:
        return render_terms([(self._monomial_text(k), c) for k, c in self.sorted_terms()])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.algebra}, {str(self)!r})"


_set_ctx = SparseElement._ctx.__set__
_set_terms = SparseElement.terms.__set__


def det(rows: list[list]):
    """Determinant of a square matrix of elements by cofactor expansion along
    the first row.  The entries must commute with each other (``CommPoly``,
    or central elements of a Weyl algebra): the expansion fixes no order of
    the factors."""
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(len(rows)) if k != j] for row in rows[1:]]
        piece = entry * det(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    return rows[0][0].scale(0) if total is None else total


def substitute(a: SparseElement, images: list):
    """sum c * images[0]^e1 * ... * images[s-1]^es over the terms c*x^e of
    ``a`` (exponent-vector keys), in the carrier of ``images`` (non-empty,
    one per generator of ``a``; the caller checks them).

    Terms go in descending key order, so the monomials that share a prefix
    x1^e1 ... xi^ei are adjacent: each prefix image is one product, formed
    once and kept on a stack of at most s entries while it is shared.  The
    highest power of x1 comes first, so a product over the degree cap
    fails before the rest of the work is done.  Powers are cached and built
    one factor at a time; exponents are non-negative."""
    s = len(images)
    chains: list[list] = [[img] for img in images]  # chains[i]: images[i]^1, ^2, ...

    def power(i: int, e: int):
        chain = chains[i]
        while len(chain) < e:
            chain.append(chain[-1] * chain[0])
        return chain[e - 1]

    unit = images[0] ** 0
    total = unit.scale(0)
    stack: list = []  # stack[i]: image of the current key's prefix through x_(i+1)
    prev = None
    for key in sorted(a.terms, reverse=True):
        if prev is not None:
            del stack[next(i for i in range(s) if key[i] != prev[i]):]
        piece = stack[-1] if stack else None
        for i in range(len(stack), s):
            if e := key[i]:
                piece = power(i, e) if piece is None else piece * power(i, e)
            stack.append(piece)
        total = total + (unit if piece is None else piece).scale(a.terms[key])
        prev = key
    return total
