"""Weyl algebra tensored with a polynomial part: A(n, m) = A_n (x) P_m.

Generators x1..xs with s = 2n + m: the first n are coordinates, the next n
their momenta ([x_{n+i}, x_i] = 1, all other pairs commute), the last m are
central.  Elements are kept in normal order, monomials x1^a1 * ... * xs^as
with the factors in generator order; the basis coefficient map is sparse.

The product of two normal monomials is closed form: for a single pair,
p^a q^b = sum_j j! C(a,j) C(b,j) q^(b-j) p^(a-j), and distinct pairs act
independently.  (An iterative single-swap rewriter reproducing this is kept
in the test suite as an oracle.)

The swap rows of a pair of monomials (swap counts k, factor prod_i k_i!
C(a_i,k_i) C(b_i,k_i)) depend only on the left momentum and the right
coordinate exponents; they sit in a bounded cache keyed by that exponent
pair, so a pair that cannot swap (the common case) costs one lookup.

The bracket ad(u)(a) = u*a - a*u is formed in one pass: for each pair of
monomials the zero-swap term of u*a and of a*u is the same key with the same
coefficient and cancels, so only the terms with at least one swap are
emitted (the swap rows of u*a added and those of a*u subtracted in one
dict), and neither product is built.  On P_m (n = 0) every bracket is 0.

The degree cap applies to the normal form.  No term of a product (or
bracket) exceeds maxdeg(a) + maxdeg(b), so the result is scanned only when
that bound exceeds the cap; the cap rejects exactly what a full scan would.

``WeylElement(signature, terms=None)`` sits on the shared core of
``sparse.SparseElement``: exact coefficients in canonical form (an ``int``
when integral, so integer products never build a ``Fraction``) and a
trusted constructor for arithmetic results.  Keys are exponent vectors, and
every partial acts on normal monomials by the power rule; for i < 2n this
agrees with the inner derivations ad(x_{n+i}) resp. -ad(x_{i-n}) (the test
suite asserts it).

n = 0 degenerates to the commutative polynomial algebra P_m, which is how
polynomial automorphisms are represented downstream.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from operator import add, sub

from .errors import CapExceededError, LndError, SignatureMismatchError
from .formatting import Scalar, canonical
from .multiindex import MultiIndex
from .sparse import SparseElement

#: Default bound on the total degree of any normal form produced by a product.
DEGREE_CAP = 64


class WeylSignature(namedtuple("WeylSignature", "n m")):
    __slots__ = ()

    def __new__(cls, n: int, m: int):
        if n < 0 or m < 0:
            raise LndError("signature requires n >= 0 and m >= 0")
        if 2 * n + m < 1:
            raise LndError("signature requires at least one generator")
        return super().__new__(cls, n, m)

    @property
    def s(self) -> int:
        return 2 * self.n + self.m

    def __str__(self) -> str:
        return f"A({self.n},{self.m})"


class WeylElement(SparseElement):
    __slots__ = ()

    signature = SparseElement._ctx  # the context slot under its public name
    _kind = "a Weyl algebra"

    @staticmethod
    def _size(signature: WeylSignature) -> int:
        return signature.s

    @staticmethod
    def _check_key(signature: WeylSignature, exps: MultiIndex) -> None:
        if len(exps) != signature.s:
            raise SignatureMismatchError(f"monomial of length {len(exps)} in {signature}")
        if any(e < 0 for e in exps):
            raise LndError("negative exponent in a Weyl monomial")

    @property
    def algebra(self) -> str:
        return str(self.signature)

    def is_central(self) -> bool:
        """True when only central generators occur."""
        nn = 2 * self.signature.n
        return all(not any(e[:nn]) for e in self.terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return weyl_mul(self, other)


@functools.lru_cache(maxsize=4096)
def _swap_rows(p: MultiIndex, q: MultiIndex, s: int) -> tuple[tuple[MultiIndex, int], ...]:
    """(drop, factor) for the terms of x^ea * x^eb with at least one swap,
    where p = ea[n:2n] are the momentum exponents on the left and q = eb[:n]
    the coordinate exponents on the right: the term with k_i swaps in pair i
    has key ea + eb - drop, drop = (k, k, 0, ..., 0) of length s, and factor
    prod_i k_i! C(p_i, k_i) C(q_i, k_i).  The zero-swap term x^(ea+eb) with
    factor 1 is left to the caller; no pair can swap when the rows are empty."""
    swaps = [min(a, b) for a, b in zip(p, q)]
    if not any(swaps):
        return ()
    pad = (0,) * (s - 2 * len(p))
    rows = []
    for k in itertools.product(*(range(v + 1) for v in swaps)):
        if not any(k):
            continue
        factor = 1
        for ki, a, b in zip(k, p, q):
            if ki:
                factor *= math.factorial(ki) * math.comb(a, ki) * math.comb(b, ki)
        rows.append((k + k + pad, factor))
    return tuple(rows)


def _capped(sig: WeylSignature, out: dict, bound: int) -> WeylElement:
    """Canonical result; the cap scan runs if ``bound`` (>= any degree) exceeds
    DEGREE_CAP."""
    out = {e: canonical(c) for e, c in out.items() if c}
    if bound > DEGREE_CAP:
        for exps in out:
            if sum(exps) > DEGREE_CAP:
                raise CapExceededError(
                    f"degree cap {DEGREE_CAP} exceeded by a normal form of degree {sum(exps)}"
                )
    return WeylElement._trusted(sig, out)


def weyl_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Normal-ordered product.

    Raises CapExceededError when the normal form contains a term of total
    degree above DEGREE_CAP.
    """
    a._check_compatible(b)
    sig = a.signature
    if not a.terms or not b.terms:
        return WeylElement._trusted(sig, {})
    bound = max(map(sum, a.terms)) + max(map(sum, b.terms))
    for x, y in ((a, b), (b, a)):
        if bound <= DEGREE_CAP and len(x.terms) == 1 and not any(e := next(iter(x.terms))):
            return y.scale(x.terms[e])  # a constant operand
    n, s = sig.n, sig.s
    out: dict[MultiIndex, Scalar] = {}
    right = [(eb, cb, eb[:n]) for eb, cb in b.terms.items()]
    for ea, ca in a.terms.items():
        p = ea[n:2 * n]
        for eb, cb, q in right:
            base = ca * cb
            key = tuple(map(add, ea, eb))
            c = out.get(key)
            out[key] = base if c is None else c + base
            if n:
                for drop, factor in _swap_rows(p, q, s):
                    k = tuple(map(sub, key, drop))
                    c = out.get(k)
                    out[k] = base * factor if c is None else c + base * factor
    return _capped(sig, out, bound)


def ad(u: WeylElement, a: WeylElement) -> WeylElement:
    """The inner derivation ad(u): a -> u*a - a*u, in one pass.

    Only swap terms are formed (the zero-swap terms of u*a and a*u cancel);
    DEGREE_CAP applies to the bracket itself, not to the two products.
    """
    u._check_compatible(a)
    sig = u.signature
    n, s = sig.n, sig.s
    if not n or not u.terms or not a.terms:
        return WeylElement._trusted(sig, {})
    out: dict[MultiIndex, Scalar] = {}
    right = [(ea, ca, ea[:n], ea[n:2 * n]) for ea, ca in a.terms.items()]
    for eu, cu in u.terms.items():
        pu, qu = eu[n:2 * n], eu[:n]
        for ea, ca, qa, pa in right:
            ua, au = _swap_rows(pu, qa, s), _swap_rows(pa, qu, s)
            if not (ua or au):
                continue
            base = cu * ca
            key = tuple(map(add, eu, ea))
            for rows, coeff in ((ua, base), (au, -base)):
                for drop, factor in rows:
                    k = tuple(map(sub, key, drop))
                    c = out.get(k)
                    out[k] = coeff * factor if c is None else c + coeff * factor
    return _capped(sig, out, max(map(sum, u.terms)) + max(map(sum, a.terms)))


def combine_partials(a, sig, rows, top: int) -> WeylElement | None:
    """sum_l c_l * partial_l(a) in one dict, for c_l central (never swapping)
    of signature ``sig``; ``rows``: (l, terms of c_l, exps None for a scalar);
    ``top`` >= maxdeg(c_l).  None (go piece by piece) on another carrier or
    signature, an index out of range, or maxdeg(a) - 1 + top > DEGREE_CAP."""
    if type(a) is not WeylElement or sig not in (None, a.signature):
        return None
    terms, s = a.terms, a.signature.s
    if any(not 0 <= l < s for l, _ in rows) or (
            terms and max(map(sum, terms)) - 1 + top > DEGREE_CAP):
        return None
    out: dict[MultiIndex, Scalar] = {}
    for exps, ca in terms.items():
        for l, pairs in rows:
            if e := exps[l]:
                base, v = exps[:l] + (e - 1,) + exps[l + 1:], ca * e
                for ec, cc in pairs:
                    key = base if ec is None else tuple(map(add, base, ec))
                    c = out.get(key)
                    out[key] = v * cc if c is None else c + v * cc
    return _capped(a.signature, out, 0)
