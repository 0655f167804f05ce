"""Invariant-ring generators, a brute-force kernel oracle, and the
Weitzenboeck construction.

Given an LndSystem with slices t1..ts and a generating set y1..yr of the
carrier, the invariant subalgebra A^d is generated by the witnesses

    z_{w,alpha,i} = w( phi(d^alpha y_i / alpha!) )       |alpha| <= order(y_i)
    x_{w,j}       = w( t_j )                             1 <= len(w) <= bound

where w runs over words in the monoid generated by ad(t_1)..ad(t_s).  The
bases phi(d^alpha y_i / alpha!) are the Taylor coefficients c_alpha of y_i,
read off one ``taylor_decompose(y_i)`` and taken in tuple order of alpha.
The enumeration keeps nonzero values only, deduplicates equal values (the
first one taken stays), and checks kernel membership of everything it returns.

``graded_kernel_oracle`` independently computes the joint kernel on a single
homogeneous component by exact linear algebra, which is what the enumeration
is tested against; it and ``subalgebra_graded_dimension`` write their values
as one coordinate matrix (``_columns``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .commpoly import CommPoly
from .errors import LndError, UsageError
from .linalg import nullspace, rank
from .multiindex import MultiIndex, graded_lex_key
from .projections import (
    CombinationDerivation,
    Element,
    InnerDerivation,
    LndSystem,
    PartialDerivation,
)


class GeneratorWitness(NamedTuple):
    """One enumerated invariant: value = word(base) where the word lists the
    ad(t_{k+1}) factors outermost first."""

    kind: str  # "z" (projected generator) or "x" (commutator of slices)
    word: tuple[int, ...]
    alpha: MultiIndex | None
    source: int
    value: Element

    def describe(self) -> str:
        word = "*".join(f"ad(x{k + 1})" for k in self.word) if self.word else "-"
        alpha = (
            f"({','.join(str(e) for e in self.alpha)})" if self.alpha is not None else "-"
        )
        base = f"y{self.source + 1}" if self.kind == "z" else f"x{self.source + 1}"
        return f"{self.kind} {word} {alpha} {base} : {self.value}"


def _sort_key(w: GeneratorWitness):
    return (
        len(w.word),
        w.word,
        w.kind,
        graded_lex_key(w.alpha) if w.alpha is not None else ((), ()),
        w.source,
    )


def enumerate_generators(
    system: LndSystem,
    generators: list[Element],
    word_bound: int,
    degree_bound: int,
) -> list[GeneratorWitness]:
    """All witnesses up to the word and value-degree bounds, deduplicated by
    value (distinct words frequently act identically), zeros dropped."""
    if word_bound < 0 or degree_bound < 0:
        raise UsageError("word and degree bounds must be non-negative")
    s = system.s
    brackets = [InnerDerivation(t) for t in system.slices]
    witnesses: list[GeneratorWitness] = []
    seen: set[Element] = set()

    def push(kind: str, word: tuple[int, ...], alpha, source: int, value: Element):
        if value.is_zero() or value.total_degree() > degree_bound:
            return
        for i in range(s):
            if not system.derive(i, value).is_zero():
                raise LndError("enumerated witness is not invariant")
        if value in seen:
            return
        seen.add(value)
        witnesses.append(GeneratorWitness(kind, word, alpha, source, value))

    def extend_by_words(kind: str, alpha, source: int, base: Element):
        if kind == "z":  # a slice itself is no invariant
            push(kind, (), alpha, source, base)
        level = [((), base)]
        for _ in range(word_bound):
            nxt = []
            for word, val in level:
                for k in range(s):
                    new_val = brackets[k].apply(val)
                    if new_val.is_zero():
                        continue
                    new_word = (k,) + word
                    nxt.append((new_word, new_val))
                    push(kind, new_word, alpha, source, new_val)
            level = nxt

    for idx, y in enumerate(generators):
        if y.is_zero():
            raise UsageError("generators must be nonzero")
        for alpha, base in sorted(system.taylor_decompose(y).coeffs.items()):
            extend_by_words("z", alpha, idx, base)
    for j, t in enumerate(system.slices):
        extend_by_words("x", None, j, t)
    witnesses.sort(key=_sort_key)
    return witnesses


# -- brute-force graded kernel ------------------------------------------------


def _columns(values: list[Element]) -> list[list[Fraction]]:
    """Coordinate matrix of the values: one dense row per monomial that
    occurs in them (in key order), one column per value."""
    keys = sorted({k for v in values for k in v.terms})
    index = {k: r for r, k in enumerate(keys)}
    block = [[Fraction(0)] * len(values) for _ in keys]
    for col, v in enumerate(values):
        for k, c in v.terms.items():
            block[index[k]][col] = c
    return block


def graded_kernel_oracle(system: LndSystem, degree: int) -> list[Element]:
    """Basis of the joint kernel of the system's derivations on the
    homogeneous component of the given degree, by exact elimination.

    Every derivation must map the component into the homogeneous component
    one degree lower (zero images are fine).  The images are built one
    derivation at a time and dropped before the elimination."""
    if degree < 0:
        raise UsageError("degree must be non-negative")
    one = system._one
    monomials = one.homogeneous_keys(degree)
    rows: list[list[Fraction]] = []
    for i in range(system.s):
        images = [system.derive(i, one.like({key: 1})) for key in monomials]
        if any(not img.degrees() <= {degree - 1} for img in images):
            raise UsageError("derivation is not homogeneous of degree -1 on the component")
        rows.extend(_columns(images))
    vectors = nullspace(rows, len(monomials))
    return [one.like({key: c for key, c in zip(monomials, vec) if c}) for vec in vectors]


def subalgebra_graded_dimension(values: list[Element], degree: int) -> int:
    """Dimension of the degree-d component of the unital subalgebra generated
    by homogeneous elements, by exact rank over the monomial basis."""
    positive = []
    for v in values:
        if v.is_zero() or v.is_constant():
            continue
        degs = v.degrees()
        if len(degs) != 1:
            raise UsageError("subalgebra dimension helper needs homogeneous values")
        positive.append((v, degs.pop()))
    if degree == 0:
        return 1
    if not positive:
        return 0
    bucket: list[Element] = []
    frontier: list[tuple[Element, int]] = [(positive[0][0] ** 0, 0)]
    while frontier:
        nxt = []
        for p, d in frontier:
            for w, wd in positive:
                nd = d + wd
                if nd > degree:
                    continue
                q = p * w
                if q.is_zero():
                    continue
                if nd == degree:
                    bucket.append(q)
                else:
                    nxt.append((q, nd))
        frontier = nxt
    if not bucket:
        return 0
    # rank of the transposed coordinate matrix, which has the same rank
    return rank(_columns(bucket))


# -- the Weitzenboeck construction --------------------------------------------


def weitzenboeck_system(n: int) -> LndSystem:
    """d = x1 d2 + x2 d3 + ... + x_{n-1} d_n on K[x1, 1/x1][x2..xn], with the
    single slice x2/x1."""
    if n < 2:
        raise UsageError("the construction needs at least two variables")
    mask = frozenset({0})
    variables = [CommPoly.variable(n, i, mask) for i in range(n)]
    deriv = CombinationDerivation(
        [(variables[i - 1], PartialDerivation(i)) for i in range(1, n)]
    )
    slice_exps = (-1, 1) + (0,) * (n - 2)
    slice_elem = CommPoly.monomial(n, slice_exps, 1, mask)
    return LndSystem([deriv], [slice_elem])


def weitzenboeck_closed_form(n: int, i: int) -> CommPoly:
    """phi(x_i) = sum_{k=0}^{i-1} (-1)^k (x2/x1)^k x_{i-k} / k!  (i is 1-based)."""
    if not 2 <= i <= n:
        raise UsageError(f"index {i} out of range for {n} variables")
    mask = frozenset({0})
    slice_elem = CommPoly.monomial(n, (-1, 1) + (0,) * (n - 2), 1, mask)
    total = CommPoly.zero(n, mask)
    from math import factorial

    for k in range(i):
        piece = (slice_elem ** k) * CommPoly.variable(n, i - k - 1, mask)
        piece = piece.scale(Fraction((-1) ** k, factorial(k)))
        total = total + piece
    return total


def weitzenboeck_invariants(n: int) -> list[tuple[int, CommPoly]]:
    """(i, phi(x_i)) for i = 3..n; together with x1 these generate the
    invariant ring of the localized Weitzenboeck derivation.

    Each value is cross-checked against the closed form and against
    d(phi(x_i)) = 0 before it is returned."""
    system = weitzenboeck_system(n)
    out = []
    for i in range(3, n + 1):
        var = CommPoly.variable(n, i - 1, frozenset({0}))
        value = system.phi(var)
        if value != weitzenboeck_closed_form(n, i):
            raise LndError(f"phi(x{i}) disagrees with the closed form")
        if not system.derive(0, value).is_zero():
            raise LndError(f"phi(x{i}) is not invariant")
        out.append((i, value))
    return out
