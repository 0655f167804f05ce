"""Invariant projections and Taylor decompositions for commuting locally
nilpotent derivations.

An ``LndSystem`` packages a carrier algebra A (commutative polynomials, a
Weyl algebra A(n, m), or a free algebra) with derivations d1..ds and slice
elements t1..ts satisfying d_i(t_j) = delta_ij.  The joint kernel A^d is the
invariant subalgebra.  The two projections onto A^d are

    phi_i = sum_k (-1)^k (t_i^k / k!) d_i^k     (slice powers multiply left)
    psi_i = sum_k (-1)^k d_i^k(.) (t_i^k / k!)  (slice powers multiply right)

composed as phi = phi_s ... phi_1 and psi = psi_1 ... psi_s (rightmost factor
acts first).  Every element then decomposes uniquely as

    a = sum_alpha t^alpha * phi(d^alpha a / alpha!)
      = sum_alpha psi(d^alpha a / alpha!) * t^alpha

with invariant coefficients; ``taylor_decompose`` computes the left-handed
coefficient map and ``taylor_reconstruct`` resums it.

Since d_j(t_i) = delta_ij, d_j commutes with phi_i for i != j, and the
left coefficients read off one table of iterated derivatives d^gamma a:

    c_alpha = sum_beta (-1)^|beta| t_s^beta_s ... t_1^beta_1 d^(alpha+beta) a
              / (alpha! beta!)

The one walk of this table, ``_staged``, stages it direction by direction,

    P_0[g] = d^g a,   P_j[g] = sum_k (-1)^k/k! t_j^k P_(j-1)[g + k e_j],

so c_alpha = P_s[alpha] / alpha!, and every derivative in the table is
formed once.  The table is walked depth first, direction s outermost and
direction 1 innermost, and each column b, d_j b, d_j^2 b, ... is derived
lazily: an entry's sub-table is staged before the next entry is derived,
so the products of phi_1 form in the same order as in phi(a), and a cap
error stops the walk before the rest of the table exists.  Each consumer
folds this walk: ``taylor_decompose`` takes the entries and slice powers
(formed once per call) as they are; ``_taylor_at_zero``, the inversion of
``automorphisms.invert``, takes the slices mod the centre and the entries'
terms in x_1..x_n, which keeps the constant term of every c_alpha on A(n, m)
(on P_m: evaluation at 0); ``order`` keeps the largest |gamma|.  The ``z``
witnesses of ``invariants`` are the c_alpha.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import CapExceededError, LndError, SignatureMismatchError, UsageError
from .formatting import Scalar, canonical
from .multiindex import MultiIndex, graded_lex_key, multi_factorial
from .sparse import SparseElement
from .weyl import WeylElement, ad, combine_partials

Element = SparseElement

#: Default bound on iterated-derivative depth before declaring non-nilpotence.
NILPOTENCE_CAP = 256


# -- derivation descriptors -------------------------------------------------


class PartialDerivation:
    """The coordinate derivation partial_{index+1} of the carrier."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def apply(self, a: Element) -> Element:
        return a.partial(self.index)

    def __repr__(self) -> str:
        return f"PartialDerivation({self.index})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialDerivation) and self.index == other.index

    def __hash__(self) -> int:
        return hash(("partial", self.index))


class InnerDerivation:
    """ad(u): a -> u*a - a*u for a fixed carrier element u (one-pass
    ``weyl.ad`` on Weyl elements)."""

    __slots__ = ("element",)

    def __init__(self, element: Element):
        self.element = element

    def apply(self, a: Element) -> Element:
        if isinstance(a, WeylElement):
            return ad(self.element, a)
        return self.element * a - a * self.element

    def __repr__(self) -> str:
        return f"InnerDerivation({self.element!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, InnerDerivation) and self.element == other.element

    def __hash__(self) -> int:
        return hash(("inner", self.element))


class CombinationDerivation:
    """A finite combination sum_k c_k * D_k of descriptors.

    Coefficients are rationals or carrier elements acting by left
    multiplication; on a noncommutative carrier they must be central for the
    combination to remain a derivation (checked during system validation).

    Coordinate partials with scalar or central Weyl coefficients are fused:
    ``apply`` forms sum_l c_l * partial_l(a) in one dict on a Weyl element
    (``weyl.combine_partials``), and goes piece by piece, as the cap needs,
    when maxdeg(a) - 1 + maxdeg(c_l) > ``DEGREE_CAP``.
    """

    __slots__ = ("parts", "_fused")

    def __init__(self, parts: list[tuple[Element | Fraction | int, "DerivationDescriptor"]]):
        self.parts = tuple(parts)
        self._fused = _prepare_partials(self.parts)

    def apply(self, a: Element) -> Element:
        if self._fused and (out := combine_partials(a, *self._fused)) is not None:
            return out
        total = None
        for coeff, deriv in self.parts:
            piece = deriv.apply(a)
            if piece.is_zero():
                continue
            if not (isinstance(coeff, (int, Fraction)) and coeff == 1):
                piece = coeff * piece
            total = piece if total is None else total + piece
        return a.scale(0) if total is None else total

    def __repr__(self) -> str:
        return f"CombinationDerivation({list(self.parts)!r})"


DerivationDescriptor = PartialDerivation | InnerDerivation | CombinationDerivation


def _prepare_partials(parts):
    """(signature or None, rows, top) for ``weyl.combine_partials``, or None if
    a part is no partial or its coefficient no scalar or central Weyl element."""
    sigs = {c.signature for c, _ in parts if isinstance(c, WeylElement)}
    if len(sigs) > 1 or any(type(d) is not PartialDerivation for _, d in parts):
        return None
    rows, top = [], 0
    for c, d in parts:
        if isinstance(c, WeylElement) and c.is_constant():
            c = c.constant_term()
        if isinstance(c, WeylElement) and c.is_central():
            rows.append((d.index, tuple(c.terms.items())))
            top = max(top, c.total_degree())
        elif isinstance(c, (int, Fraction)):
            rows.append((d.index, ((None, canonical(c)),)))
        else:
            return None
    return next(iter(sigs), None), tuple(rows), top


# -- the system --------------------------------------------------------------


class LndSystem:
    """Commuting locally nilpotent derivations with slices.

    Construction validates d_i(t_j) = delta_ij, d_i(x_v) = 0 for every
    Laurent (invertible) variable x_v, that combination coefficients are
    central, and then pairwise commutation and local nilpotence under
    ``nilpotence_cap`` on the carrier generators.  Generators suffice: each
    [d_i, d_j] is a derivation, so it vanishes iff it vanishes on
    generators, and by Leibniz d^N(ab) = sum_k C(N,k) d^k(a) d^(N-k)(b)
    (central coefficients make each d_i a derivation), so nilpotence on
    generators gives local nilpotence.  A negative ``nilpotence_cap`` is a
    usage error.
    """

    __slots__ = ("derivations", "slices", "nilpotence_cap", "_one", "_zero")

    def __init__(
        self,
        derivations: list[DerivationDescriptor],
        slices: list[Element],
        nilpotence_cap: int = NILPOTENCE_CAP,
        check: bool = True,
    ):
        if not slices or len(derivations) != len(slices):
            raise LndError("need equally many derivations and slices, at least one")
        if nilpotence_cap < 0:
            raise UsageError(f"nilpotence cap {nilpotence_cap} is negative")
        for t in slices[1:]:
            slices[0]._check_compatible(t)
        self.derivations = tuple(derivations)
        self.slices = tuple(slices)
        self.nilpotence_cap = nilpotence_cap
        self._one = slices[0] ** 0
        self._zero = slices[0].scale(0)
        if check:
            self._validate()

    @property
    def s(self) -> int:
        return len(self.derivations)

    def derive(self, i: int, a: Element) -> Element:
        return self.derivations[i].apply(a)

    # -- validation --------------------------------------------------------

    def _validate(self) -> None:
        """The checks of the class docstring on the carrier generators."""
        one = self._one
        probes = one.generators()
        for i in range(self.s):
            for j, t in enumerate(self.slices):
                got = self.derive(i, t)
                expect = one if i == j else self._zero
                if got != expect:
                    raise LndError(
                        f"derivation {i + 1} applied to slice {j + 1} gives {got}, "
                        f"expected {expect}"
                    )
        # In a domain every locally nilpotent derivation kills the units
        # (van den Essen 2000), so each Laurent variable must be a constant
        # of every d_i.
        for v in one.invertible_indices():
            for i in range(self.s):
                if not self.derive(i, probes[v]).is_zero():
                    raise LndError(
                        f"derivation {i + 1} does not kill the unit x{v + 1}; "
                        "a locally nilpotent derivation kills every unit"
                    )
        for deriv in self.derivations:
            if isinstance(deriv, CombinationDerivation):
                for coeff, _ in deriv.parts:
                    # left-multiplier coefficients must commute with the carrier
                    if not (isinstance(coeff, (int, Fraction)) or coeff.is_central()):
                        raise LndError(
                            "combination coefficient is not central in the carrier"
                        )
        firsts: dict[tuple[int, int], Element] = {}

        def first(i: int, q: int) -> Element:
            """d_i(probe q), derived once and shared by both loops below."""
            if (i, q) not in firsts:
                firsts[i, q] = self.derive(i, probes[q])
            return firsts[i, q]

        for i in range(self.s):
            for j in range(i + 1, self.s):
                for q, p in enumerate(probes):
                    if self.derive(i, first(j, q)) != self.derive(j, first(i, q)):
                        raise LndError(
                            f"derivations {i + 1} and {j + 1} do not commute on {p}"
                        )
        for i in range(self.s):  # nilpotence, under the walk's cap rule
            for q, p in enumerate(probes):
                cur, depth = p, 0
                while not cur.is_zero():
                    self._check_depth(depth)
                    cur = self.derive(i, cur) if depth else first(i, q)
                    depth += 1

    # -- the table walk ------------------------------------------------------

    def _check_depth(self, depth: int) -> None:
        """A table entry of order ``depth`` may be derived once more."""
        if depth >= self.nilpotence_cap:
            raise CapExceededError(
                f"iterated derivatives of order beyond cap {self.nilpotence_cap}"
            )

    def order(self, a: Element) -> int:
        """Largest |alpha| with d^alpha(a) != 0: with zero slice terms the
        walk leaves each nonzero entry at its own index."""
        if a.is_zero():
            raise LndError("the zero element has no order")
        return max(map(sum, self._coefficients(a, [self._zero] * self.s, lambda tail, b: 1)))

    # -- projections ---------------------------------------------------------

    def _project_single(self, i: int, a: Element, left: bool) -> Element:
        """phi_i(a) (``left``) or psi_i(a).  The cap bounds the power k of
        d_i alone, while the table walk bounds the total order |gamma|, so on
        s > 1 phi and psi can answer where ``taylor_decompose`` hits the cap."""
        total = cur = a
        power = self._one
        k = 0
        while not cur.is_zero():
            self._check_depth(k)
            cur = self.derive(i, cur)
            if cur.is_zero():
                break
            k += 1
            power = power * self.slices[i]
            coeff = Fraction((-1) ** k, factorial(k))
            piece = power * cur if left else cur * power
            total = total + piece * coeff
        return total

    def phi(self, a: Element) -> Element:
        """Left projection onto A^d: phi = phi_s ... phi_1 (phi_1 first)."""
        out = a
        for i in range(self.s):
            out = self._project_single(i, out, left=True)
        return out

    def psi(self, a: Element) -> Element:
        """Right projection onto A^d: psi = psi_1 ... psi_s (psi_s first)."""
        out = a
        for i in reversed(range(self.s)):
            out = self._project_single(i, out, left=False)
        return out

    # -- Taylor decomposition -------------------------------------------------

    def taylor_decompose(self, a: Element) -> TaylorCoefficients:
        """The coefficient map alpha -> phi(d^alpha a / alpha!), zeros dropped,
        read off one table of iterated derivatives (see the module docstring)."""
        return TaylorCoefficients(self.s, self._coefficients(a, self.slices, lambda tail, b: b))

    def _taylor_at_zero(self, a: Element) -> dict[MultiIndex, Scalar]:
        """{alpha: constant term of c_alpha} for ``taylor_decompose(a)`` on
        A(n, m), zeros dropped: the walk with the slices mod the centre and
        the entries cut to their terms in x_1..x_n (module docstring)."""
        n = a.signature.n

        def cut(b: Element, stop: int) -> Element:
            return b._like({e: c for e, c in b.terms.items() if not any(e[stop:])})

        slices = [cut(t, 2 * n) for t in self.slices]
        table = self._coefficients(a, slices, lambda tail, b: cut(b, n))
        return {alpha: c for alpha, v in table.items() if (c := v.constant_term())}

    def _coefficients(self, a: Element, slices, leaf) -> dict:
        """{alpha: P_s[alpha] / alpha!} with table entries read as
        ``leaf(gamma, d^gamma a)`` and slices ``slices``."""
        terms = [[t ** 0, -t] for t in slices]

        def slice_term(i: int, k: int):
            """(-1)^k/k! t_i^k, each formed once per call."""
            tm = terms[i]
            while len(tm) <= k:
                tm.append((tm[-1] * slices[i]) * Fraction(-1, len(tm)))
            return tm[k]

        out = {}
        for alpha, val in self._staged(self.s, a, (), slice_term, leaf).items():
            f = multi_factorial(alpha)
            out[alpha] = val if f == 1 else val * Fraction(1, f)
        return out

    def _staged(self, j: int, b: Element, tail: MultiIndex, slice_term, leaf) -> dict:
        """{(g_1..g_j): P_j[g_1..g_j]} over the table of b (module docstring).

        Each column entry's sub-table is staged and folded into column index
        0, as phi_j would, before the next entry is derived; the other
        indices are folded once the column ends.  ``tail`` holds the column
        indices spent in directions above j; ``slice_term(i, k)`` is
        (-1)^k/k! t_(i+1)^k, and ``leaf(gamma, d^gamma a)`` is the value of a
        nonzero table entry (P_0)."""
        if j == 0:
            return {(): leaf(tail, b)}
        i = j - 1
        out: dict = {}
        cols: list[dict | None] = []

        def fold(l: int, start: int) -> None:
            # P_j[g, start] += (-1)^k/k! t_j^k P_(j-1)[g, l] with k = l - start
            k = l - start
            term = slice_term(i, k)
            if term.is_zero():  # a zero cut slice (or order's) adds nothing
                return
            for sub, val in cols[l].items():
                if k:
                    val = term * val
                key = sub + (start,)
                prev = out.get(key)
                out[key] = val if prev is None else prev + val

        cur, grade = b, sum(tail)
        while not cur.is_zero():
            self._check_depth(grade + len(cols))
            cols.append(self._staged(i, cur, (len(cols),) + tail, slice_term, leaf))
            fold(len(cols) - 1, 0)
            cur = self.derive(i, cur)
        for l in range(1, len(cols)):
            for start in range(1, l + 1):
                fold(l, start)
            cols[l] = None
        return out

    def slice_monomial(self, alpha: MultiIndex) -> Element:
        """t^alpha = t_1^a1 * ... * ts^as, factors in system order."""
        out = self._one
        for i, k in enumerate(alpha):
            for _ in range(k):
                out = out * self.slices[i]
        return out

    def taylor_reconstruct(self, coeffs: TaylorCoefficients) -> Element:
        """Resum sum_alpha t^alpha * c_alpha; coefficients must be invariant."""
        if coeffs.s != self.s:
            raise SignatureMismatchError("coefficient map does not match the system")
        total = self._zero
        for alpha, c in coeffs.items():
            for i in range(self.s):
                if not self.derive(i, c).is_zero():
                    raise LndError(
                        f"coefficient at alpha={alpha} is not invariant"
                    )
            total = total + self.slice_monomial(alpha) * c
        return total


class TaylorCoefficients:
    """Finite map from multi-indices of length ``s`` to nonzero elements,
    printed as ``head(alpha): c`` lines in graded-lex order, or ``empty``."""

    __slots__ = ("s", "coeffs")
    head, empty = "alpha=", "alpha: none"

    def __init__(self, s: int, coeffs: dict[MultiIndex, Element]):
        self.s = s
        clean = {}
        for alpha, c in coeffs.items():
            alpha = tuple(alpha)
            if len(alpha) != s:
                raise SignatureMismatchError("multi-index length does not match")
            if not c.is_zero():
                clean[alpha] = c
        self.coeffs = clean

    def items(self):
        return sorted(self.coeffs.items(), key=lambda t: graded_lex_key(t[0]))

    def __getitem__(self, alpha: MultiIndex) -> Element:
        return self.coeffs[tuple(alpha)]

    def __contains__(self, alpha: MultiIndex) -> bool:
        return tuple(alpha) in self.coeffs

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.s == other.s
            and self.coeffs == other.coeffs
        )

    def __str__(self) -> str:
        lines = [
            f"{self.head}({','.join(str(e) for e in alpha)}): {c}"
            for alpha, c in self.items()
        ]
        return "\n".join(lines) if lines else self.empty

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.s}, {len(self.coeffs)} entries)"


def standard_system(
    carrier_one: Element, nilpotence_cap: int = NILPOTENCE_CAP
) -> LndSystem:
    """The full system of coordinate partials with the generators as slices.

    For a Weyl carrier the partials in the momentum directions have the
    momenta themselves as slices; all 2n + m directions are included.
    """
    gens = carrier_one.generators()
    derivs = [PartialDerivation(i) for i in range(len(gens))]
    return LndSystem(derivs, gens, nilpotence_cap=nilpotence_cap)
