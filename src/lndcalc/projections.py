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

``_table`` walks this table once, depth first, direction s outermost and
direction 1 innermost, each column b, d_j b, d_j^2 b, ... one lazy
``_column`` under the cap rule (phi_i, psi_i and the nilpotence check walk
the same columns), and yields its nonzero entries.  ``taylor_decompose``
folds them one direction at a time,

    P_0[g] = d^g a,   P_j[g] = sum_k (-1)^k/k! t_j^k P_(j-1)[g + k e_j],

so c_alpha = P_s[alpha] / alpha!; every derivative in the table is formed
once, and the first fold takes the entries as the walk yields them.
``order`` keeps the largest |gamma| of the entries, and the ``z`` witnesses
of ``invariants`` are the c_alpha.

``_taylor_at_zero``, the inversion of ``automorphisms.invert``, needs only
eps(c_alpha) on A(n, m), eps the constant term of the normal form.  With x
the coordinates, p the momenta and z the centre, eps vanishes on the right
ideal xA + zA and on the left ideal Ap + Az, so

    eps(u D) = <pi_L(u), pi_R(D)>,   <p^j, x^k> = delta_jk j!,

where pi_L(u) keeps the terms of u in p alone and pi_R(D) those of D in x
alone.  Hence, off the entries of ``_table``,

    eps(c_alpha) = sum_beta (-1)^|beta| <w_beta, v_(alpha+beta)> / (alpha! beta!)

with v_gamma = pi_R(d^gamma a) and w_beta = pi_L(t_s^beta_s ... t_1^beta_1).
As xA + zA is a right ideal, w_beta = pi_L(w_(beta - e_j) t_j) with j the
lowest index in beta: a polynomial in p times a slice taken mod z, formed in
closed form once per system (``_pairing_row``).  No entry is multiplied and
no slice power is formed; on P_m the w_beta are the scalars t(0)^beta, and
eps(c_alpha) is evaluation at 0.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import perm, prod
from operator import add, le, sub

from .errors import CapExceededError, LndError, SignatureMismatchError, UsageError
from .formatting import Scalar, canonical
from .multiindex import MultiIndex, graded_lex_key, multi_factorial
from .sparse import SparseElement
from .weyl import combine_partials

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


class InnerDerivation:
    """ad(u): a -> u*a - a*u for a fixed element u of any carrier, by the
    element's ``bracket`` (one pass on a Weyl algebra)."""

    __slots__ = ("element",)

    def __init__(self, element: Element):
        self.element = element

    def apply(self, a: Element) -> Element:
        return self.element.bracket(a)

    def __repr__(self) -> str:
        return f"InnerDerivation({self.element!r})"


class CombinationDerivation:
    """A finite combination sum_k c_k * D_k of descriptors.

    Coefficients are rationals or elements of any carrier acting by left
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
    """(context or None, rows, top) for ``weyl.combine_partials``, or None if
    a part is no partial, a coefficient no scalar or central element, or two
    coefficients of different contexts; a constant element is a scalar row."""
    ctxs = {c._ctx for c, _ in parts if not isinstance(c, (int, Fraction))}
    if len(ctxs) > 1 or any(type(d) is not PartialDerivation for _, d in parts):
        return None
    rows, top = [], 0
    for c, d in parts:
        if not isinstance(c, (int, Fraction)) and c.is_constant():
            c = c.constant_term()
        if isinstance(c, (int, Fraction)):
            rows.append((d.index, ((None, canonical(c)),)))
        elif c.is_central():
            rows.append((d.index, tuple(c.terms.items())))
            top = max(top, c.total_degree())
        else:
            return None
    return next(iter(ctxs), None), tuple(rows), top


def _fold(j: int, t: Element, entries) -> dict:
    """P_(j+1) from the entries (g, P_j[g]) of P_j: each adds
    (-1)^k/k! t^k P_j[g] at g - k e_(j+1), k = 0..g_(j+1), with each
    (-1)^k/k! t^k formed once (no product for k = 0, -t for k = 1)."""
    terms = [None, -t]
    out: dict = {}
    for g, val in entries:
        for k in range(g[j] + 1):
            if k == len(terms):
                terms.append(terms[-1] * t * Fraction(-1, k))
            key = g[:j] + (g[j] - k,) + g[j + 1:]
            piece = terms[k] * val if k else val
            out[key] = piece if (prev := out.get(key)) is None else prev + piece
    return out


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

    __slots__ = ("derivations", "slices", "nilpotence_cap", "_one", "_zero", "_rows")

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
        self._rows: dict = {}  # _pairing_row's cache
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
        combos = [d for d in self.derivations if isinstance(d, CombinationDerivation)]
        while combos:  # nested combinations included
            for coeff, deriv in combos.pop().parts:
                if isinstance(deriv, CombinationDerivation):
                    combos.append(deriv)
                # left-multiplier coefficients must commute with the carrier
                if not (isinstance(coeff, (int, Fraction)) or coeff.is_central()):
                    raise LndError("combination coefficient is not central in the carrier")
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
        self._check_depth(0)  # nilpotence, under the walk's cap rule
        for i in range(self.s):
            for q in range(len(probes)):
                for _ in self._column(i, first(i, q), 1):
                    pass

    # -- the table walk ------------------------------------------------------

    def _check_depth(self, depth: int) -> None:
        """A table entry of order ``depth`` may be derived once more."""
        if depth >= self.nilpotence_cap:
            raise CapExceededError(
                f"iterated derivatives of order beyond cap {self.nilpotence_cap}"
            )

    def _column(self, i: int, b: Element, grade: int = 0):
        """Yield b, d_i b, d_i^2 b, ... while nonzero, each derived lazily;
        the entry of order ``grade`` + l passes ``_check_depth`` first."""
        l = 0
        while not b.is_zero():
            self._check_depth(grade + l)
            yield b
            b = self.derive(i, b)
            l += 1

    def _table(self, j: int, b: Element, tail: MultiIndex = ()):
        """Yield (gamma, d^gamma b) for the nonzero entries of the table of b
        in directions 1..j (``tail`` holds the indices spent above j): depth
        first, direction j >= 1 outermost, one ``_column`` per direction."""
        for l, entry in enumerate(self._column(j - 1, b, sum(tail))):
            if j == 1:
                yield (l,) + tail, entry
            else:
                yield from self._table(j - 1, entry, (l,) + tail)

    def order(self, a: Element) -> int:
        """Largest |alpha| with d^alpha(a) != 0."""
        if a.is_zero():
            raise LndError("the zero element has no order")
        return max(sum(gamma) for gamma, _ in self._table(self.s, a))

    # -- projections ---------------------------------------------------------

    def _project_single(self, i: int, a: Element, left: bool) -> Element:
        """phi_i(a) (``left``) or psi_i(a).  The cap bounds the power k of
        d_i alone, while the table walk bounds the total order |gamma|, so on
        s > 1 phi and psi can answer where ``taylor_decompose`` hits the cap."""
        t, total = self.slices[i], a
        for k, cur in enumerate(self._column(i, a)):
            if k:  # (-1)^k/k! t^k as in ``_fold``: -t, then one product each
                term = -t if k == 1 else term * t * Fraction(-1, k)
                total = total + (term * cur if left else cur * term)
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
        """The coefficient map alpha -> phi(d^alpha a / alpha!), zeros dropped:
        the entries of ``_table`` folded once per direction (module docstring)."""
        entries = self._table(self.s, a)
        for j, t in enumerate(self.slices):
            entries = _fold(j, t, entries).items()
        return TaylorCoefficients(self.s, {
            alpha: val if (f := multi_factorial(alpha)) == 1 else val * Fraction(1, f)
            for alpha, val in entries})

    def _taylor_at_zero(self, a: Element) -> dict[MultiIndex, Scalar]:
        """{alpha: eps(c_alpha)} for ``taylor_decompose(a)`` on A(n, m), eps
        the constant term, zeros dropped, by the pairing of the module
        docstring: one walk of the table, no product of elements."""
        n = a.signature.n
        acc: dict[MultiIndex, Scalar] = {}
        for gamma, entry in self._table(self.s, a):
            # v_gamma with <p^J, x^J> = J! folded in
            v = [(e[:n], c * multi_factorial(e[:n]))
                 for e, c in entry.terms.items() if not any(e[n:])]
            if not v:
                continue
            for beta in product(*(range(g + 1) for g in gamma)):
                w = self._pairing_row(beta)
                if pair := sum(c * w[key] for key, c in v if key in w):
                    alpha = tuple(map(sub, gamma, beta))
                    acc[alpha] = acc.get(alpha, 0) + pair
        return {alpha: c for alpha, v in acc.items()
                if (c := canonical(Fraction(v, multi_factorial(alpha))))}

    def _pairing_row(self, beta: MultiIndex) -> dict[MultiIndex, Scalar]:
        """(-1)^|beta|/beta! w_beta as {J: coefficient of p^J}, formed once
        per system by the right product w_beta = pi_L(w_(beta - e_j) t_j), j
        the lowest index in beta, with t_j taken mod the centre."""
        if (w := self._rows.get(beta)) is not None:
            return w
        n = self._one.signature.n
        if not any(beta):
            w = {(0,) * n: 1}
        else:
            j = next(i for i, b in enumerate(beta) if b)
            w = {}
            for key, cw in self._pairing_row(beta[:j] + (beta[j] - 1,) + beta[j + 1:]).items():
                for e, ct in self.slices[j].terms.items():
                    x, p = e[:n], e[n:2 * n]
                    # pi_L(p^J x^a p^b) = J!/(J-a)! p^(J-a+b), 0 unless a <= J
                    if not any(e[2 * n:]) and all(map(le, x, key)):
                        k = tuple(map(add, map(sub, key, x), p))
                        w[k] = w.get(k, 0) + cw * ct * prod(map(perm, key, x))
            w = {k: canonical(Fraction(-c, beta[j])) for k, c in w.items() if c}
        self._rows[beta] = w
        return w

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
