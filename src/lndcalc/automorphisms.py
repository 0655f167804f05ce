"""Automorphisms of A(n, m), their inverses, logarithms and series forms.

An ``Automorphism`` is stored by its generator images and checked when it is
built, so none exists unchecked: the defining relations ([s(x_{n+i}), s(x_j)]
= delta_ij, all other generator pairs commuting), centrality of the central
images, and that the Jacobian determinant Delta of the central images in the
central generators x_{2n+1}..x_s is a nonzero constant, which it records;
Delta is an element of A(n, m), formed by ``sparse.det`` under the degree cap
like every other product.  Injectivity or surjectivity is never assumed:
``invert`` runs the inversion formula

    s^{-1}(a) = sum_alpha x^alpha phi'(d'^alpha a / alpha!)

over the twisted partials d'_i = ad(s(x_{n+i})), d'_{n+i} = -ad(s(x_i)),
d'_{2n+j} = Delta^{-1} * (cofactor row of the central Jacobian), with slices
s(x_i), and then certifies the result by composing back.

Each coefficient is a constant, so ``invert`` reads only its constant term
eps in the normal form, off one walk of the table per generator
(``LndSystem._taylor_at_zero``).  With x the coordinates, p the momenta
and z the central generators, eps vanishes on the right ideal xA + zA and on
the left ideal Ap + Az, so eps(c_alpha) pairs the terms in p alone of the
slice products t_s^beta_s ... t_1^beta_1 (slices mod z, formed in closed
form once per system) with the terms in x alone of the entries
d'^(alpha+beta) x_i; no element is multiplied.  On P_m this is evaluation
at 0; with y = s(x)(0):

    c_alpha = sum_{gamma >= alpha} (d'^gamma x_i)(0) (-y)^(gamma-alpha) / (alpha! (gamma-alpha)!)

``invert`` checks, in order: the walk of each generator's table (its cap
rule is the nilpotence check), ``aut_verify`` of the candidate t, and
s(t(x_i)) = x_i for every i.  With s and t endomorphisms (both checked when
built), s is then surjective, hence injective (A(n, m) is Noetherian), so
t = s^{-1} however t was built; the twisted system is never validated: a
wrong twisted partial, a non-constant coefficient or an input that passes the
checks yet is no automorphism gives a candidate that one of these checks
rejects.

``log_aut`` and ``exp_der`` convert between unipotent automorphisms and
locally nilpotent derivations.  A ``Derivation``, given by its generator
values, runs as the descriptor ad(u) + sum_l v_{2n+l} d_{2n+l} with u in
closed form (class docstring).  ``map_to_series`` expresses a linear map
of A(n, m), tabulated on the normal monomials, as the differential operator
series  sum_alpha a_alpha d^alpha  (left coefficients; d_i the power rule on
normal monomials, so d_i = ad(x_{n+i}), d_{n+i} = -ad(x_i)), solved layer by
layer; ``aut_to_series`` is that solve over an automorphism's table.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import (
    CapExceededError,
    LndError,
    RelationError,
    JacobianError,
    SignatureMismatchError,
    UsageError,
)
from .multiindex import MultiIndex, iter_upto, multi_factorial
from .projections import (
    NILPOTENCE_CAP,
    CombinationDerivation,
    DerivationDescriptor,
    InnerDerivation,
    LndSystem,
    PartialDerivation,
    TaylorCoefficients,
)
from .sparse import det, substitute
from .weyl import WeylElement, WeylSignature, ad, weyl_mul


def _arrow_text(images) -> str:
    return "; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(images))


def _checked_values(signature: WeylSignature, values, noun: str) -> tuple[WeylElement, ...]:
    """The images or values, checked: one per generator, each over ``signature``."""
    if len(values) != signature.s:
        raise SignatureMismatchError(f"{len(values)} {noun}s for signature {signature}")
    if any(v.signature != signature for v in values):
        raise SignatureMismatchError(f"{noun} signature does not match")
    return tuple(values)


class Automorphism:
    """An automorphism of A(n, m), stored by its generator images.  Building
    one checks the defining relations, centrality of the central images and
    the Jacobian condition, and records Delta as ``delta``."""

    __slots__ = ("signature", "images", "delta")

    def __init__(self, signature: WeylSignature, images: list[WeylElement]):
        self.signature = signature
        self.images = _checked_values(signature, images, "image")
        self.delta = _checked_delta(signature, self.images)

    @classmethod
    def identity(cls, signature: WeylSignature) -> Automorphism:
        images = [WeylElement.generator(signature, i) for i in range(signature.s)]
        return cls(signature, images)

    def apply(self, a: WeylElement) -> WeylElement:
        """Image of an element: substitute generator images monomial-wise
        (``sparse.substitute``: one product per distinct exponent prefix,
        at most s prefix images kept at a time)."""
        if a.signature != self.signature:
            raise SignatureMismatchError("element signature does not match")
        return substitute(a, self.images)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.signature == other.signature
            and self.images == other.images
        )

    def __hash__(self) -> int:
        return hash((self.signature, self.images))

    def __str__(self) -> str:
        return _arrow_text(self.images)

    def __repr__(self) -> str:
        return f"Automorphism({self.signature}, {str(self)!r})"


def _checked_delta(signature: WeylSignature, imgs: tuple[WeylElement, ...]) -> Fraction:
    """Check the relations, centrality and the Jacobian condition of the
    images; return the constant Delta."""
    n, m = signature.n, signature.m
    one, zero = WeylElement.one(signature), WeylElement.zero(signature)
    for i in range(n):
        for j in range(n):
            if ad(imgs[n + i], imgs[j]) != (one if i == j else zero):
                raise RelationError(
                    f"[s(x{n + i + 1}),s(x{j + 1})] != {1 if i == j else 0}"
                )
    for i in range(n):
        for j in range(i + 1, n):
            if not ad(imgs[i], imgs[j]).is_zero():
                raise RelationError(f"[s(x{i + 1}),s(x{j + 1})] != 0")
            if not ad(imgs[n + i], imgs[n + j]).is_zero():
                raise RelationError(f"[s(x{n + i + 1}),s(x{n + j + 1})] != 0")
    for j in range(m):
        if not imgs[2 * n + j].is_central():
            raise RelationError(f"s(x{2 * n + j + 1}) not central")
    if not m:
        return Fraction(1)
    jac = det(_central_jacobian(imgs, n, m))
    if jac.is_zero() or not jac.is_constant():
        raise JacobianError(f"Delta = {jac} is not a nonzero constant")
    return jac.constant_term()


def aut_verify(signature: WeylSignature, images: list[WeylElement]) -> Automorphism:
    """The automorphism with these images; building it runs every check."""
    return Automorphism(signature, images)


def aut_compose(outer: Automorphism, inner: Automorphism) -> Automorphism:
    """(outer o inner)(x_i) = outer(inner(x_i)); the result is checked anew."""
    if outer.signature != inner.signature:
        raise SignatureMismatchError("automorphism signatures do not match")
    images = [outer.apply(img) for img in inner.images]
    return aut_verify(outer.signature, images)


# -- twisted partials and the inversion formula ------------------------------


def _central_jacobian(images, n: int, m: int) -> list[list[WeylElement]]:
    """Rows d s(x_{2n+j}) / d x_{2n+l} of the central images, on A(n, m)."""
    return [[images[2 * n + j].partial(2 * n + l) for l in range(m)] for j in range(m)]


def _central_minor(rows: list[list[WeylElement]], drop_row: int, drop_col: int) -> WeylElement:
    sub = [
        [x for c, x in enumerate(row) if c != drop_col]
        for r, row in enumerate(rows)
        if r != drop_row
    ]
    return det(sub) if sub else WeylElement.one(rows[0][0].signature)


def _integrate_weyl(system: LndSystem, stray: list[WeylElement]) -> WeylElement:
    """Element u with ad(u)(t_k) = -stray[k] for the 2n ad-direction system
    (derivations ad(t_{n+i}), -ad(t_i); slices t_1..t_2n), so that ad(u)
    cancels a derivation whose values on the slices are ``stray``; unique up
    to a central summand, normalized to have projection zero.

    Since ad(u)(t_{n+i}) = -ad(t_{n+i})(u) = -d'_i(u) and ad(u)(t_i) =
    d'_{n+i}(u), the conditions read d'_i(u) = stray[n+i] and
    d'_{n+i}(u) = -stray[i]; u is resummed from its Taylor coefficients
    over the system (each coefficient is central, so its placement in the
    monomial is immaterial)."""
    nn = system.s
    n = nn // 2
    derived = [stray[n + i] for i in range(n)] + [-stray[i] for i in range(n)]
    u = system._zero
    for k in range(nn):
        if derived[k].is_zero():
            continue
        coeffs = system.taylor_decompose(derived[k])
        for beta, c in coeffs.items():
            if any(beta[i] for i in range(k)):
                continue
            alpha = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
            scaled = c * Fraction(multi_factorial(beta), multi_factorial(alpha))
            u = u + system.slice_monomial(alpha) * scaled
    return u


def twisted_partials(aut: Automorphism) -> list[DerivationDescriptor]:
    """The derivations d'_i = s d_i s^{-1}, i.e. d'_i(s(x_j)) = delta_ij.

    For i <= 2n these are ad(s(x_{n+i})) resp. ad(-s(x_i)).  In a central
    direction the Delta^{-1}-scaled cofactor expansion of the central
    Jacobian along the row of bare partials handles the center, but it need
    not vanish on the Weyl images (it fails to whenever those involve
    central variables, e.g. s(x1) = x1 + x3^2 in A(1,1)); the unique inner
    correction ad(u_j) restoring d'_{2n+j}(s(x_k)) = 0 is integrated from
    the ad-direction system, which never requires knowing s^{-1}, and sits
    beside the fused partials as in a ``Derivation``'s descriptor."""
    n, m = aut.signature.n, aut.signature.m
    out: list[DerivationDescriptor] = []
    for i in range(n):
        out.append(InnerDerivation(aut.images[n + i]))
    for i in range(n):
        out.append(InnerDerivation(-aut.images[i]))
    if m:
        jac = _central_jacobian(aut.images, n, m)
        inv_delta = Fraction(1) / aut.delta
        weyl_system = None
        if n:
            # unchecked: invert's certificate covers these directions
            weyl_system = LndSystem(list(out), list(aut.images[: 2 * n]), check=False)
        for j in range(m):
            minors = [(l, _central_minor(jac, j, l)) for l in range(m)]
            combo = CombinationDerivation([
                (c.scale(inv_delta * (-1) ** (j + l)), PartialDerivation(2 * n + l))
                for l, c in minors if not c.is_zero()])
            if weyl_system is not None:
                stray = [combo.apply(aut.images[k]) for k in range(2 * n)]
                if any(not w.is_zero() for w in stray):
                    u = _integrate_weyl(weyl_system, stray)
                    combo = CombinationDerivation([(1, InnerDerivation(u)), (1, combo)])
            out.append(combo)
    return out


def invert(aut: Automorphism) -> Automorphism:
    """Inversion formula: s^{-1}(x_i) = sum_alpha x^alpha phi'(d'^alpha x_i / alpha!).

    Each coefficient is read as its constant term, off one pairing walk per
    generator; the candidate t is checked and certified by s(t(x_i)) = x_i
    alone, which suffices as A(n, m) is Noetherian (module docstring).
    """
    sig = aut.signature
    system = LndSystem(twisted_partials(aut), list(aut.images), check=False)
    gens = system._one.generators()
    inverse = aut_verify(sig, [WeylElement(sig, system._taylor_at_zero(x)) for x in gens])
    for i, gen in enumerate(gens):
        if aut.apply(inverse.images[i]) != gen:
            raise LndError(
                "inverse candidate fails to compose to the identity; "
                "the images do not define an automorphism"
            )
    return inverse


# -- derivations given by generator values -----------------------------------


class Derivation:
    """A derivation of A(n, m) given by its values v_1..v_s on the generators.
    Construction checks compatibility with the defining relations:
    [v_a, x_b] + [x_a, v_b] = 0 for all generator pairs.

    Compatible values make it the descriptor ad(u) + sum_l v_{2n+l} d_{2n+l}
    that ``apply`` runs.  Compatibility on (x_a, x_{2n+l}) makes v_{2n+l}
    central.  On normal monomials d_i = ad(x_{n+i}) and d_{n+i} = -ad(x_i),
    so ad(u) has the values v_1..v_2n iff d_i u = -v_{n+i} and d_{n+i} u = v_i;
    compatibility on the Weyl pairs makes this 1-form closed, and u is its
    Euler integral in the 2n Weyl generators, the centre a parameter (the
    derivations of A_n are inner; Dixmier, Bull. SMF 96, 1968).  On P_m,
    u = 0 and the descriptor is the fused partial combination."""

    __slots__ = ("signature", "values", "descriptor")

    def __init__(self, signature: WeylSignature, values: list[WeylElement]):
        self.signature = signature
        self.values = _checked_values(signature, values, "value")
        self._validate()
        n = signature.n
        central = CombinationDerivation([(v, PartialDerivation(l)) for l, v in
                                         enumerate(values) if l >= 2 * n and not v.is_zero()])
        self.descriptor = central if not n else CombinationDerivation(
            [(1, InnerDerivation(self._potential())), (1, central)])

    def _validate(self) -> None:
        sig = self.signature
        gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
        for a in range(sig.s):
            for b in range(a + 1, sig.s):
                lhs = ad(self.values[a], gens[b]) + ad(gens[a], self.values[b])
                if not lhs.is_zero():
                    raise LndError(
                        f"values are not relation-compatible on (x{a + 1}, x{b + 1})"
                    )

    def _potential(self) -> WeylElement:
        """u = sum_k sum_{c y^e in f_k} c y^(e + e_k) / (|e|_y + 1) for the
        closed 1-form f = (-v_{n+1}, .., -v_{2n}, v_1, .., v_n), y the 2n Weyl
        generators."""
        n, v = self.signature.n, self.values
        terms: dict[MultiIndex, Fraction] = {}
        for k, f in enumerate([-w for w in v[n:2 * n]] + list(v[:n])):
            for e, c in f.terms.items():
                key = e[:k] + (e[k] + 1,) + e[k + 1:]
                terms[key] = terms.get(key, 0) + Fraction(c, sum(e[:2 * n]) + 1)
        return WeylElement(self.signature, terms)

    def scale(self, factor: Fraction | int) -> Derivation:
        return Derivation(self.signature, [v * Fraction(factor) for v in self.values])

    def apply(self, a: WeylElement) -> WeylElement:
        if a.signature != self.signature:
            raise SignatureMismatchError("element signature does not match")
        return self.descriptor.apply(a)

    def __str__(self) -> str:
        return _arrow_text(self.values)

    def __repr__(self) -> str:
        return f"Derivation({self.signature}, {str(self)!r})"


def _nilpotent_sum(cur: WeylElement, step, coeff, what: str) -> WeylElement:
    """sum_k coeff(k) * step^k(cur) over the nonzero step^k(cur); a nonzero
    one with k > NILPOTENCE_CAP raises "``what`` within cap ..."."""
    total, k = cur.scale(0), 0
    while not cur.is_zero():
        if k > NILPOTENCE_CAP:
            raise CapExceededError(f"{what} within cap {NILPOTENCE_CAP}")
        if c := coeff(k):
            total = total + cur * c
        cur = step(cur)
        k += 1
    return total


def log_aut(aut: Automorphism) -> Derivation:
    """log of a unipotent automorphism:
    d(x_i) = sum_{k>=1} (-1)^(k+1) (s - id)^k (x_i) / k, the sum started at
    x_i = (s - id)^0 x_i with coefficient 0."""
    return Derivation(aut.signature, [
        _nilpotent_sum(x, lambda a: aut.apply(a) - a,
                       lambda k: Fraction((-1) ** (k + 1), k) if k else 0,
                       f"(s - id) is not nilpotent on x{i + 1}")
        for i, x in enumerate(WeylElement.one(aut.signature).generators())])


def exp_der(deriv: Derivation) -> Automorphism:
    """exp of a locally nilpotent derivation: s(x_i) = sum_k d^k(x_i) / k!."""
    return aut_verify(deriv.signature, [
        _nilpotent_sum(x, deriv.apply, lambda k: Fraction(1, factorial(k)),
                       f"derivation is not nilpotent on x{i + 1}")
        for i, x in enumerate(WeylElement.one(deriv.signature).generators())])


# -- differential operator series --------------------------------------------


class DiffOpSeries(TaylorCoefficients):
    """A truncated series sum_alpha a_alpha d^alpha; absent indices read 0."""

    __slots__ = ("signature",)
    head, empty = "d^", "0"

    def __init__(self, signature: WeylSignature, coeffs: dict[MultiIndex, WeylElement]):
        super().__init__(signature.s, coeffs)
        self.signature = signature

    def __getitem__(self, alpha: MultiIndex) -> WeylElement:
        return self.coeffs.get(tuple(alpha), WeylElement.zero(self.signature))


def _check_order(max_order: int) -> None:
    if max_order < 0:
        raise UsageError(f"max order {max_order} is negative")


def aut_to_series(aut: Automorphism, max_order: int) -> DiffOpSeries:
    """The series of s, truncated: the ``map_to_series`` solve over s's table."""
    return map_to_series(aut.signature, linear_map_table(aut, max_order), max_order)


def series_apply(series: DiffOpSeries, a: WeylElement) -> WeylElement:
    """sum_alpha a_alpha * d^alpha(a).  Exact on elements whose degree is at
    most the order the series was solved to (``map_to_series``' max_order);
    the series does not record that order."""
    if a.signature != series.signature:
        raise SignatureMismatchError("element signature does not match the series")
    total = WeylElement.zero(series.signature)
    for alpha, c in series.coeffs.items():
        derived = a.multi_partial(alpha)
        if derived.is_zero():
            continue
        total = total + weyl_mul(c, derived)
    return total


def linear_map_table(aut: Automorphism, max_order: int) -> dict[MultiIndex, WeylElement]:
    """Tabulate s on all basis monomials x^alpha with |alpha| <= max_order,
    each as s(x^(alpha - e_j)) * s(x_j), x_j the last factor of the normal
    monomial x^alpha."""
    _check_order(max_order)
    sig = aut.signature
    table = {}
    for alpha in iter_upto(sig.s, max_order):
        if not any(alpha):
            table[alpha] = WeylElement.one(sig)
            continue
        j = max(i for i, e in enumerate(alpha) if e)
        prefix = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
        table[alpha] = weyl_mul(table[prefix], aut.images[j])
    return table


def map_to_series(
    signature: WeylSignature, table: dict[MultiIndex, WeylElement], max_order: int
) -> DiffOpSeries:
    """Unique series with f(x^alpha) = sum_beta a_beta d^beta(x^alpha) for all
    |alpha| <= max_order, solved layer by layer over the closed form
    d^beta x^alpha = alpha!/(alpha-beta)! x^(alpha-beta) (beta <= alpha):

        f(x^alpha) = alpha! a_alpha + sum_{beta < alpha} a_beta d^beta(x^alpha).

    A table entry beyond max_order is refused, not dropped."""
    _check_order(max_order)
    table = {tuple(k): v for k, v in table.items()}
    if beyond := [k for k in table if sum(k) > max_order]:
        raise UsageError(f"linear map table has the monomial {beyond[0]} "
                         f"beyond max order {max_order}")
    solved: dict[MultiIndex, WeylElement] = {}
    for alpha in iter_upto(signature.s, max_order):
        if alpha not in table:
            raise UsageError(f"linear map table is missing the monomial {alpha}")
        rhs = table[alpha]
        fact = multi_factorial(alpha)
        for beta, a_beta in solved.items():
            if all(b <= a for b, a in zip(beta, alpha)):
                rest = tuple(a - b for a, b in zip(alpha, beta))
                minus_pd = {rest: -(fact // multi_factorial(rest))}  # -d^beta(x^alpha)
                rhs = rhs + weyl_mul(a_beta, WeylElement._trusted(signature, minus_pd))
        if not rhs.is_zero():
            solved[alpha] = rhs * Fraction(1, fact)
    return DiffOpSeries(signature, solved)
