"""Shared helpers for the test suite: seeded random element generators."""

from fractions import Fraction
from random import Random

from lndcalc import (
    CommPoly,
    FreeElement,
    LndSystem,
    WeylElement,
    WeylSignature,
    aut_compose,
    aut_verify,
    parse_images,
    twisted_partials,
)
from lndcalc.parsing import WeylCarrier

# (n, m, images) of three maps whose twisted systems the tests reuse
_W = "(x1*x3 + x2^2)"
NAGATA = (0, 3, f"x1 -> x1 - 2*x2*{_W} - x3*{_W}^2; x2 -> x2 + x3*{_W}; x3 -> x3")
MAP_A11 = (1, 1, "x1 -> x1 + x3^3; x2 -> x2 + x1^2*x3 - x1; x3 -> x3 + 1")
MAP_A20 = (2, 0, "x1 -> x1; x2 -> x2; x3 -> x3 + 2*x1*x2 + 4*x1^3; "
                 "x4 -> x4 + x1^2 + 3*x2^2")

# the n > 0 reach maps of ROADMAP.md on A(1,0) as shears (j, f): x_j -> x_j + f
# with f in the other generator, outermost first (``sheared_a10``)
A10_P5Q4 = ((1, "2*x1^5"), (0, "x2^4"))
A10_P4Q3P2 = ((1, "x1^4"), (0, "x2^3"), (1, "x1^2"))


def verified_map(n: int, m: int, text: str):
    sig = WeylSignature(n, m)
    return aut_verify(sig, parse_images(text, WeylCarrier(sig)))


def twisted_unchecked(n: int, m: int, text: str) -> LndSystem:
    """The twisted system of a map, built without validation."""
    aut = verified_map(n, m, text)
    return LndSystem(twisted_partials(aut), list(aut.images), check=False)


def sheared_a10(shears):
    """The map shear_1 o shear_2 o ... of A(1,0) and its inverse, composed
    of the shears' inverses x_j -> x_j - f in reverse order; both verified."""
    aut = inverse = None
    for j, f in shears:
        images, back = ["x1", "x2"], ["x1", "x2"]
        images[j] += f" + {f}"
        back[j] += f" - ({f})"
        step = verified_map(1, 0, f"x1 -> {images[0]}; x2 -> {images[1]}")
        step_inv = verified_map(1, 0, f"x1 -> {back[0]}; x2 -> {back[1]}")
        aut = step if aut is None else aut_compose(aut, step)
        inverse = step_inv if inverse is None else aut_compose(step_inv, inverse)
    return aut, inverse


def is_canonical(c) -> bool:
    """The carriers' coefficient form: a nonzero int, or a Fraction that is
    not integral."""
    return c != 0 and (type(c) is int or (type(c) is Fraction and c.denominator != 1))


def random_fraction(rng: Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def random_comm(
    rng: Random,
    num_vars: int,
    degree: int,
    terms: int = 4,
    laurent_mask: frozenset = frozenset(),
) -> CommPoly:
    """Random polynomial with up to `terms` monomials of total degree <= degree."""
    out = CommPoly.constant(num_vars, 0, laurent_mask)
    for _ in range(terms):
        alpha = [0] * num_vars
        for _ in range(rng.randint(0, degree)):
            alpha[rng.randrange(num_vars)] += 1
        out = out + CommPoly.monomial(
            num_vars, tuple(alpha), random_fraction(rng), laurent_mask
        )
    return out


def random_weyl(
    rng: Random, signature: WeylSignature, degree: int, terms: int = 4
) -> WeylElement:
    out = WeylElement.constant(signature, 0)
    for _ in range(terms):
        alpha = [0] * signature.s
        for _ in range(rng.randint(0, degree)):
            alpha[rng.randrange(signature.s)] += 1
        out = out + WeylElement.monomial(signature, tuple(alpha), random_fraction(rng))
    return out


def random_free(
    rng: Random, num_gens: int, length: int, terms: int = 4
) -> FreeElement:
    out = FreeElement.constant(num_gens, 0)
    for _ in range(terms):
        word = tuple(
            rng.randrange(num_gens) for _ in range(rng.randint(0, length))
        )
        out = out + FreeElement.word(num_gens, word, random_fraction(rng))
    return out


def random_unipotent_poly(rng: Random, sig: WeylSignature):
    """Verified triangular unipotent automorphism of P_m: x_i + stuff(x_{<i})."""
    images = []
    for i in range(sig.s):
        extra = WeylElement.constant(sig, rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2)):
            alpha = [0] * sig.s
            for _ in range(rng.randint(1, 2)):
                if i == 0:
                    break
                alpha[rng.randrange(i)] += 1
            extra = extra + WeylElement.monomial(
                sig, tuple(alpha), Fraction(rng.randint(1, 3), rng.randint(1, 2))
            )
        images.append(WeylElement.generator(sig, i) + extra)
    return aut_verify(sig, images)


def random_triangular_a11(rng: Random):
    """Verified automorphism of A(1,1) with degree <= 3 images: scale the
    Weyl pair by reciprocal units and shift along the commuting directions."""
    sig = WeylSignature(1, 1)
    lam = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    mu = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
    x1, x2, x3 = (WeylElement.generator(sig, i) for i in range(3))
    p = WeylElement.zero(sig)  # polynomial in x3 only, degree <= 3
    for k in range(rng.randint(0, 3)):
        p = p + WeylElement.monomial(sig, (0, 0, k), rng.randint(-2, 2))
    q = WeylElement.zero(sig)  # polynomial in x1, x3: commutes with x1
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, 2)
        c = rng.randint(0, 2)
        if a + c > 3:
            continue
        q = q + WeylElement.monomial(sig, (a, 0, c), rng.randint(-2, 2))
    images = [
        x1.scale(lam) + p,
        x2.scale(1 / lam) + q,
        x3.scale(mu) + WeylElement.constant(sig, rng.randint(-3, 3)),
    ]
    return aut_verify(sig, images)


def tame_poly_map(m: int, steps):
    """A tame automorphism of P_m and its inverse, both verified.

    Each step (j, scale, f) is the elementary map x_j -> scale * x_j + f with
    f free of x_j, given as {exponents: coefficient}; the map is
    step_1 o step_2 o ..., so its inverse is known by construction.  A
    constant in f moves the images off 0."""
    sig = WeylSignature(0, m)
    gens = [WeylElement.generator(sig, i) for i in range(m)]
    aut = inverse = None
    for j, scale, f in steps:
        shift = WeylElement(sig, f)
        image, back = list(gens), list(gens)
        image[j] = gens[j].scale(scale) + shift
        back[j] = (gens[j] - shift).scale(Fraction(1) / scale)
        step, step_inv = aut_verify(sig, image), aut_verify(sig, back)
        aut = step if aut is None else aut_compose(aut, step)
        inverse = step_inv if inverse is None else aut_compose(step_inv, inverse)
    return aut, inverse


def random_tame_poly(rng: Random, m: int, steps: int = 2, degree: int = 2):
    """Seeded ``tame_poly_map``: like the benchmark's triangular templates,
    shifts by up to two monomials of degree <= ``degree`` plus a constant,
    and now and then a scaled variable."""
    made = []
    for _ in range(steps):
        j = rng.randrange(m)
        f = {(0,) * m: rng.randint(-2, 2)}
        for _ in range(rng.randint(1, 2)):
            alpha = [0] * m
            for _ in range(rng.randint(1, degree)):
                alpha[rng.choice([k for k in range(m) if k != j])] += 1
            f[tuple(alpha)] = random_fraction(rng)
        made.append((j, rng.choice([1, 1, 1, -1, 2, Fraction(1, 2)]), f))
    return tame_poly_map(m, made)
