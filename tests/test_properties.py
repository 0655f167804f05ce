"""Property tests on generated tame automorphisms of P_m and of A(n, m)
(inverses, exp/log, operator series), on generated derivations of A(n, m),
print-then-parse on generated elements of all three carriers, and the
tokenizer and parser on any text (needs hypothesis; skipped without it).
Examples are derandomized and few, so the run is fixed and short."""

import contextlib
import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from lndcalc import (  # noqa: E402
    Automorphism,
    CommCarrier,
    CommPoly,
    Derivation,
    FreeCarrier,
    JacobianError,
    LndError,
    LndSystem,
    ParseError,
    WeylCarrier,
    WeylElement,
    WeylSignature,
    aut_compose,
    aut_to_series,
    aut_verify,
    exp_der,
    invert,
    log_aut,
    parse_element,
    series_apply,
    twisted_partials,
)
from lndcalc.cli import main  # noqa: E402
from lndcalc.parsing import tokenize  # noqa: E402
from oracle_derivation import leibniz_apply  # noqa: E402
from oracle_validate import validate as oracle_validate  # noqa: E402
from support import tame_poly_map  # noqa: E402

COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def tame_maps(draw):
    """(map, inverse): two or three elementary shifts x_j -> c x_j + f on
    P_2..P_4, f of degree <= 2 in the other variables plus a constant."""
    m = draw(st.integers(2, 4))
    steps = []
    for _ in range(draw(st.integers(2, 3))):
        j = draw(st.integers(0, m - 1))
        others = [k for k in range(m) if k != j]
        f = {(0,) * m: draw(st.integers(-2, 2))}
        for _ in range(draw(st.integers(1, 2))):
            alpha = [0] * m
            for k in draw(st.lists(st.sampled_from(others), min_size=1, max_size=2)):
                alpha[k] += 1
            f[tuple(alpha)] = draw(COEFFS)
        steps.append((j, draw(st.sampled_from([1, 1, -1, 2])), f))
    return tame_poly_map(m, steps)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(tame_maps())
def test_invert_round_trip_and_the_zero_path_equals_the_table(case):
    aut, inverse = case
    sig = aut.signature
    got = invert(aut)
    assert got == inverse
    # invert never validates its twisted system: the checked constructor and
    # the former probe set must both accept it
    oracle_validate(LndSystem(twisted_partials(aut), list(aut.images)))
    system = LndSystem(twisted_partials(aut), list(aut.images), check=False)
    for i in range(sig.s):
        x = WeylElement.generator(sig, i)
        table = system.taylor_decompose(x)
        expected = {alpha: c.constant_term() for alpha, c in table.items()}
        assert system._taylor_at_zero(x) == expected
        assert WeylElement(sig, expected) == got.images[i]


# -- A(n, m): the momentum/coordinate shear and central-shift templates --------

WEYL_SIGNATURES = [WeylSignature(1, 0), WeylSignature(1, 1), WeylSignature(2, 0)]


def _shear(sig, kind, f):
    """One elementary map and its inverse, as in the benchmark's templates:
    "p" sends x_{n+i} -> x_{n+i} + df/dx_i (f in coordinates and centre),
    "q" sends x_i -> x_i + df/dx_{n+i} (f in momenta and centre), "z" sends
    the last central x_s -> x_s + f (f a constant here)."""
    n = sig.n
    gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
    image, back = list(gens), list(gens)
    if kind == "z":
        image[-1], back[-1] = gens[-1] + f, gens[-1] - f
    else:
        for i in range(n):
            src, tgt = (i, n + i) if kind == "p" else (n + i, i)
            g = f.partial(src)
            image[tgt], back[tgt] = gens[tgt] + g, gens[tgt] - g
    return aut_verify(sig, image), aut_verify(sig, back)


@st.composite
def weyl_tame_maps(draw, sig, one_kind=False):
    """(map, inverse factors innermost first): one or two shears on ``sig``,
    each f up to two monomials of degree 2..3, and with a centre maybe a
    central shift among them (so the images stay of degree <= 4).  With
    ``one_kind`` the shears are all "p" or all "q", so the map is unipotent."""
    n, centre = sig.n, list(range(2 * sig.n, sig.s))
    kinds = draw(st.lists(st.sampled_from("pq"), min_size=1, max_size=2))
    if one_kind:
        kinds = kinds[:1] * len(kinds)
    if centre and draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "z")
    pairs = []
    for kind in kinds:
        if kind == "z":
            f = WeylElement.constant(sig, draw(st.sampled_from([1, -2, Fraction(1, 2)])))
        else:
            own = list(range(n)) if kind == "p" else list(range(n, 2 * n))
            f = WeylElement.zero(sig)
            for _ in range(draw(st.integers(1, 2))):
                exps = [0] * sig.s
                for k in draw(st.lists(st.sampled_from(own + centre), min_size=2,
                                       max_size=3)):
                    exps[k] += 1
                f = f + WeylElement.monomial(sig, tuple(exps), draw(COEFFS))
        pairs.append(_shear(sig, kind, f))
    aut = pairs[0][0]
    for step, _ in pairs[1:]:
        aut = aut_compose(aut, step)
    return aut, [back for _, back in pairs]


@pytest.mark.parametrize("sig", WEYL_SIGNATURES, ids=str)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_invert_on_weyl_shears_is_the_composed_factor_inverse(sig, data):
    aut, factors = data.draw(weyl_tame_maps(sig))
    expected = factors[0]
    for f in factors[1:]:
        expected = aut_compose(f, expected)
    got = invert(aut)
    assert got == expected
    # invert never validates its twisted system: the checked constructor and
    # the former probe set must both accept it
    oracle_validate(LndSystem(twisted_partials(aut), list(aut.images)))
    ident = Automorphism.identity(aut.signature)
    assert aut_compose(aut, got) == ident == aut_compose(got, aut)
    system = LndSystem(twisted_partials(aut), list(aut.images), check=False)
    for i in range(sig.s):
        x = WeylElement.generator(sig, i)
        table = system.taylor_decompose(x)
        expected = {alpha: c.constant_term() for alpha, c in table.items()}
        assert system._taylor_at_zero(x) == expected
        assert WeylElement(sig, expected) == got.images[i]


@pytest.mark.parametrize("sig", WEYL_SIGNATURES[:2], ids=str)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_exp_log_round_trip_on_unipotent_weyl_shears(sig, data):
    aut, _ = data.draw(weyl_tame_maps(sig, one_kind=True))
    delta = log_aut(aut)
    assert exp_der(delta) == aut
    assert log_aut(exp_der(delta)).values == delta.values


# -- Derivation.apply against the Leibniz oracle -------------------------------

DERIVATION_SIGNATURES = [WeylSignature(1, 0), WeylSignature(1, 1), WeylSignature(2, 0),
                         WeylSignature(0, 2), WeylSignature(1, 2)]


@st.composite
def weyl_elements(draw, sig, indices, terms, degree):
    """Up to ``terms`` monomials in the generators ``indices``, each of degree
    <= ``degree``, with a constant."""
    f = WeylElement.constant(sig, draw(st.integers(-2, 2)))
    for _ in range(draw(st.integers(0, terms)) if indices else 0):
        exps = [0] * sig.s
        for k in draw(st.lists(st.sampled_from(indices), max_size=degree)):
            exps[k] += 1
        f = f + WeylElement.monomial(sig, tuple(exps), draw(COEFFS))
    return f


@pytest.mark.parametrize("sig", DERIVATION_SIGNATURES, ids=str)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_derivation_apply_is_the_leibniz_extension(sig, data):
    """Values ad(w)(x_k) + c_(k-2n), c_l central, are relation-compatible; the
    descriptor that ``apply`` runs must agree with Leibniz on drawn elements."""
    gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
    centre = list(range(2 * sig.n, sig.s))
    w = data.draw(weyl_elements(sig, list(range(sig.s)), 3, 3))
    values = [w * x - x * w for x in gens[:2 * sig.n]]
    values += [data.draw(weyl_elements(sig, centre, 2, 2)) for _ in centre]
    d = Derivation(sig, values)
    assert [d.apply(x) for x in gens] == values
    for _ in range(3):
        a = data.draw(weyl_elements(sig, list(range(sig.s)), 3, 3))
        assert d.apply(a) == leibniz_apply(values, a)


# -- operator series on A(n, m), n > 0 -----------------------------------------

SERIES_ORDER = 4


@pytest.mark.parametrize("sig", WEYL_SIGNATURES[:2], ids=str)
@settings(derandomize=True, max_examples=15, deadline=None)
@given(data=st.data())
def test_series_of_a_weyl_shear_applies_as_the_map(sig, data):
    """Truncated at order N, s's series is exact on elements of degree <= N."""
    aut, _ = data.draw(weyl_tame_maps(sig))
    series = aut_to_series(aut, SERIES_ORDER)
    for _ in range(3):
        a = data.draw(weyl_elements(sig, list(range(sig.s)), 3, SERIES_ORDER))
        assert series_apply(series, a) == aut.apply(a)


# -- A(n, m), m >= 1: the central Jacobian against sympy ------------------------

CENTRAL_SIGNATURES = [WeylSignature(0, 1), WeylSignature(0, 2), WeylSignature(0, 3),
                      WeylSignature(1, 1), WeylSignature(1, 2), WeylSignature(2, 1)]


@st.composite
def central_maps(draw, sig):
    """Images on ``sig`` that satisfy the relations: x_i -> x_i + h_i and
    x_{n+i} -> x_{n+i} + g_i with h_i, g_i central, and the central x_{2n+j}
    sent either all to c_j x_{2n+j} + f_j (f_j in the earlier central
    generators, so Delta is a nonzero constant) or all to central
    polynomials of degree <= 2 (Delta may be zero or not constant)."""
    nn, m = 2 * sig.n, sig.m

    def central(indices, top):
        f = WeylElement.constant(sig, draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 2)) if indices else 0):
            exps = [0] * sig.s
            for k in draw(st.lists(st.sampled_from(indices), min_size=1, max_size=top)):
                exps[k] += 1
            f = f + WeylElement.monomial(sig, tuple(exps), draw(COEFFS))
        return f

    zs = list(range(nn, sig.s))
    images = [WeylElement.generator(sig, i) for i in range(sig.s)]
    for i in range(nn):
        if draw(st.booleans()):
            images[i] = images[i] + central(zs, 2)
    triangular = draw(st.booleans())
    for j in range(m):
        if triangular:
            images[nn + j] = images[nn + j].scale(draw(COEFFS)) + central(zs[:j], 2)
        else:
            images[nn + j] = central(zs, 2)
    return images


@pytest.mark.parametrize("sig", CENTRAL_SIGNATURES, ids=str)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_delta_is_the_sympy_determinant_of_the_central_jacobian(sig, data):
    sympy = pytest.importorskip("sympy")
    images = data.draw(central_maps(sig))
    nn = 2 * sig.n
    zs = sympy.symbols(f"x{nn + 1}:{sig.s + 1}")

    def to_sympy(a):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                           * sympy.Mul(*(z ** e for z, e in zip(zs, exps[nn:])))
                           for exps, c in a.terms.items()))

    rows = [[sympy.diff(to_sympy(images[nn + j]), z) for z in zs] for j in range(sig.m)]
    poly = sympy.Poly(sympy.expand(sympy.Matrix(rows).det()), *zs)
    expected = WeylElement(sig, {(0,) * nn + exps: Fraction(int(c.p), int(c.q))
                                 for exps, c in poly.terms() if c})
    argv = ["verify", "--n", str(sig.n), "--m", str(sig.m),
            "--aut", "; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(images))]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    if expected.is_constant() and not expected.is_zero():
        assert aut_verify(sig, images).delta == expected.constant_term()
        assert code == 0
    else:
        message = f"Delta = {expected} is not a nonzero constant"
        with pytest.raises(JacobianError) as err:
            aut_verify(sig, images)
        assert str(err.value) == message
        assert (code, out.getvalue()) == (1, f"ERROR jacobian: {message}\n")


# -- format(parse(text)) == text on all three carriers -------------------------

PRINT_CARRIERS = [
    CommCarrier(3),
    CommCarrier(3, frozenset({0})),
    WeylCarrier(WeylSignature(1, 1)),
    FreeCarrier(2),
]


@st.composite
def printed_elements(draw):
    """(carrier, element): up to five terms over P_3 (plain, or Laurent in
    x1), A(1,1) or F_2, exponents up to 3 (down to -3 on x1 when Laurent),
    words up to length 4."""
    carrier = draw(st.sampled_from(PRINT_CARRIERS))
    if isinstance(carrier, FreeCarrier):
        keys = st.lists(st.integers(0, 1), max_size=4).map(tuple)
    else:
        mask = getattr(carrier, "laurent_mask", frozenset())
        keys = st.tuples(*(st.integers(-3 if i in mask else 0, 3)
                           for i in range(carrier.count)))
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    terms = draw(st.dictionaries(keys, coeffs, max_size=5))
    return carrier, carrier.constant(1).like(terms)


LAURENT_CASE = (CommCarrier(3, frozenset({0})),
                CommPoly(3, {(-3, 1, 0): Fraction(-7, 2), (2, 0, 3): 1}, frozenset({0})))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(printed_elements())
@example(LAURENT_CASE)
def test_print_then_parse_is_the_identity_and_reprints_byte_for_byte(case):
    carrier, a = case
    text = str(a)
    back = parse_element(text, carrier)
    assert back == a
    assert str(back) == text


# -- any text: tokens or a ParseError, an element or an LndError ----------------

# pieces of right and wrong text; every '^' is followed by one digit and a
# space, by "-1 ", or by a non-digit, so no power reaches 10 (unbounded
# exponents are ROADMAP item 8)
TEXT_PIECES = ("x1", "x2", "x3", "x12", "x0", "x", "0", "7", "12", "2/3", "1/0", "1/",
               "/", "->", " ", "(", ")", "-", "+", "*", ";", "x²", "٣", "@",
               "^-1 ", "^x1", "^(") + tuple(f"^{e} " for e in range(10))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.text())
def test_tokenize_gives_tokens_or_a_parse_error_on_any_text(text):
    try:
        tokens = tokenize(text)
    except ParseError:
        return
    assert tokens[-1] == ("END", "", len(text), None)
    assert "".join(t.text for t in tokens) == "".join(text.split())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(PRINT_CARRIERS), st.lists(st.sampled_from(TEXT_PIECES), max_size=8))
def test_parse_element_gives_an_element_or_a_library_error(carrier, pieces):
    try:
        parse_element("".join(pieces), carrier)
    except LndError:
        pass
