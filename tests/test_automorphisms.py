"""Automorphism verification, twisted partials, inversion, exp/log, series."""

from fractions import Fraction
from random import Random

import pytest

from lndcalc import (
    Automorphism,
    CapExceededError,
    Derivation,
    DiffOpSeries,
    JacobianError,
    LndError,
    LndSystem,
    RelationError,
    SignatureMismatchError,
    UsageError,
    WeylElement,
    WeylSignature,
    aut_compose,
    aut_to_series,
    aut_verify,
    exp_der,
    invert,
    linear_map_table,
    log_aut,
    map_to_series,
    parse_element,
    parse_images,
    series_apply,
    twisted_partials,
    twisted_system,
)
from lndcalc import automorphisms, weyl
from lndcalc.multiindex import iter_upto
from lndcalc.parsing import WeylCarrier
from oracle_series import closed_form_series
from support import (
    MAP_A11,
    MAP_A20,
    NAGATA,
    random_triangular_a11,
    random_unipotent_poly,
    random_weyl,
    verified_map,
)

A10 = WeylSignature(1, 0)
A11 = WeylSignature(1, 1)
P1 = WeylSignature(0, 1)
P2 = WeylSignature(0, 2)
P3 = WeylSignature(0, 3)


def _aut(sig, text):
    return aut_verify(sig, parse_images(text, WeylCarrier(sig)))


def _gens(sig):
    return [WeylElement.generator(sig, i) for i in range(sig.s)]


def _fixes_generators(aut):
    return all(img == gen for img, gen in zip(aut.images, _gens(aut.signature)))


# -- verification ---------------------------------------------------------------


def test_verify_examples():
    ident = Automorphism.identity(A10)
    assert ident.delta == 1 and _fixes_generators(ident)

    good = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    assert good.delta == 1

    with pytest.raises(RelationError) as err:
        _aut(A10, "x1 -> x1; x2 -> x2 + x2^2")
    assert str(err.value) == "[s(x2),s(x1)] != 1"


def test_verify_checks_the_jacobian():
    with pytest.raises(JacobianError) as err:
        _aut(P2, "x1 -> x1^2; x2 -> x2")
    assert str(err.value) == "Delta = 2*x1 is not a nonzero constant"
    with pytest.raises(JacobianError):
        _aut(P2, "x1 -> x1 + x2; x2 -> x1 + x2")  # Delta = 0
    scaled = _aut(P2, "x1 -> 2*x1; x2 -> 3*x2")
    assert scaled.delta == 6


def test_verify_requires_central_images_for_central_variables():
    with pytest.raises(LndError):
        _aut(A11, "x1 -> x1; x2 -> x2; x3 -> x3 + x1")


def test_apply_examples():
    ident = Automorphism.identity(A10)
    rng = Random(501)
    for _ in range(5):
        a = random_weyl(rng, A10, 4, 3)
        assert ident.apply(a) == a

    shift = _aut(P2, "x1 -> x1 + 1; x2 -> x2 + x1")
    assert shift.apply(parse_element("x2", WeylCarrier(P2))) == \
        parse_element("x2 + x1", WeylCarrier(P2))

    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    assert sigma.apply(parse_element("x2*x1", WeylCarrier(A10))) == \
        parse_element("x1*x2 + x1^3 + 1", WeylCarrier(A10))


def test_apply_is_multiplicative():
    rng = Random(502)
    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    for _ in range(10):
        a = random_weyl(rng, A10, 3, 3)
        b = random_weyl(rng, A10, 3, 3)
        assert sigma.apply(a * b) == sigma.apply(a) * sigma.apply(b)


def test_apply_matches_term_by_term_substitution():
    # shared exponent prefixes and a final scaling give the same image as
    # substituting every monomial factor by factor from the coefficient on
    def substitute(sigma, a):
        total = WeylElement.zero(a.signature)
        for exps, c in a.terms.items():
            piece = WeylElement.constant(a.signature, c)
            for i, e in enumerate(exps):
                for _ in range(e):
                    piece = piece * sigma.images[i]
            total = total + piece
        return total

    rng = Random(507)
    for _ in range(4):
        sigma = random_triangular_a11(rng)
        for _ in range(3):
            a = random_weyl(rng, A11, 4, 6)
            assert sigma.apply(a) == substitute(sigma, a)
    sigma = random_unipotent_poly(rng, P2)
    for _ in range(3):
        a = random_weyl(rng, P2, 4, 6)
        assert sigma.apply(a) == substitute(sigma, a)


def test_apply_forms_one_product_per_distinct_nonzero_prefix(monkeypatch):
    # one product per power x_i^e (e >= 2, from x_i^(e-1)) and one per
    # exponent prefix x1^e1..xi^ei with ei > 0 after an earlier nonzero
    # exponent; constants, scalings and sums form none
    sigma = verified_map(*NAGATA)
    a = parse_element("(x1 + 2*x2 + 3*x3 + 1)^9", WeylCarrier(P3))
    expected = sigma.apply(parse_element("x1 + 2*x2 + 3*x3 + 1", WeylCarrier(P3))) ** 9
    powers = sum(max(e[i] for e in a.terms) - 1 for i in range(3))
    prefixes = {e[:i + 1] for e in a.terms for i in range(3) if e[i] and any(e[:i])}
    calls = []
    real = weyl.weyl_mul
    monkeypatch.setattr(weyl, "weyl_mul", lambda *args: calls.append(1) or real(*args))
    assert sigma.apply(a) == expected
    assert len(calls) == powers + len(prefixes) == 216


# -- twisted partials -------------------------------------------------------------


def test_twisted_partials_of_the_identity_are_the_partials():
    for sig in (A10, A11, P2):
        parts = twisted_partials(Automorphism.identity(sig))
        rng = Random(503)
        for _ in range(5):
            a = random_weyl(rng, sig, 3, 3)
            for i, d in enumerate(parts):
                assert d.apply(a) == a.partial(i)


def test_twisted_partials_weyl_example():
    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    parts = twisted_partials(sigma)
    for i, d in enumerate(parts):
        for j, image in enumerate(sigma.images):
            expected = WeylElement.constant(A10, 1 if i == j else 0)
            assert d.apply(image) == expected


def test_twisted_partials_polynomial_example():
    # (x1, x2 + x1^3): first direction becomes d1 - 3 x1^2 d2
    sigma = _aut(P2, "x1 -> x1; x2 -> x2 + x1^3")
    parts = twisted_partials(sigma)
    probe = parse_element("x2", WeylCarrier(P2))
    assert parts[0].apply(probe) == parse_element("-3*x1^2", WeylCarrier(P2))
    assert parts[0].apply(parse_element("x1", WeylCarrier(P2))) == \
        parse_element("1", WeylCarrier(P2))
    assert parts[1].apply(probe) == parse_element("1", WeylCarrier(P2))
    assert parts[1].apply(parse_element("x1", WeylCarrier(P2))).is_zero()


def test_twisted_partials_handle_central_variables_inside_weyl_images():
    # With images mixing the center into the Weyl pair, the central twisted
    # direction needs an inner correction: D3 = ad(-2*x3*x2) + d3 here.
    sigma = _aut(A11, "x1 -> x1 + x3^2; x2 -> x2; x3 -> x3")
    parts = twisted_partials(sigma)
    x1, x2, x3 = _gens(A11)
    assert parts[2].apply(x1) == parse_element("-2*x3", WeylCarrier(A11))
    assert parts[2].apply(x2).is_zero()
    assert parts[2].apply(x3) == WeylElement.one(A11)
    for i, d in enumerate(parts):
        for j, image in enumerate(sigma.images):
            expected = WeylElement.constant(A11, 1 if i == j else 0)
            assert d.apply(image) == expected


def test_twisted_partials_commute_pairwise():
    samples = [
        _aut(A10, "x1 -> x1; x2 -> x2 + x1^2"),
        _aut(A11, "x1 -> x1 + x3^2; x2 -> x2; x3 -> x3"),
        _aut(A11, "x1 -> 2*x1; x2 -> 1/2*x2 + x3; x3 -> x3 + 1"),
        _aut(P3, "x1 -> x1 + 1; x2 -> x2 + x1; x3 -> x3 + x2^2"),
    ]
    for sigma in samples:
        parts = twisted_partials(sigma)
        for g in _gens(sigma.signature):
            for i, di in enumerate(parts):
                for j, dj in enumerate(parts):
                    lhs = di.apply(dj.apply(g))
                    rhs = dj.apply(di.apply(g))
                    assert lhs == rhs, (i, j, str(g))


def test_twisted_system_is_a_valid_lnd_system():
    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    system = twisted_system(sigma)
    assert system.s == 2
    assert system.slices == sigma.images
    # the slices are the twisted coordinates: they project to zero, constants
    # are fixed, and the inversion coefficients come out of taylor_decompose
    assert system.phi(sigma.images[1]).is_zero()
    assert system.phi(WeylElement.constant(A10, 5)) == WeylElement.constant(A10, 5)
    coeffs = system.taylor_decompose(parse_element("x2", WeylCarrier(A10)))
    assert coeffs.coeffs == {
        (0, 1): WeylElement.one(A10),
        (2, 0): -WeylElement.one(A10),
    }


# -- inversion --------------------------------------------------------------------


def test_invert_examples():
    ident = Automorphism.identity(A10)
    assert _fixes_generators(invert(ident))

    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    tau = invert(sigma)
    assert str(tau) == "x1 -> x1; x2 -> x2 - x1^2"

    shift = _aut(P2, "x1 -> x1 + 1; x2 -> x2 + x1")
    back = invert(shift)
    assert back.images[0] == parse_element("x1 - 1", WeylCarrier(P2))
    assert back.images[1] == parse_element("x2 - x1 + 1", WeylCarrier(P2))


def test_invert_certifies_both_compositions():
    rng = Random(504)
    for _ in range(6):
        sigma = random_triangular_a11(rng)
        tau = invert(sigma)
        assert _fixes_generators(aut_compose(tau, sigma))
        assert _fixes_generators(aut_compose(sigma, tau))


def test_invert_composes_on_one_side_and_the_other_side_holds(monkeypatch):
    # sigma(tau(x_i)) = x_i for every i, with sigma and tau endomorphisms,
    # makes sigma surjective, hence injective (A(n, m) is Noetherian): invert
    # applies sigma once per generator, and tau(sigma(x_i)) = x_i is the
    # oracle side, checked here
    apply = Automorphism.apply
    calls = []

    def counted(self, a):
        calls.append(self)
        return apply(self, a)

    monkeypatch.setattr(Automorphism, "apply", counted)
    rng = Random(505)
    maps = [verified_map(*spec) for spec in (NAGATA, MAP_A11, MAP_A20)]
    maps += [random_triangular_a11(rng), random_unipotent_poly(rng, P3)]
    for sigma in maps:
        calls.clear()
        tau = invert(sigma)
        assert len(calls) == sigma.signature.s
        assert all(c is sigma for c in calls)
        for x, image in zip(_gens(sigma.signature), sigma.images):
            assert apply(tau, image) == x


def test_invert_central_twist_example():
    sigma = _aut(A11, "x1 -> x1 + x3^2; x2 -> x2; x3 -> x3")
    tau = invert(sigma)
    assert tau.images[0] == parse_element("x1 - x3^2", WeylCarrier(A11))
    assert _fixes_generators(aut_compose(tau, sigma))


@pytest.mark.parametrize("sig, text, error, message", [
    (A10, "x1 -> x1; x2 -> x1", RelationError, "[s(x2),s(x1)] != 1"),
    (A10, "x1 -> 2*x1; x2 -> x2", RelationError, "[s(x2),s(x1)] != 1"),
    (P2, "x1 -> x1 + x2^2; x2 -> x2 + x1^2", JacobianError,
     "Delta = -4*x1*x2 + 1 is not a nonzero constant"),
    (A11, "x1 -> x1*x3; x2 -> x2; x3 -> x3", RelationError, "[s(x2),s(x1)] != 1"),
], ids=["repeated", "relation", "jacobian", "central-factor"])
def test_a_non_automorphism_cannot_be_built(sig, text, error, message):
    # no Automorphism exists unchecked, so invert, apply and the rest never
    # see such images
    images = parse_images(text, WeylCarrier(sig))
    for build in (Automorphism, aut_verify):
        with pytest.raises(error) as info:
            build(sig, images)
        assert type(info.value) is error and str(info.value) == message


def test_a_stretch_of_p1_is_checked_with_its_delta():
    sigma = _aut(P1, "x1 -> 2*x1")
    assert sigma.delta == 2
    assert str(invert(sigma)) == "x1 -> 1/2*x1"


def test_invert_checks_the_relations_of_its_candidate(monkeypatch):
    # a walk that returns 2*x_i gives a candidate with [t(x2), t(x1)] = 4
    monkeypatch.setattr(LndSystem, "_taylor_at_zero", lambda self, x: (x * 2).terms)
    with pytest.raises(RelationError, match=r"^\[s\(x2\),s\(x1\)\] != 1$"):
        invert(_aut(A10, "x1 -> x1; x2 -> x2 + x1^2"))


def test_invert_certifies_its_candidate(monkeypatch):
    # a walk that returns x_i gives the identity: an automorphism, but not
    # the inverse, so only the certificate s(t(x_i)) = x_i rejects it
    monkeypatch.setattr(LndSystem, "_taylor_at_zero", lambda self, x: x.terms)
    for sig, text in ((A10, "x1 -> x1; x2 -> x2 + x1^2"), (P1, "x1 -> 2*x1")):
        with pytest.raises(LndError, match="fails to compose to the identity") as info:
            invert(_aut(sig, text))
        assert type(info.value) is LndError


# -- composition ------------------------------------------------------------------


def test_compose_examples():
    sigma = _aut(A10, "x1 -> x1; x2 -> x2 + x1^2")
    ident = Automorphism.identity(A10)
    assert aut_compose(sigma, ident).images == sigma.images
    assert aut_compose(ident, sigma).images == sigma.images
    assert _fixes_generators(aut_compose(invert(sigma), sigma))

    t2 = _aut(P1, "x1 -> x1 + 2")
    t3 = _aut(P1, "x1 -> x1 + 3")
    assert aut_compose(t2, t3).images[0] == parse_element("x1 + 5", WeylCarrier(P1))


def test_compose_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        aut_compose(Automorphism.identity(A10), Automorphism.identity(P2))


# -- exp / log --------------------------------------------------------------------


def test_log_examples():
    ident = Automorphism.identity(P2)
    zero = log_aut(ident)
    assert all(v.is_zero() for v in zero.values)

    translation = _aut(P1, "x1 -> x1 + 1")
    assert log_aut(translation).values[0] == WeylElement.one(P1)

    shift = _aut(P2, "x1 -> x1 + 1; x2 -> x2 + x1")
    delta = log_aut(shift)
    assert delta.values[0] == parse_element("1", WeylCarrier(P2))
    assert delta.values[1] == parse_element("x1 - 1/2", WeylCarrier(P2))


def test_exp_examples():
    zero = Derivation(P2, [WeylElement.zero(P2)] * 2)
    assert _fixes_generators(exp_der(zero))

    lam = Fraction(5, 3)
    d = Derivation(P1, [WeylElement.constant(P1, lam)])
    assert exp_der(d).images[0] == WeylElement.generator(P1, 0) + \
        WeylElement.constant(P1, lam)

    d2 = Derivation(P2, [parse_element("1", WeylCarrier(P2)),
                         parse_element("x1 - 1/2", WeylCarrier(P2))])
    sigma = exp_der(d2)
    assert sigma.images[0] == parse_element("x1 + 1", WeylCarrier(P2))
    assert sigma.images[1] == parse_element("x2 + x1", WeylCarrier(P2))


def test_exp_log_round_trips():
    rng = Random(505)
    for sig in (P2, P3):
        for _ in range(8):
            sigma = random_unipotent_poly(rng, sig)
            delta = log_aut(sigma)
            again = exp_der(delta)
            assert again.images == sigma.images
            back = log_aut(again)
            assert back.values == delta.values


def test_exp_log_caps():
    with pytest.raises(CapExceededError) as exc:
        exp_der(Derivation(P1, [WeylElement.generator(P1, 0)]))
    assert str(exc.value) == "derivation is not nilpotent on x1 within cap 256"
    dilation = _aut(P1, "x1 -> 2*x1")
    with pytest.raises(CapExceededError) as exc:
        log_aut(dilation)
    assert str(exc.value) == "(s - id) is not nilpotent on x1 within cap 256"


def test_exp_log_pass_at_the_nilpotence_order_and_raise_below_it(monkeypatch):
    # d^k x1 and (s - id)^k x1 are nonzero for k <= 3 and vanish at k = 4
    p4 = WeylSignature(0, 4)
    gens = [WeylElement.generator(p4, i) for i in range(4)]
    d = Derivation(p4, gens[1:] + [WeylElement.zero(p4)])
    sigma = exp_der(d)
    monkeypatch.setattr(automorphisms, "NILPOTENCE_CAP", 3)
    assert exp_der(d) == sigma
    assert log_aut(sigma).values == d.values
    monkeypatch.setattr(automorphisms, "NILPOTENCE_CAP", 2)
    with pytest.raises(CapExceededError) as exc:
        exp_der(d)
    assert str(exc.value) == "derivation is not nilpotent on x1 within cap 2"
    with pytest.raises(CapExceededError) as exc:
        log_aut(sigma)
    assert str(exc.value) == "(s - id) is not nilpotent on x1 within cap 2"


def test_derivation_validation_and_scaling():
    with pytest.raises(LndError):
        Derivation(A10, [WeylElement.zero(A10), WeylElement.generator(A10, 1)])
    d = Derivation(A10, [WeylElement.generator(A10, 0),
                         -WeylElement.generator(A10, 1)])
    half = d.scale(Fraction(1, 2))
    assert half.values[0] == WeylElement.generator(A10, 0).scale(Fraction(1, 2))
    # d(x1) = 0, d(x2) = x1^64: the products x1 * x1^64 exceed the degree
    # cap, the bracket [x1, x1^64] = 0 that validation needs does not
    x1_64 = WeylElement.monomial(A10, (64, 0))
    Derivation(A10, [WeylElement.zero(A10), x1_64])


def test_derivation_cap_verdicts():
    # d(x2) = x1^64 is within the cap; d(x1*x2) and d(x2^2) have degree 65
    x1_64 = WeylElement.monomial(A10, (64, 0))
    d = Derivation(A10, [WeylElement.zero(A10), x1_64])
    x1, x2 = _gens(A10)
    assert d.apply(x1).is_zero()
    assert d.apply(x2) == x1_64
    for a in (x1 * x2, x2 * x2):
        with pytest.raises(CapExceededError, match="degree 65"):
            d.apply(a)


def test_derivation_apply_is_a_derivation():
    # on A(1,1) the values ad(x1^2*x3 + x1*x2^2)(x_k) + x3^2 d_3(x_k)
    # reach both the inner part and the central partial
    carrier = WeylCarrier(A11)
    derivations = [
        Derivation(P2, [parse_element("1", WeylCarrier(P2)),
                        parse_element("x1 - 1/2", WeylCarrier(P2))]),
        Derivation(A11, [parse_element(v, carrier)
                         for v in ("2*x1*x2", "-2*x1*x3 - x2^2", "x3^2")]),
    ]
    rng = Random(506)
    for d in derivations:
        for _ in range(10):
            a = random_weyl(rng, d.signature, 3, 3)
            b = random_weyl(rng, d.signature, 3, 3)
            assert d.apply(a * b) == d.apply(a) * b + a * d.apply(b)


# -- operator series --------------------------------------------------------------


def test_aut_to_series_examples():
    ident = Automorphism.identity(P1)
    series = aut_to_series(ident, 3)
    assert series.coeffs == {(0,): WeylElement.one(P1)}

    dilation = _aut(P1, "x1 -> 2*x1")
    series = aut_to_series(dilation, 6)
    for k in range(7):
        expected = WeylElement.monomial(P1, (k,), Fraction(1, _fact(k)))
        assert series.coeffs[(k,)] == expected

    lam = 3
    translation = _aut(P1, f"x1 -> x1 + {lam}")
    series = aut_to_series(translation, 6)
    for k in range(7):
        expected = WeylElement.constant(P1, Fraction(lam ** k, _fact(k)))
        assert series.coeffs[(k,)] == expected


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_series_apply_examples():
    one = DiffOpSeries(P1, 0, {(0,): WeylElement.one(P1)})
    rng = Random(507)
    for _ in range(5):
        a = random_weyl(rng, P1, 4, 3)
        assert series_apply(one, a) == a

    dilation = aut_to_series(_aut(P1, "x1 -> 2*x1"), 4)
    sq = parse_element("x1^2", WeylCarrier(P1))
    assert series_apply(dilation, sq) == parse_element("4*x1^2", WeylCarrier(P1))

    translation = aut_to_series(_aut(P1, "x1 -> x1 + 3"), 4)
    assert series_apply(translation, sq) == parse_element("x1^2 + 6*x1 + 9", WeylCarrier(P1))


def test_series_agrees_with_apply_on_low_degrees():
    rng = Random(508)
    for _ in range(6):
        sigma = random_unipotent_poly(rng, P2)
        series = aut_to_series(sigma, 6)
        for _ in range(4):
            a = random_weyl(rng, P2, 5, 3)
            assert series_apply(series, a) == sigma.apply(a)


def test_series_application_is_multiplicative():
    rng = Random(509)
    sigma = _aut(P2, "x1 -> x1 + 1; x2 -> x2 + x1^2")
    series = aut_to_series(sigma, 8)
    for _ in range(6):
        a = random_weyl(rng, P2, 2, 2)
        b = random_weyl(rng, P2, 2, 2)
        lhs = series_apply(series, a * b)
        rhs = series_apply(series, a) * series_apply(series, b)
        assert lhs == rhs


def test_map_to_series_examples():
    # identity map
    table = {alpha: WeylElement.monomial(P1, alpha) for alpha in iter_upto(1, 4)}
    series = map_to_series(P1, table, 4)
    assert series.coeffs == {(0,): WeylElement.one(P1)}

    # translation by 1: coefficients 1/k!
    shift = _aut(P1, "x1 -> x1 + 1")
    series = map_to_series(P1, linear_map_table(shift, 4), 4)
    for k in range(5):
        assert series.coeffs[(k,)] == WeylElement.constant(P1, Fraction(1, _fact(k)))

    # evaluation at 0: coefficients (-x)^k/k!; the series kills x^j, fixes 1
    table = {
        alpha: WeylElement.constant(P1, 1 if sum(alpha) == 0 else 0)
        for alpha in iter_upto(1, 5)
    }
    series = map_to_series(P1, table, 5)
    for k in range(6):
        expected = WeylElement.monomial(P1, (k,), Fraction((-1) ** k, _fact(k)))
        assert series.coeffs[(k,)] == expected
    assert series_apply(series, WeylElement.one(P1)) == WeylElement.one(P1)
    for j in range(1, 6):
        assert series_apply(series, WeylElement.monomial(P1, (j,))).is_zero()


def test_map_to_series_requires_a_complete_table():
    with pytest.raises(LndError):
        map_to_series(P1, {(0,): WeylElement.one(P1)}, 2)
    # an entry beyond the order is refused, not dropped
    table = {alpha: WeylElement.monomial(P1, alpha) for alpha in iter_upto(1, 3)}
    with pytest.raises(UsageError, match=r"monomial \(3,\) beyond max order 2"):
        map_to_series(P1, table, 2)


def test_negative_max_order_is_a_usage_error():
    shift = _aut(P1, "x1 -> x1 + 1")
    with pytest.raises(UsageError):
        aut_to_series(shift, -1)
    with pytest.raises(UsageError):
        linear_map_table(shift, -1)
    with pytest.raises(UsageError):
        map_to_series(P1, {}, -1)


def test_map_to_series_matches_aut_to_series():
    # both are the table solve; the Taylor closed form is the P_m oracle
    rng = Random(510)
    for _ in range(5):
        sigma = random_unipotent_poly(rng, P2)
        expected = closed_form_series(sigma, 5)
        assert aut_to_series(sigma, 5).coeffs == expected
        assert map_to_series(P2, linear_map_table(sigma, 5), 5).coeffs == expected


def test_series_text_form():
    shift = _aut(P2, "x1 -> x1 + 1; x2 -> x2 + x1")
    series = aut_to_series(shift, 2)
    assert str(series) == (
        "d^(0,0): 1\n"
        "d^(0,1): x1\n"
        "d^(1,0): 1\n"
        "d^(0,2): 1/2*x1^2\n"
        "d^(1,1): x1\n"
        "d^(2,0): 1/2"
    )
    empty = DiffOpSeries(P1, 0, {})
    assert str(empty) == "0"
