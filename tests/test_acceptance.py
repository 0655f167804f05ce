"""Acceptance gate: the nine headline behaviors, one PASS/FAIL line each.

Run with `pytest -v` to see one line per criterion (plus the printed summary
lines under -s or in captured output)."""

import contextlib
import time
from fractions import Fraction
from random import Random

from lndcalc import (
    CombinationDerivation,
    CommPoly,
    FreeElement,
    InnerDerivation,
    LndSystem,
    PartialDerivation,
    WeylElement,
    WeylSignature,
    aut_compose,
    aut_to_series,
    aut_verify,
    enumerate_generators,
    exp_der,
    graded_kernel_oracle,
    invert,
    linear_map_table,
    log_aut,
    map_to_series,
    parse_comm,
    parse_free,
    parse_images,
    parse_weyl,
    series_apply,
    standard_system,
    subalgebra_graded_dimension,
    weitzenboeck_closed_form,
    weitzenboeck_invariants,
)
from lndcalc.cli import main
from lndcalc.invariants import weitzenboeck_system
from lndcalc.parsing import WeylCarrier
from oracle_weyl import oracle_mul
from support import (
    random_comm,
    random_free,
    random_triangular_a11,
    random_unipotent_poly,
    random_weyl,
)

A10 = WeylSignature(1, 0)
A11 = WeylSignature(1, 1)
P1 = WeylSignature(0, 1)
P2 = WeylSignature(0, 2)
P3 = WeylSignature(0, 3)


@contextlib.contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def _gens(sig):
    return [WeylElement.generator(sig, i) for i in range(sig.s)]


def _fixes_generators(aut):
    return all(img == gen for img, gen in zip(aut.images, _gens(aut.signature)))


def test_criterion_1_inversion_formula():
    with criterion(1, "inversion of 20 random triangular automorphisms of "
                      "A(1,1), both compositions certified, under 10 s"):
        rng = Random(1001)
        start = time.perf_counter()
        for _ in range(20):
            sigma = random_triangular_a11(rng)
            assert all(img.total_degree() <= 3 for img in sigma.images)
            tau = invert(sigma)
            assert _fixes_generators(aut_compose(tau, sigma))
            assert _fixes_generators(aut_compose(sigma, tau))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_weitzenboeck():
    with criterion(2, "Weitzenboeck invariants equal the closed form for "
                      "n = 3..6 and are killed by the derivation"):
        for n in range(3, 7):
            system = weitzenboeck_system(n)
            values = weitzenboeck_invariants(n)
            assert [i for i, _ in values] == list(range(3, n + 1))
            for i, value in values:
                assert value == weitzenboeck_closed_form(n, i)
                assert system.derive(0, value).is_zero()
        assert str(dict(weitzenboeck_invariants(3))[3]) == \
            "x3 - 1/2*x2^2*x1^-1"


def test_criterion_3_taylor_round_trip():
    with criterion(3, "Taylor reconstruction is the identity on 50 random "
                      "elements of degree <= 6 in P3, F2, and A(1,1)"):
        rng = Random(1003)
        systems = [
            (standard_system(CommPoly.constant(3, 1)),
             lambda: random_comm(rng, 3, 6, 4)),
            (standard_system(FreeElement.one(2)),
             lambda: random_free(rng, 2, 6, 4)),
            (standard_system(WeylElement.one(A11)),
             lambda: random_weyl(rng, A11, 6, 4)),
        ]
        for system, make in systems:
            for _ in range(50):
                a = make()
                assert system.taylor_reconstruct(system.taylor_decompose(a)) == a


def test_criterion_4_projection_laws():
    with criterion(4, "phi is an idempotent right-module projection killing "
                      "the slices, multiplicative on commutative carriers"):
        rng = Random(1004)
        full_p3 = standard_system(CommPoly.constant(3, 1))
        part_p3 = LndSystem(
            [PartialDerivation(0), PartialDerivation(1)],
            [CommPoly.variable(3, 0), CommPoly.variable(3, 1)],
        )
        part_weyl = LndSystem(
            [InnerDerivation(WeylElement.generator(A11, 1)),
             CombinationDerivation(
                 [(Fraction(-1), InnerDerivation(WeylElement.generator(A11, 0)))])],
            [WeylElement.generator(A11, 0), WeylElement.generator(A11, 1)],
        )
        # slices project to zero in every power
        for system, var in ((full_p3, CommPoly.variable(3, 0)),
                            (part_weyl, WeylElement.generator(A11, 1))):
            for k in range(1, 5):
                assert system.phi(var ** k).is_zero()
        x3 = WeylElement.generator(A11, 2)
        for _ in range(15):
            # idempotence on all three systems
            a = random_comm(rng, 3, 4)
            assert full_p3.phi(full_p3.phi(a)) == full_p3.phi(a)
            assert part_p3.phi(part_p3.phi(a)) == part_p3.phi(a)
            w = random_weyl(rng, A11, 3, 3)
            assert part_weyl.phi(part_weyl.phi(w)) == part_weyl.phi(w)
            # right-module law over the kernel
            y = x3 * x3 + x3.scale(rng.randint(1, 4))
            assert part_weyl.phi(w * y) == part_weyl.phi(w) * y
            # commutative multiplicativity, degree <= 4 pairs in P3
            b = random_comm(rng, 3, 4)
            assert full_p3.phi(a * b) == full_p3.phi(a) * full_p3.phi(b)
            assert part_p3.phi(a * b) == part_p3.phi(a) * part_p3.phi(b)


def test_criterion_5_series_representations():
    with criterion(5, "operator series match the translation and dilation "
                      "closed forms and reproduce substitution"):
        # translation by lambda: coefficients lambda^k / k!
        fact = [1, 1, 2, 6, 24, 120, 720]
        for lam in (1, 3, -2):
            sigma = aut_verify(P1, [WeylElement.generator(P1, 0)
                                    + WeylElement.constant(P1, lam)])
            series = aut_to_series(sigma, 6)
            for k in range(7):
                expected = Fraction(lam ** k, fact[k])
                got = series.coeffs.get((k,), WeylElement.zero(P1))
                assert got == WeylElement.constant(P1, expected)
        # dilation by lambda: coefficients (lambda-1)^k x^k / k!
        for lam in (2, 3):
            sigma = aut_verify(P1, [WeylElement.generator(P1, 0).scale(lam)])
            series = aut_to_series(sigma, 6)
            for k in range(7):
                expected = WeylElement.monomial(
                    P1, (k,), Fraction((lam - 1) ** k, fact[k]))
                assert series.coeffs[(k,)] == expected
        # series application equals substitution on degree <= 5 polynomials
        rng = Random(1005)
        for _ in range(8):
            sigma = random_unipotent_poly(rng, P2)
            series = aut_to_series(sigma, 6)
            for _ in range(3):
                a = random_weyl(rng, P2, 5, 3)
                assert series_apply(series, a) == sigma.apply(a)
            # the triangular solver recovers the same series from the map table
            solved = map_to_series(P2, linear_map_table(sigma, 6), 6)
            assert solved.coeffs == aut_to_series(sigma, 6).coeffs


def test_criterion_6_exp_log_round_trips():
    with criterion(6, "exp/log are mutually inverse on unipotent samples and "
                      "shift invariants are fixed points"):
        rng = Random(1006)
        for sig in (P2, P3):
            for _ in range(10):
                sigma = random_unipotent_poly(rng, sig)
                delta = log_aut(sigma)
                assert exp_der(delta).images == sigma.images
                assert log_aut(exp_der(delta)).values == delta.values
        # shift x_i -> x_i + x_{i-1} (x_0 = 1): phi over log(shift) is fixed
        for sig in (P2, P3):
            text = "; ".join(
                f"x{i + 1} -> x{i + 1} + " + (f"x{i}" if i else "1")
                for i in range(sig.s)
            )
            sigma = aut_verify(sig, parse_images(text, WeylCarrier(sig)))
            delta = log_aut(sigma)
            system = LndSystem(
                [CombinationDerivation(
                    [(delta.values[i], PartialDerivation(i))
                     for i in range(sig.s)])],
                [WeylElement.generator(sig, 0)],
            )
            for j in range(1, sig.s):
                value = system.phi(WeylElement.generator(sig, j))
                assert sigma.apply(value) == value
            if sig is P2:
                assert value == parse_weyl("x2 - 1/2*x1^2 + 1/2*x1", P2)


def test_criterion_7_free_invariants_oracle():
    with criterion(7, "graded dimensions of the witness subalgebra in F2 "
                      "match the kernel oracle (degrees 2-4), under 30 s"):
        start = time.perf_counter()
        system = standard_system(FreeElement.one(2))
        generators = [FreeElement.generator(2, 0), FreeElement.generator(2, 1)]
        dims = {d: len(graded_kernel_oracle(system, d)) for d in (2, 3, 4)}
        assert dims == {2: 1, 3: 2, 4: 4}
        # witnesses of word length <= 2 have degree <= 3, covering degrees 2-3;
        # length 3 is needed before products span the full degree-4 component
        w2 = [w.value for w in enumerate_generators(system, generators, 2, 4)]
        assert subalgebra_graded_dimension(w2, 2) == dims[2]
        assert subalgebra_graded_dimension(w2, 3) == dims[3]
        w3 = [w.value for w in enumerate_generators(system, generators, 3, 4)]
        for d in (2, 3, 4):
            assert subalgebra_graded_dimension(w3, d) == dims[d]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_normal_ordering_oracle():
    with criterion(8, "closed-form Weyl products equal single-swap rewriting "
                      "for all exponent pairs a,b <= 5"):
        for a in range(6):
            for b in range(6):
                p = WeylElement.monomial(A10, (0, a))
                q = WeylElement.monomial(A10, (b, 0))
                assert p * q == oracle_mul(p, q)


def test_criterion_9_cli_goldens(capsys):
    with criterion(9, "CLI examples reproduce byte-identically and 200 "
                      "generated expressions round-trip through the printer"):
        goldens = [
            (["invert", "--n", "1", "--m", "0",
              "--aut", "x1 -> x1; x2 -> x2 + x1^2"],
             0, "x1 -> x1; x2 -> x2 - x1^2\n"),
            (["weitzenboeck", "--n", "3"],
             0, "phi(x3) = x3 - 1/2*x2^2*x1^-1\n"),
            (["verify", "--n", "1", "--m", "0",
              "--aut", "x1 -> x1; x2 -> x2 + x2^2"],
             1, "ERROR relation: [s(x2),s(x1)] != 1\n"),
        ]
        for argv, want_code, want_out in goldens:
            code = main(argv)
            out = capsys.readouterr().out
            assert (code, out) == (want_code, want_out), argv

        # canonical-form spot checks from the interface contract
        assert str(CommPoly.constant(2, 0)) == "0"
        assert str(parse_weyl("x2*x1", A10)) == "x1*x2 + 1"
        assert str(parse_comm("x1^-1*x2^2", 2, frozenset({0}))) == "x2^2*x1^-1"

        # 200 expression round trips: format(parse(text)) == text on generated
        # canonical strings, and parse(format(e)) == e
        rng = Random(1009)
        count = 0
        mask = frozenset({0})
        while count < 200:
            which = count % 4
            if which == 0:
                e = random_comm(rng, 3, 5)
                text = str(e)
                assert parse_comm(text, 3) == e and str(parse_comm(text, 3)) == text
            elif which == 1:
                e = random_comm(rng, 2, 4, laurent_mask=mask) * \
                    parse_comm("x1^-2", 2, mask)
                text = str(e)
                assert parse_comm(text, 2, mask) == e
                assert str(parse_comm(text, 2, mask)) == text
            elif which == 2:
                e = random_weyl(rng, A11, 5, 4)
                text = str(e)
                assert parse_weyl(text, A11) == e
                assert str(parse_weyl(text, A11)) == text
            else:
                e = random_free(rng, 2, 5, 4)
                text = str(e)
                assert parse_free(text, 2) == e
                assert str(parse_free(text, 2)) == text
            count += 1
