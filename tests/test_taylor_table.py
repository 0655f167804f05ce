"""Table-driven Taylor decomposition against the former phi-per-entry loop."""

from random import Random

import pytest

from lndcalc import (
    CapExceededError,
    CommPoly,
    FreeElement,
    LndError,
    LndSystem,
    NILPOTENCE_CAP,
    PartialDerivation,
    WeylElement,
    WeylSignature,
    aut_compose,
    invert,
    standard_system,
    twisted_partials,
)
from lndcalc import weyl
from oracle_taylor import layers
from oracle_taylor import taylor_decompose as oracle_taylor
from support import (
    MAP_A11,
    MAP_A20,
    NAGATA,
    random_comm,
    random_free,
    random_weyl,
    twisted_unchecked,
    verified_map,
)

A11 = WeylSignature(1, 1)
A21 = WeylSignature(2, 1)
LAURENT = frozenset({1})


def _laurent_element(rng):
    """A polynomial in x1 with x2^(+-1) factors: the unit x2 is a constant."""
    out = random_comm(rng, 2, 4, 5, LAURENT)
    for _ in range(2):
        out = out + CommPoly.monomial(2, (rng.randint(0, 3), -rng.randint(1, 2)),
                                      rng.randint(-3, 3), LAURENT)
    return out


# (system, element generator); twisted systems get elements of low degree,
# because the twisted derivations raise the degree
CASES = {
    "standard P_3": (lambda: standard_system(CommPoly.one(3)),
                     lambda rng: random_comm(rng, 3, 5, 5)),
    "standard A(1,1)": (lambda: standard_system(WeylElement.one(A11)),
                        lambda rng: random_weyl(rng, A11, 4, 4)),
    "standard A(2,1)": (lambda: standard_system(WeylElement.one(A21)),
                        lambda rng: random_weyl(rng, A21, 3, 4)),
    "standard F_2": (lambda: standard_system(FreeElement.one(2)),
                     lambda rng: random_free(rng, 2, 5, 4)),
    "Laurent P_2, unit x2": (
        lambda: LndSystem([PartialDerivation(0)], [CommPoly.variable(2, 0, LAURENT)]),
        _laurent_element),
    "twisted Nagata": (lambda: twisted_unchecked(*NAGATA),
                       lambda rng: random_weyl(rng, WeylSignature(0, 3), 2, 2)),
    "twisted A(1,1)": (lambda: twisted_unchecked(*MAP_A11),
                       lambda rng: random_weyl(rng, A11, 2, 3)),
    "twisted A(2,0)": (lambda: twisted_unchecked(*MAP_A20),
                       lambda rng: random_weyl(rng, WeylSignature(2, 0), 2, 3)),
}


def _generators(one):
    if isinstance(one, CommPoly):
        return [CommPoly.variable(one.num_vars, i, one.laurent_mask)
                for i in range(one.num_vars)]
    if isinstance(one, WeylElement):
        return [WeylElement.generator(one.signature, i) for i in range(one.signature.s)]
    return [FreeElement.generator(one.num_gens, i) for i in range(one.num_gens)]


def _elements(name, count=4):
    make_system, make_element = CASES[name]
    system = make_system()
    rng = Random(sorted(CASES).index(name) + 17)
    one = system.slice_monomial((0,) * system.s)
    return system, _generators(one) + [make_element(rng) for _ in range(count)]


def _verdict(call):
    try:
        call()
    except LndError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_coefficients_equal_the_phi_loop(name):
    system, elements = _elements(name)
    for a in elements:
        got = system.taylor_decompose(a)
        assert got == oracle_taylor(system, a), (name, str(a))
        assert str(got) == str(oracle_taylor(system, a))
        assert system.taylor_reconstruct(got) == a


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_table_entry_is_derived_once_and_phi_is_not_called(name, monkeypatch):
    system, elements = _elements(name, count=2)
    calls = []
    derive = LndSystem.derive

    def counted(self, i, a):
        calls.append(i)
        return derive(self, i, a)

    def no_phi(self, a):
        raise AssertionError("taylor_decompose called phi")

    monkeypatch.setattr(LndSystem, "derive", counted)
    monkeypatch.setattr(LndSystem, "phi", no_phi)
    for a in elements:
        calls.clear()
        for _ in layers(system, a):
            pass
        walk = len(calls)
        calls.clear()
        system.taylor_decompose(a)
        # the layer walk derives every table entry once in each direction
        # up to its first nonzero one; the table walk does the same
        assert len(calls) == walk


# derive calls of phi, psi (over the generators and two drawn elements) and
# of a checked build, per system: each walks its columns d_i^k once
DERIVE_COUNTS = {
    "Laurent P_2, unit x2": (9, 9, 5),
    "standard A(1,1)": (20, 21, 39),
    "standard A(2,1)": (35, 34, 155),
    "standard F_2": (18, 19, 14),
    "standard P_3": (22, 21, 39),
    "twisted A(1,1)": (49, 49, 51),
    "twisted A(2,0)": (44, 50, 92),
    "twisted Nagata": (31, 28, 51),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_phi_psi_and_a_checked_build_keep_their_derive_counts(name, monkeypatch):
    system, elements = _elements(name, count=2)
    calls = []
    derive = LndSystem.derive

    def counted(self, i, a):
        calls.append(i)
        return derive(self, i, a)

    monkeypatch.setattr(LndSystem, "derive", counted)
    got = []
    for project in (system.phi, system.psi):
        calls.clear()
        for a in elements:
            project(a)
        got.append(len(calls))
    calls.clear()
    LndSystem(list(system.derivations), list(system.slices))
    got.append(len(calls))
    assert tuple(got) == DERIVE_COUNTS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_nilpotence_cap_below_and_at_the_order_raises_like_the_layer_walk(name):
    system, elements = _elements(name, count=2)
    for a in elements:
        order = system.order(a)
        for cap in (order - 1, order, order + 1):
            if cap < 0:
                continue
            capped = LndSystem(list(system.derivations), list(system.slices),
                               nilpotence_cap=cap, check=False)
            expected = None if cap > order else CapExceededError
            assert _verdict(lambda: list(layers(capped, a))) == expected
            assert _verdict(lambda: capped.taylor_decompose(a)) == expected
            assert _verdict(lambda: capped.order(a)) == expected
            # phi and psi form only the powers d_i^k, never the mixed entries
            for project in (capped.phi, capped.psi):
                assert _verdict(lambda: project(a)) in (None, expected)


@pytest.mark.parametrize("name", sorted(CASES))
def test_phi_psi_order_and_the_table_share_one_cap_rule_on_each_direction(name):
    """Each walk refuses a nonzero derivative of order >= cap; on one
    direction phi_i and psi_i form every entry of the table, so the four
    verdicts agree at caps one below, at and one above the order."""
    system, elements = _elements(name, count=2)
    for a in elements:
        for i in range(system.s):
            def single(cap):
                return LndSystem([system.derivations[i]], [system.slices[i]],
                                 nilpotence_cap=cap, check=False)

            order = single(NILPOTENCE_CAP).order(a)
            for cap in (order - 1, order, order + 1):
                if cap < 0:
                    continue
                capped = single(cap)
                expected = None if cap > order else CapExceededError
                for walk in (capped.phi, capped.psi, capped.order, capped.taylor_decompose):
                    assert _verdict(lambda: walk(a)) == expected, (name, i, cap, walk)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_table_walk_yields_the_layer_walk_entries(name):
    system, elements = _elements(name)
    for a in elements:
        expected = {}
        for _, layer in layers(system, a):
            expected.update(layer)
        assert dict(system._table(system.s, a)) == expected, (name, str(a))


def _weyl_products(monkeypatch, system, elements):
    calls = []
    mul = weyl.weyl_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(weyl, "weyl_mul", counted)
    for a in elements:
        system.taylor_decompose(a)
    monkeypatch.undo()
    return len(calls)


def test_taylor_decompose_folds_the_table_with_a_pinned_product_count(monkeypatch):
    # one fold per direction multiplies each entry by (-1)^k/k! t_j^k for
    # k = 1..g_j, each slice term formed once; the direct sum over beta of
    # w_beta d^(alpha+beta) a forms about twice the products (MAP_A11's central
    # direction sums its cofactor partials in one dict beside ad(u))
    for spec, count in ((NAGATA, 108), (MAP_A11, 66), (MAP_A20, 23)):
        system = twisted_unchecked(*spec)
        sig = WeylSignature(spec[0], spec[1])
        gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
        assert _weyl_products(monkeypatch, system, gens) == count, spec
    x1, x2, x3 = (WeylElement.generator(A11, i) for i in range(3))
    a = (x1 + x2 * 2 - x3 + WeylElement.one(A11)) ** 5
    system = standard_system(WeylElement.one(A11))
    assert _weyl_products(monkeypatch, system, [a]) == 222


def test_zero_has_no_coefficients():
    system = standard_system(CommPoly.one(2))
    assert len(system.taylor_decompose(CommPoly.zero(2))) == 0


def test_stretch_inversion_still_exceeds_the_degree_cap():
    # Nagata composed with a triangular map: degree 10, 37 terms; the
    # inverse has degree 14.  The Taylor decomposition of x1 over its
    # twisted system trips DEGREE_CAP in the direction-1 fold, on a slice
    # power times a table entry formed as the walk yields it.  (invert on
    # P_m reads constant terms instead and gets as far as certification,
    # see tests/test_invert_at_zero.py.)
    inner = verified_map(0, 3, "x1 -> x1; x2 -> x2 + x1^2; x3 -> x3 + x2^2 - x1")
    stretch = aut_compose(verified_map(*NAGATA), inner)
    system = LndSystem(twisted_partials(stretch), list(stretch.images), check=False)
    x1 = WeylElement.generator(stretch.signature, 0)
    with pytest.raises(CapExceededError, match="degree 65"):
        system.taylor_decompose(x1)


def test_twisted_system_coefficients_invert_the_map():
    # the constant coefficients of the generators are the inverse images
    aut = verified_map(*MAP_A11)
    system = LndSystem(twisted_partials(aut), list(aut.images))
    inverse = invert(aut)
    for i in range(A11.s):
        coeffs = system.taylor_decompose(WeylElement.generator(A11, i))
        assert all(c.is_constant() for _, c in coeffs.items())
        terms = {alpha: c.constant_term() for alpha, c in coeffs.items()}
        assert WeylElement(A11, terms) == inverse.images[i]
