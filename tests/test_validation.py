"""LndSystem validation on generators against the former probe set."""

from fractions import Fraction

import pytest

from lndcalc import (
    Automorphism,
    CapExceededError,
    CombinationDerivation,
    CommPoly,
    FreeElement,
    LndError,
    LndSystem,
    PartialDerivation,
    UsageError,
    WeylElement,
    WeylSignature,
    automorphisms,
    invert,
)
from oracle_validate import validate as oracle_validate
from support import MAP_A11, MAP_A20, NAGATA, twisted_unchecked as _twisted


def _standard(gens, cap=256):
    derivs = [PartialDerivation(i) for i in range(len(gens))]
    return LndSystem(derivs, gens, nilpotence_cap=cap, check=False)


def _poly_gens(num_vars, mask=frozenset()):
    return [CommPoly.variable(num_vars, i, mask) for i in range(num_vars)]


def _weyl_gens(sig):
    return [WeylElement.generator(sig, i) for i in range(sig.s)]


def _verdict(check):
    """None when the check passes, else the class of the error it raised."""
    try:
        check()
    except LndError as exc:
        return type(exc)
    return None


def _both(system):
    return _verdict(system._validate), _verdict(lambda: oracle_validate(system))


def _accepted():
    mask = frozenset({1})
    return {
        "standard P_3": _standard(_poly_gens(3)),
        "standard A(1,1)": _standard(_weyl_gens(WeylSignature(1, 1))),
        "standard A(2,1)": _standard(_weyl_gens(WeylSignature(2, 1))),
        "standard F_2": _standard([FreeElement.generator(2, i) for i in range(2)]),
        "Laurent P_2, unit x2": LndSystem(
            [PartialDerivation(0)], [CommPoly.variable(2, 0, mask)], check=False
        ),
        "twisted Nagata": _twisted(*NAGATA),
        "twisted A(1,1)": _twisted(*MAP_A11),
        "twisted A(2,0)": _twisted(*MAP_A20),
    }


def _rejected():
    x1, x2, _ = _poly_gens(3)
    a11 = WeylSignature(1, 1)
    return {
        # [d1, d2] = d3 vanishes on both slices but not on x3
        "non-commuting pair": (LndError, LndSystem(
            [PartialDerivation(0),
             CombinationDerivation([(1, PartialDerivation(1)), (x1, PartialDerivation(2))])],
            [x1, x2], check=False)),
        # d(x2) = x2 forever
        "d1 + x2*d2 on P_2": (CapExceededError, LndSystem(
            [CombinationDerivation([(Fraction(1), PartialDerivation(0)),
                                    (CommPoly.variable(2, 1), PartialDerivation(1))])],
            [CommPoly.variable(2, 0)], nilpotence_cap=16, check=False)),
        "wrong slice": (LndError, LndSystem(
            [PartialDerivation(0)], [CommPoly.variable(2, 1)], check=False)),
        "non-central Weyl coefficient": (LndError, LndSystem(
            [CombinationDerivation([(1, PartialDerivation(2)),
                                    (WeylElement.generator(a11, 0), PartialDerivation(1))])],
            [WeylElement.generator(a11, 2)], check=False)),
        "non-constant free coefficient": (LndError, LndSystem(
            [CombinationDerivation([(1, PartialDerivation(0)),
                                    (FreeElement.generator(2, 1), PartialDerivation(1))])],
            [FreeElement.generator(2, 0)], check=False)),
        "derivation moving a Laurent unit": (
            LndError, _standard(_poly_gens(1, frozenset({0})))),
    }


@pytest.mark.parametrize("name", sorted(_accepted()))
def test_generator_probes_accept_what_the_old_probes_accept(name):
    assert _both(_accepted()[name]) == (None, None)


@pytest.mark.parametrize("name", sorted(_rejected()))
def test_generator_probes_reject_what_the_old_probes_reject(name):
    expected, system = _rejected()[name]
    assert _both(system) == (expected, expected)


def test_a_nested_combination_needs_central_coefficients_too():
    # ad(u) + sum_l c_l d_l nests its partials in a combination; the flat
    # "non-central Weyl coefficient" system above, nested, is refused alike
    x1, _, x3 = _weyl_gens(WeylSignature(1, 1))
    inner = CombinationDerivation([(1, PartialDerivation(2)), (x1, PartialDerivation(1))])
    system = LndSystem([CombinationDerivation([(1, inner)])], [x3], check=False)
    with pytest.raises(LndError, match="combination coefficient is not central"):
        system._validate()


def _walk_fed(system, walk):
    """The walks of every generator's table (``walk`` is ``taylor_decompose``
    or ``_taylor_at_zero``), as ``invert`` runs them: the cap rule is their
    only check, the certificate the rest."""
    return [getattr(system, walk)(x) for x in system._one.generators()]


def _records(system):
    """The table entries d^gamma(x) of each generator, one dict {gamma: entry}
    per generator, off the table enumerator that both walks share."""
    return [dict(system._table(system.s, x)) for x in system._one.generators()]


def _derive_calls(monkeypatch, call):
    """The (direction, argument) of every ``LndSystem.derive`` in ``call()``."""
    calls = []
    derive = LndSystem.derive

    def counted(self, i, a):
        calls.append((i, a))
        return derive(self, i, a)

    with monkeypatch.context() as m:
        m.setattr(LndSystem, "derive", counted)
        call()
    return calls


def _walks(system):
    weyl = isinstance(system._one, WeylElement)
    return ["taylor_decompose"] + (["_taylor_at_zero"] if weyl else [])


@pytest.mark.parametrize("name", sorted(_accepted()))
def test_walk_fed_validation_accepts_what_validation_accepts(name):
    system = _accepted()[name]
    for walk in _walks(system):
        assert _verdict(lambda: _walk_fed(system, walk)) is None


@pytest.mark.parametrize("name", sorted(_rejected()))
def test_walks_alone_refuse_only_what_is_not_nilpotent(name):
    # without validation a walk refuses a system only through its cap rule;
    # invert leaves the other faults to aut_verify and its certificate
    # (the free coefficient x2 also makes d(x1) = 1 + x2 never vanish)
    _, system = _rejected()[name]
    not_nilpotent = ("d1 + x2*d2 on P_2", "non-constant free coefficient")
    walked = CapExceededError if name in not_nilpotent else None
    for walk in _walks(system):
        assert _verdict(lambda: _walk_fed(system, walk)) == walked


def test_walk_fed_nilpotence_follows_the_cap_like_the_probe():
    x1 = _poly_gens(1)
    for cap in (0, 1, 2, 3):
        system = _standard(x1, cap=cap)
        assert _verdict(lambda: _walk_fed(system, "taylor_decompose")) == _verdict(
            system._validate)


@pytest.mark.parametrize("spec", [NAGATA, MAP_A11, MAP_A20], ids=["nagata", "a11", "a20"])
def test_walks_record_the_first_derivatives_and_one_side_of_each_commutation(
        spec, monkeypatch):
    # the entry at e_i is d_i(x), at e_i + e_k (i < k) it is d_i(d_k x); each
    # walk derives exactly the entries of the enumerator, in its order
    system = _twisted(*spec)
    s = system.s
    zero = system._zero
    keys = [(i,) for i in range(s)] + [(i, k) for i in range(s) for k in range(i + 1, s)]
    for q, record in enumerate(_records(system)):
        x = system._one.generators()[q]
        assert record[(0,) * s] == x
        for key in keys:
            gamma = tuple(int(h in key) for h in range(s))
            expected = x
            for i in reversed(key):
                expected = system.derive(i, expected)
            assert record.get(gamma, zero) == expected, (q, key)
        table = _derive_calls(monkeypatch, lambda: list(system._table(s, x)))
        for walk in _walks(system):
            assert _derive_calls(monkeypatch, lambda: getattr(system, walk)(x)) == table, walk


def test_invert_walk_trips_the_cap_on_wrong_twisted_partials(monkeypatch):
    # a wrong twisted partial on the identity of P_2: d'_2(x1) = x1 never
    # vanishes; invert does not validate the system, and its walk refuses
    # the entry of order cap
    sig = WeylSignature(0, 2)
    x1 = WeylElement.generator(sig, 0)
    wrong = [PartialDerivation(0),
             CombinationDerivation([(1, PartialDerivation(1)), (x1, PartialDerivation(0))])]
    monkeypatch.setattr(automorphisms, "twisted_partials", lambda aut: wrong)
    with pytest.raises(CapExceededError, match="iterated derivatives of order beyond cap 256"):
        invert(Automorphism.identity(sig))


def test_slice_products_no_longer_raise_the_nilpotence_depth():
    # On P_1 the old probe t^2 needs three derivations to vanish, so the old
    # check asked for cap >= 3; the generator x1 needs two.
    x1 = _poly_gens(1)
    assert _both(_standard(x1, cap=1)) == (CapExceededError, CapExceededError)
    assert _both(_standard(x1, cap=2)) == (None, CapExceededError)
    assert _both(_standard(x1, cap=3)) == (None, None)
    LndSystem([PartialDerivation(0)], x1, nilpotence_cap=2)


def test_negative_nilpotence_cap_is_a_usage_error():
    with pytest.raises(UsageError):
        LndSystem([PartialDerivation(0)], _poly_gens(1), nilpotence_cap=-1)
    with pytest.raises(UsageError):
        LndSystem([PartialDerivation(0)], _poly_gens(1), nilpotence_cap=-1, check=False)
