"""Property tests on generated tame automorphisms of P_m (needs hypothesis;
skipped without it).  Examples are derandomized and few, so the run is fixed
and short."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from lndcalc import LndSystem, WeylElement, invert, twisted_partials  # noqa: E402
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
    system = LndSystem(twisted_partials(aut), list(aut.images), check=False)
    for i in range(sig.s):
        x = WeylElement.generator(sig, i)
        table = system.taylor_decompose(x)
        expected = {alpha: c.constant_term() for alpha, c in table.items()}
        assert system._taylor_at_zero(x) == expected
        assert WeylElement(sig, expected) == got.images[i]
