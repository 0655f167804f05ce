"""Multi-index iterators, factorials, and the canonical term orders."""

import math
from random import Random

from lndcalc.multiindex import (
    graded_lex_key,
    iter_layer,
    iter_upto,
    multi_factorial,
    multi_total,
    term_order_key,
)


def test_iter_layer_counts_and_degree():
    for s in (1, 2, 3):
        for d in range(5):
            layer = list(iter_layer(s, d))
            assert len(layer) == math.comb(d + s - 1, s - 1)
            assert all(len(a) == s and sum(a) == d for a in layer)
            assert len(set(layer)) == len(layer)


def test_iter_upto_is_union_of_layers_by_degree():
    got = list(iter_upto(2, 3))
    expected = [a for d in range(4) for a in iter_layer(2, d)]
    assert got == expected


def test_factorial_and_total():
    assert multi_factorial((2, 3)) == 12
    assert multi_factorial(()) == 1
    assert multi_total((2, 3)) == 5


def test_term_order_puts_higher_indices_first():
    # The printing order ranks exponent vectors by their highest-index entries:
    # x2 comes before x1^2, matching "x2 - x1^2" style output.
    ranked = sorted([(2, 0), (0, 1), (0, 0)], key=term_order_key, reverse=True)
    assert ranked == [(0, 1), (2, 0), (0, 0)]


def test_graded_lex_orders_by_degree_then_lex():
    ranked = sorted([(2, 0), (1, 1), (0, 2), (1, 0), (0, 1), (0, 0)],
                    key=graded_lex_key)
    assert ranked == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_orders_are_total_on_a_layer():
    rng = Random(11)
    layer = list(iter_layer(3, 4))
    rng.shuffle(layer)
    assert len({term_order_key(a) for a in layer}) == len(layer)
    assert len({graded_lex_key(a) for a in layer}) == len(layer)
