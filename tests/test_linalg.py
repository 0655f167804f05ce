"""Exact rational row reduction, rank, and nullspace, checked against the
dense Gauss-Jordan oracle in ``oracle_linalg``."""

from fractions import Fraction
from random import Random

from lndcalc.linalg import _reduce, nullspace, rank
import oracle_linalg


def _mat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def _mul_vec(rows, vec):
    return [sum(r[j] * vec[j] for j in range(len(vec))) for r in rows]


def _dense(reduced, ncols):
    """``_reduce``'s pivot rows as dense rows, in pivot order."""
    return [[row.get(c, 0) for c in range(ncols)] for row in reduced.values()]


def _assert_rref_agrees(rows):
    """``_reduce``'s pivots and pivot rows are the oracle's reduced row
    echelon form, whose other rows are zero; no zero entry is stored."""
    ncols = len(rows[0]) if rows else 0
    reduced = _reduce(rows)
    mat, pivots = oracle_linalg.rref(rows)
    assert list(reduced) == pivots
    assert _dense(reduced, ncols) == mat[:len(pivots)]
    assert not any(any(row) for row in mat[len(pivots):])
    assert all(all(row.values()) for row in reduced.values())


def test_rref_known_example():
    rows = _mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced = _reduce(rows)
    assert list(reduced) == [0, 1]
    assert _dense(reduced, 3) == [[1, 0, 1], [0, 1, 1]]
    _assert_rref_agrees(rows)


def test_rref_is_idempotent():
    rng = Random(5)
    for _ in range(20):
        rows = _mat([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
        reduced = _reduce(rows)
        again = _reduce(_dense(reduced, 4))
        assert again == reduced
        _assert_rref_agrees(rows)


def test_rank_examples():
    assert rank(_mat([[1, 2], [2, 4]])) == 1
    assert rank(_mat([[1, 0], [0, 1]])) == 2
    assert rank(_mat([[0, 0], [0, 0]])) == 0
    assert rank([]) == 0


def test_nullspace_vectors_are_killed_and_span_the_kernel():
    rng = Random(17)
    for _ in range(20):
        ncols = rng.randint(1, 5)
        nrows = rng.randint(0, 5)
        rows = _mat([[rng.randint(-3, 3) for _ in range(ncols)]
                     for _ in range(nrows)])
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank(rows)
        for vec in basis:
            assert all(v == 0 for v in _mul_vec(rows, vec))
        # basis vectors are independent: stacking them keeps full rank
        if basis:
            assert rank([list(v) for v in basis]) == len(basis)


def test_nullspace_of_injective_map_is_trivial():
    assert nullspace(_mat([[1, 0], [0, 1], [3, 5]]), 2) == []


def test_exactness_with_fractions():
    rows = _mat([[Fraction(1, 3), Fraction(1, 6)]])
    basis = nullspace(rows, 2)
    assert len(basis) == 1
    vec = basis[0]
    assert Fraction(1, 3) * vec[0] + Fraction(1, 6) * vec[1] == 0


# -- differential tests against the dense oracle -----------------------------------


def _random_rows(rng, nrows, ncols, density, fractions):
    def entry():
        if rng.random() >= density:
            return 0 if rng.random() < 0.5 else Fraction(0)
        if fractions:
            return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return rng.randint(-4, 4)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _assert_agrees(rows, ncols):
    _assert_rref_agrees(rows)
    assert rank(rows) == oracle_linalg.rank(rows)
    assert nullspace(rows, ncols) == oracle_linalg.nullspace(rows, ncols)


def test_agrees_with_dense_oracle_on_edge_shapes():
    _assert_agrees([], 0)
    _assert_agrees([], 3)
    _assert_agrees([[]], 0)
    _assert_agrees([[0, 0, 0]], 3)
    _assert_agrees([[Fraction(0)] * 4 for _ in range(3)], 4)
    _assert_agrees([[0, 0], [0, 5], [0, 0], [7, 1]], 2)
    _assert_agrees([[1, 2, 3], [2, 4, 6], [0, 0, 0], [0, 1, 1]], 3)


def test_agrees_with_dense_oracle_on_random_matrices():
    rng = Random(20240601)
    for trial in range(600):
        nrows = rng.randint(0, 8)
        ncols = rng.randint(0, 8)
        density = (0.0, 0.05, 0.2, 0.5, 1.0)[trial % 5]
        rows = _random_rows(rng, nrows, ncols, density, fractions=trial % 2 == 1)
        _assert_agrees(rows, ncols)


def test_agrees_with_dense_oracle_on_wide_sparse_matrices():
    rng = Random(7)
    for _ in range(12):
        nrows, ncols = rng.randint(10, 30), rng.randint(20, 60)
        rows = _random_rows(rng, nrows, ncols, rng.choice((0.03, 0.1)), fractions=False)
        _assert_agrees(rows, ncols)


def test_nullspace_pivot_is_exact_on_int_entries():
    # a float reciprocal of the pivot would give -0.333... here
    assert nullspace([[3, 1]], 2) == [[Fraction(-1, 3), Fraction(1)]]
    assert all(type(v) is Fraction for v in nullspace([[3, 1]], 2)[0])
