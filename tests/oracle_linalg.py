"""Independent dense elimination oracle.

Plain textbook Gauss-Jordan on dense lists of Fraction: for each column in
turn, swap the first row with a nonzero entry up, scale it to a leading 1 and
clear the column in every other row.  Quadratic storage and cubic work, which
is fine for the sizes the tests feed it; the library's sparse elimination must
agree with it exactly (the reduced row echelon form is unique).
"""

from fractions import Fraction

Matrix = list[list[Fraction]]


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (copy) and the pivot column list."""
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r] + mat[r:], pivots


def rank(rows: Matrix) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Canonical basis of {v : M v = 0}, one vector per free column, each
    with a leading 1 at its free column and zeros at the other free columns."""
    if not rows:
        return [
            [Fraction(1) if j == c else Fraction(0) for j in range(ncols)]
            for c in range(ncols)
        ]
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: Matrix = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis
