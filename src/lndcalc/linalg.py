"""Tiny exact linear algebra over the rationals.

Just enough for the brute-force kernel oracle and rank computations: rank
and a canonical nullspace basis, both read off one reduced row echelon
form.  Callers pass and receive dense lists; elimination itself runs on
sparse rows ({column: Fraction}, zeros never stored), since the kernel
oracle's matrices are a few percent nonzero.  The reduced row echelon form
is unique, so the results do not depend on the elimination order.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
SparseRow = dict[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _reduce(rows: Matrix) -> dict[int, SparseRow]:
    """Pivot column -> reduced pivot row, in ascending pivot order.

    Forward pass: each incoming row is reduced against the pivot rows found
    so far until its leading column is a new pivot, then scaled to a leading
    1.  Back substitution in descending pivot order then clears every pivot
    column above its pivot."""
    echelon: dict[int, SparseRow] = {}
    for row in rows:
        vec = {c: v for c, v in enumerate(row) if v}
        while vec:
            lead = min(vec)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                inv = _ONE / vec[lead]
                echelon[lead] = {c: v * inv for c, v in vec.items()}
                break
            f = vec[lead]
            for c, v in pivot_row.items():
                new = vec.get(c, 0) - f * v
                if new:
                    vec[c] = new
                else:
                    del vec[c]
    pivots = sorted(echelon)
    for p in reversed(pivots):
        row = echelon[p]
        for q in [c for c in row if c != p and c in echelon]:
            f = row[q]
            for c, v in echelon[q].items():
                new = row.get(c, 0) - f * v
                if new:
                    row[c] = new
                else:
                    del row[c]
    return {p: echelon[p] for p in pivots}


def rank(rows: Matrix) -> int:
    return len(_reduce(rows))


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Canonical basis of {v : M v = 0}, one vector per free column, each
    with a leading 1 at its free column and zeros at the other free columns."""
    reduced = _reduce(rows)
    # free column -> [(pivot column, -entry)] over the pivot rows using it
    uses: dict[int, list[tuple[int, Fraction]]] = {}
    for p, row in reduced.items():
        for c, v in row.items():
            if c != p:
                uses.setdefault(c, []).append((p, -v))
    basis: Matrix = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        vec = [_ZERO] * ncols
        vec[fc] = _ONE
        for p, v in uses.get(fc, ()):
            vec[p] = v
        basis.append(vec)
    return basis
