"""Multi-index helpers.

A multi-index is a plain tuple of non-negative integers.  Exponent vectors of
Laurent monomials reuse the same tuple representation but may carry negative
entries; the helpers that require non-negativity say so.
"""

from __future__ import annotations

import math
from typing import Iterator

MultiIndex = tuple[int, ...]


def multi_factorial(alpha: MultiIndex) -> int:
    """alpha! = prod_i alpha_i!  (alpha must be non-negative)."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def multi_total(alpha: MultiIndex) -> int:
    """|alpha| = sum of the entries."""
    return sum(alpha)


def iter_layer(s: int, total: int) -> Iterator[MultiIndex]:
    """All alpha in N^s with |alpha| = total, in lexicographic order."""
    if s == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in iter_layer(s - 1, total - first):
            yield (first,) + rest


def iter_upto(s: int, bound: int) -> Iterator[MultiIndex]:
    """All alpha in N^s with |alpha| <= bound, by increasing |alpha|."""
    for total in range(bound + 1):
        yield from iter_layer(s, total)


def graded_lex_key(alpha: MultiIndex) -> tuple:
    """Sort key: by |alpha|, then lexicographically.  Ascending use."""
    return (multi_total(alpha), alpha)


def term_order_key(alpha: MultiIndex) -> tuple:
    """Canonical term order on exponent vectors.

    Vectors compare lexicographically reading the last variable first, the
    generator with the largest index being the most significant.  Printing
    sorts descending under this key, so e.g. x2 precedes x1^2.
    """
    return tuple(reversed(alpha))

