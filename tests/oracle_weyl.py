"""Independent normal-ordering oracle built on iterative single swaps.

A monomial is flattened into a word of generator indices; the word is then
rewritten one adjacent transposition at a time using nothing but the defining
relations: for a coordinate index q < n and its conjugate momentum p = n + q,

    x_p * x_q  =  x_q * x_p + 1,

and every other generator pair commutes.  Whenever an adjacent descent
w[k] > w[k+1] is found, the word is replaced by the swapped word plus (for a
conjugate pair) the word with the pair deleted.  Exponential in the worst
case, which is fine for the small products the tests feed it; the library's
closed-form product must agree with this rewriting exactly.
"""

from fractions import Fraction

from lndcalc import WeylElement, WeylSignature


def _first_descent(word: tuple) -> int | None:
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            return k
    return None


def normal_order_word(signature: WeylSignature, word: tuple) -> dict:
    """Exponent-tuple -> coefficient map for the product of generators `word`
    (0-based indices), normal-ordered by single swaps."""
    n, s = signature.n, signature.s
    totals: dict[tuple, Fraction] = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        current, coeff = stack.pop()
        k = _first_descent(current)
        if k is None:
            alpha = [0] * s
            for index in current:
                alpha[index] += 1
            key = tuple(alpha)
            totals[key] = totals.get(key, Fraction(0)) + coeff
            continue
        hi, lo = current[k], current[k + 1]
        stack.append((current[:k] + (lo, hi) + current[k + 2 :], coeff))
        if lo < n and hi == n + lo:
            stack.append((current[:k] + current[k + 2 :], coeff))
    return {alpha: c for alpha, c in totals.items() if c}


def _monomial_word(alpha: tuple) -> tuple:
    word = []
    for index, power in enumerate(alpha):
        word.extend([index] * power)
    return tuple(word)


def oracle_mul_terms(a: WeylElement, b: WeylElement) -> dict:
    """Exponent-tuple -> Fraction map of the product a*b, summed in plain
    Fractions from the single-swap rewriting (no library arithmetic)."""
    totals: dict[tuple, Fraction] = {}
    for alpha, ca in a.terms.items():
        for beta, cb in b.terms.items():
            word = _monomial_word(alpha) + _monomial_word(beta)
            for gamma, c in normal_order_word(a.signature, word).items():
                totals[gamma] = totals.get(gamma, Fraction(0)) + Fraction(ca) * cb * c
    return {gamma: c for gamma, c in totals.items() if c}


def oracle_mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """Product of two elements via the single-swap rewriting oracle."""
    return WeylElement(a.signature, oracle_mul_terms(a, b))
