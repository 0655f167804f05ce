"""The former table walks and witness enumeration, kept as oracles.

``LndSystem.taylor_decompose`` used to walk the table of iterated
derivatives ``d^alpha a`` layer by layer and call ``phi`` once per entry,
so phi re-derived, in every later direction, values the table already held.
It now folds that one table direction by direction.  ``taylor_decompose``
below is the old loop, built on the public ``phi`` and the breadth-first
layer walk ``layers`` that ``order`` used, so the tests can compare
coefficient maps.

``enumerate_generators`` is the former witness enumeration: every ``z``
base is ``phi(d^alpha y / alpha!)``, formed one derivative at a time for
each alpha of the box ``[0, order(y)]^s`` in ``itertools.product`` order.
The library now reads the same bases off ``taylor_decompose(y)``.
"""

import itertools
from fractions import Fraction

from lndcalc import GeneratorWitness, InnerDerivation, LndError, TaylorCoefficients
from lndcalc.invariants import _sort_key
from lndcalc.multiindex import MultiIndex, multi_factorial


def layers(system, a):
    """Yield (grade d, {alpha: d^alpha(a)}) with only nonzero values,
    stopping after the last nonzero layer."""
    zero_alpha = (0,) * system.s
    layer = {zero_alpha: a}
    d = 0
    while layer:
        yield d, layer
        system._check_depth(d)
        nxt: dict[MultiIndex, object] = {}
        for alpha, val in layer.items():
            first = next((k for k, e in enumerate(alpha) if e), system.s)
            for i in range(min(first, system.s - 1) + 1):
                derived = system.derive(i, val)
                if not derived.is_zero():
                    beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    nxt[beta] = derived
        layer = nxt
        d += 1


def order(system, a) -> int:
    """Largest |alpha| with d^alpha(a) != 0, by the layer walk."""
    if a.is_zero():
        raise LndError("the zero element has no order")
    last = 0
    for d, _ in layers(system, a):
        last = d
    return last


def taylor_decompose(system, a) -> TaylorCoefficients:
    """alpha -> phi(d^alpha a) / alpha!, one phi call per table entry."""
    coeffs = {}
    if not a.is_zero():
        for _, layer in layers(system, a):
            for alpha, val in layer.items():
                c = system.phi(val) * Fraction(1, multi_factorial(alpha))
                if not c.is_zero():
                    coeffs[alpha] = c
    return TaylorCoefficients(system.s, coeffs)


def multi_derive(system, alpha, a):
    """d^alpha(a) / alpha!, one derivative at a time."""
    out = a
    for i, k in enumerate(alpha):
        for _ in range(k):
            out = system.derive(i, out)
            if out.is_zero():
                break
    return out * Fraction(1, multi_factorial(alpha))


def z_bases(system, y):
    """[(alpha, phi(d^alpha y / alpha!))] over the box [0, order(y)]^s in
    ``itertools.product`` order, zeros dropped."""
    box = itertools.product(range(order(system, y) + 1), repeat=system.s)
    pairs = ((alpha, system.phi(multi_derive(system, alpha, y))) for alpha in box)
    return [(alpha, base) for alpha, base in pairs if not base.is_zero()]


def enumerate_generators(system, generators, word_bound, degree_bound):
    """The former ``enumerate_generators`` on the ``z_bases`` of each
    generator: same words, deduplication and sort."""
    s = system.s
    brackets = [InnerDerivation(t) for t in system.slices]
    witnesses, seen = [], set()

    def push(kind, word, alpha, source, value):
        if value.is_zero() or value.total_degree() > degree_bound or value in seen:
            return
        seen.add(value)
        witnesses.append(GeneratorWitness(kind, word, alpha, source, value))

    def extend_by_words(kind, alpha, source, base, max_len, min_len):
        level = [((), base)]
        if min_len == 0:
            push(kind, (), alpha, source, base)
        for length in range(1, max_len + 1):
            nxt = []
            for word, val in level:
                for k in range(s):
                    new_val = brackets[k].apply(val)
                    if new_val.is_zero():
                        continue
                    nxt.append(((k,) + word, new_val))
                    if length >= min_len:
                        push(kind, (k,) + word, alpha, source, new_val)
            level = nxt

    for idx, y in enumerate(generators):
        for alpha, base in z_bases(system, y):
            extend_by_words("z", alpha, idx, base, word_bound, 0)
    for j, t in enumerate(system.slices):
        extend_by_words("x", None, j, t, word_bound, 1)
    witnesses.sort(key=_sort_key)
    return witnesses
