"""Seeded inputs, op cycles and answer checks for the benchmark workloads.

A workload is a pool of distinct ops plus a seeded rule that arranges them
into cycles.  Every cycle holds each op template at a fixed weight, so the
latency percentiles fall at the same place in the op mix whatever the seed;
the seed picks coefficients, variable labels, which variant of a template
runs and the order inside each cycle.

Every op is a single call into the library (or one ``lndcalc.cli.main``
call) made through a module attribute looked up at call time, so that the
tracer's rebinding of that attribute is seen.  Each op carries a check that
reaches the answer by a different code path from the one being timed.

Ops marked ``defect`` are inputs the library is known to get wrong today:
an error on them is the expected outcome and counts against ``ok_ratio``
only, while an answer they return is checked like any other.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from fractions import Fraction
from math import factorial

import lndcalc
import lndcalc.cli
from lndcalc import (
    CommPoly,
    FreeElement,
    TaylorCoefficients,
    WeylElement,
    WeylSignature,
    parsing,
)
from lndcalc.parsing import CommCarrier, FreeCarrier, WeylCarrier

COEFFS = [Fraction(a, b) for a in (1, -1, 2, -2, 3, -3) for b in (1, 2, 3)]


class Op:
    """One timed call.  ``call`` does the work, ``render`` turns its result
    into the text a user would see, ``check`` returns None for a right answer
    or a short reason for a wrong one."""

    __slots__ = ("name", "call", "render", "check", "defect")

    def __init__(self, name, call, check, render=str, defect=False):
        self.name = name
        self.call = call
        self.check = check
        self.render = render
        self.defect = defect


class Workload:
    """``slots`` lists (weight, variants) pairs; a cycle takes ``weight``
    ops from each slot, each a seeded choice among its variants, and
    shuffles them.  ``once`` runs a single time, after the last cycle."""

    def __init__(self, name, seed, slots, once=(), warmup=()):
        self.name = name
        self.rng = random.Random(seed * 7919 + 1)
        self.slots = slots
        self.once = list(once)
        self.warmup = list(warmup)

    @property
    def pool(self) -> list[Op]:
        ops = [op for _, variants in self.slots for op in variants] + self.once
        return list({id(op): op for op in ops}.values())

    def cycle(self) -> list[Op]:
        ops = [self.rng.choice(variants) for weight, variants in self.slots
               for _ in range(weight)]
        self.rng.shuffle(ops)
        return ops


# -- invert ---------------------------------------------------------------------

# The three maps named in ROADMAP.md, with the canonical text of their
# inverses as printed at the seed commit.
_W = "(x1*x3 + x2^2)"
NAMED = {
    "nagata": (0, 3, f"x1 -> x1 - 2*x2*{_W} - x3*{_W}^2; x2 -> x2 + x3*{_W}; x3 -> x3",
               "x1 -> -x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3 + 2*x1*x2*x3 + 2*x2^3 + x1; "
               "x2 -> -x1*x3^2 - x2^2*x3 + x2; x3 -> x3"),
    "a11": (1, 1, "x1 -> x1 + x3^3; x2 -> x2 + x1^2*x3 - x1; x3 -> x3 + 1",
            "x1 -> -x3^3 + 3*x3^2 - 3*x3 + x1 + 1; x2 -> -x3^7 + 7*x3^6 - 21*x3^5 "
            "+ 2*x1*x3^4 + 35*x3^4 - 8*x1*x3^3 - 36*x3^3 + 12*x1*x3^2 + 24*x3^2 "
            "- x1^2*x3 - 8*x1*x3 - 10*x3 + x2 + x1^2 + 3*x1 + 2; x3 -> x3 - 1"),
    "a20": (2, 0, "x1 -> x1; x2 -> x2; x3 -> x3 + 2*x1*x2 + 4*x1^3; "
                  "x4 -> x4 + x1^2 + 3*x2^2",
            "x1 -> x1; x2 -> x2; x3 -> x3 - 2*x1*x2 - 4*x1^3; x4 -> x4 - 3*x2^2 - x1^2"),
}
# Nagata composed with a triangular map (ROADMAP stretch case, degree 10).
STRETCH_INNER = "x1 -> x1; x2 -> x2 + x1^2; x3 -> x3 + x2^2 - x1"
STRETCH_INNER_INVERSE = "x1 -> x1; x2 -> x2 - x1^2; x3 -> x3 - (x2 - x1^2)^2 + x1"

# Tame templates: (n, m, steps).  A step is ("z", j, monomials) for the
# central shift x_{2n+j} -> x_{2n+j} + f, ("p", monomials) for the momentum
# shear x_{n+i} -> x_{n+i} + df/dx_i, or ("q", monomials) for the
# coordinate shear x_i -> x_i + df/dx_{n+i}.  Monomials are exponent tuples
# over all generators; each gets a seeded coefficient.  The map is the
# composition step_1 o step_2 o ..., so its inverse is known by
# construction.  Templates on P_m (n = 0) are triangular maps whose
# variables the seed relabels.
TAME = {
    "p2-henon": (0, 2, [("z", 1, [(2, 0)]), ("z", 0, [(0, 2)])]),
    "p2-cubic": (0, 2, [("z", 1, [(3, 0), (1, 0)]), ("z", 0, [(0, 1)])]),
    "p2-affine": (0, 2, [("z", 1, [(2, 0), (0, 0)]), ("z", 0, [(0, 2), (0, 1)])]),
    "p3-two": (0, 3, [("z", 2, [(1, 1, 0)]), ("z", 1, [(2, 0, 0)])]),
    "p3-mixed": (0, 3, [("z", 2, [(2, 0, 0), (0, 1, 0)]), ("z", 0, [(0, 2, 0)])]),
    "p3-three": (0, 3, [("z", 2, [(1, 1, 0), (0, 0, 0)]), ("z", 1, [(1, 0, 0)]),
                        ("z", 0, [(0, 0, 1)])]),
    "p4-three": (0, 4, [("z", 3, [(1, 1, 0, 0), (0, 0, 1, 0)]), ("z", 2, [(2, 0, 0, 0)]),
                        ("z", 1, [(1, 0, 0, 0)])]),
    "a10-pq": (1, 0, [("p", [(3, 0)]), ("q", [(0, 2)])]),
    "a10-pq2": (1, 0, [("p", [(3, 0), (2, 0)]), ("q", [(0, 2)])]),
    "a11-shift": (1, 1, [("p", [(2, 0, 0), (1, 0, 1)]), ("z", 0, [(0, 0, 0)])]),
    "a11-cubic": (1, 1, [("p", [(3, 0, 0), (1, 0, 2)]), ("z", 0, [(0, 0, 0)])]),
    "a20-grad": (2, 0, [("p", [(1, 2, 0, 0)])]),
}
# Ops per cycle (40).  Latency is taken per input (see bench/worker.py), so
# each percentile lands on one input's value, and the host's frequent short
# slowdowns spoil the minimum of a long op more often than of a short one.
# The weights put the median inside the a10-pq block (about 20 ms, 25% from
# its neighbours) and the 90th percentile inside the a20-grad block (about
# 60 ms, 40% from its neighbours), with the three named maps above it.
TAME_WEIGHTS = {"p2-henon": 3, "p2-cubic": 3, "p3-two": 3, "p3-mixed": 3, "a10-pq": 15,
                "a20-grad": 4}
NAMED_WEIGHTS = {"a20": 1, "nagata": 1, "a11": 1}


def _aut(n: int, m: int, text: str):
    sig = WeylSignature(n, m)
    return lndcalc.aut_verify(sig, parsing.parse_images(text, WeylCarrier(sig)))


def _arrow(images) -> str:
    return "; ".join(f"x{i + 1} -> {img}" for i, img in enumerate(images))


def _tame_step(rng, sig, step, relabel):
    """One elementary map and its inverse."""
    n = sig.n
    gens = [WeylElement.generator(sig, i) for i in range(sig.s)]
    monos = step[-1]
    f = WeylElement(sig, {tuple(e[relabel[k]] for k in range(sig.s)): rng.choice(COEFFS)
                          for e in monos})
    img, inv = list(gens), list(gens)
    if step[0] == "z":
        t = relabel.index(2 * n + step[1])
        img[t], inv[t] = gens[t] + f, gens[t] - f
    else:
        for i in range(n):
            src, tgt = (i, n + i) if step[0] == "p" else (n + i, i)
            g = f.partial(src)
            img[tgt], inv[tgt] = gens[tgt] + g, gens[tgt] - g
    return lndcalc.aut_verify(sig, img), lndcalc.aut_verify(sig, inv)


def tame_map(rng, template: str):
    """A seeded map of the template's shape and its inverse factors
    (innermost first), which compose to the inverse."""
    n, m, steps = TAME[template]
    sig = WeylSignature(n, m)
    relabel = list(range(sig.s))
    if n == 0:
        rng.shuffle(relabel)
    pairs = [_tame_step(rng, sig, step, relabel) for step in steps]
    aut = pairs[0][0]
    for step, _ in pairs[1:]:
        aut = lndcalc.aut_compose(aut, step)
    return aut, [inv for _, inv in pairs]


def _composed(factors) -> str:
    out = factors[0]
    for f in factors[1:]:
        out = lndcalc.aut_compose(f, out)
    return str(out)


def _invert_op(name, aut, expected, defect=False):
    """``expected`` is the inverse's canonical text, or a zero-argument
    callable computing it (evaluated once, after the timed phase)."""
    memo = {}

    def check(text):
        if "text" not in memo:
            memo["text"] = expected() if callable(expected) else expected
        return None if text == memo["text"] else f"inverse differs: {text[:80]}"

    return Op(name, lambda: lndcalc.automorphisms.invert(aut), check, defect=defect)


def build_invert(seed: int) -> Workload:
    rng = random.Random(seed)
    slots = []
    for template in TAME:
        aut, factors = tame_map(rng, template)
        op = _invert_op(f"tame:{template}", aut, lambda factors=factors: _composed(factors))
        slots.append((TAME_WEIGHTS.get(template, 1), [op]))
    for name, weight in NAMED_WEIGHTS.items():
        n, m, text, inverse = NAMED[name]
        slots.append((weight, [_invert_op(f"named:{name}", _aut(n, m, text), inverse)]))
    nagata = _aut(0, 3, NAMED["nagata"][2])
    inner = _aut(0, 3, STRETCH_INNER)
    stretch = lndcalc.aut_compose(nagata, inner)

    def stretch_inverse():
        nagata_inv = _aut(0, 3, NAMED["nagata"][3])
        return _composed([nagata_inv, _aut(0, 3, STRETCH_INNER_INVERSE)])

    once = [_invert_op("stretch", stretch, stretch_inverse, defect=True)]
    warmup = [slots[0][1][0], slots[list(TAME).index("a10-pq")][1][0]]
    return Workload("invert", seed, slots, once, warmup)


# -- kernel ---------------------------------------------------------------------

# Kernel dimension of the standard system (all coordinate partials) on the
# homogeneous component of each degree.  On P_V and A(n, m) the joint kernel
# is the constants, so every positive degree is empty.
FREE_DIMS = {(2, d): 2 ** (d - 2) for d in range(2, 9)}
FREE_DIMS.update({(3, 3): 8, (3, 4): 24, (3, 5): 72})
# (free generators, degree, weight per cycle).  As for invert, the weights
# of the 40-op cycle put the median inside the F_2 degree-5 block and the
# 90th percentile inside the F_2 degree-6 block, with F_2 degree 7 and F_3
# degree 5 above it (at least ten ops beyond it from four cycles on).
KERNEL_FREE = [(2, 4, 2), (3, 3, 2), (2, 5, 21), (2, 6, 4), (2, 7, 2), (3, 5, 1)]
# Run once per run, after the cycles: F_2 degree 8 takes seconds per call,
# and F_3 degree 4 costs about what F_2 degree 6 does, so in the cycle it
# could swap places with the 90th-percentile block.
KERNEL_ONCE = [(2, 8), (3, 4)]
# Small commutative and Weyl components: (label, V or (n, m), degree).
KERNEL_SMALL = [("p3", 3, 3), ("p3", 3, 4), ("p4", 4, 3), ("a11", (1, 1), 3),
                ("a11", (1, 1), 4), ("a20", (2, 0), 3), ("a12", (1, 2), 3)]
KERNEL_SMALL_WEIGHT = 4
# Enumerate witnesses on F_2 with word bound d-1 and degree bound d, then
# take the degree-d dimension of the subalgebra they generate; at these
# bounds it equals the oracle's.  (degree, weight per cycle); degree 6 runs
# once per run, since it costs about what the 90th-percentile block does.
KERNEL_ENUM = [(4, 2), (5, 2)]
KERNEL_ENUM_ONCE = 6


def _kernel_check(carrier, expected_dim):
    """Basis size as tabulated, and every vector killed by every coordinate
    partial (the derivations of the standard system)."""
    def check(text):
        lines = [] if text == "(empty)" else text.split("\n")
        if len(lines) != expected_dim:
            return f"basis has {len(lines)} vectors, expected {expected_dim}"
        for line in lines:
            vec = parsing.parse_element(line, carrier)
            if vec.is_zero() or any(not vec.partial(i).is_zero()
                                    for i in range(carrier.count)):
                return f"basis vector not killed by every derivation: {line[:60]}"
        return None
    return check


def _carrier_like(one):
    if isinstance(one, FreeElement):
        return FreeCarrier(one.num_gens)
    if isinstance(one, WeylElement):
        return WeylCarrier(one.signature)
    return CommCarrier(one.num_vars)


def _render_basis(basis) -> str:
    return "\n".join(str(b) for b in basis) if basis else "(empty)"


def _kernel_op(name, one, degree, expected_dim):
    system = lndcalc.standard_system(one)
    return Op(name, lambda: lndcalc.invariants.graded_kernel_oracle(system, degree),
              _kernel_check(_carrier_like(one), expected_dim), render=_render_basis)


def _enum_op(system, gens, degree):
    expected = FREE_DIMS[(2, degree)]

    def call():
        witnesses = lndcalc.invariants.enumerate_generators(system, gens, degree - 1, degree)
        values = [w.value for w in witnesses]
        return lndcalc.invariants.subalgebra_graded_dimension(values, degree)

    def check(text):
        return None if text == str(expected) else f"subalgebra dim {text} != {expected}"

    return Op(f"enum:f2:{degree}", call, check)


def build_kernel(seed: int) -> Workload:
    slots = [(w, [_kernel_op(f"oracle:f{k}:{d}", FreeElement.one(k), d,
                             FREE_DIMS[(k, d)])])
             for k, d, w in KERNEL_FREE]
    small = []
    for label, carrier, degree in KERNEL_SMALL:
        one = (CommPoly.one(carrier) if isinstance(carrier, int)
               else WeylElement.one(WeylSignature(*carrier)))
        small.append(_kernel_op(f"oracle:{label}:{degree}", one, degree, 0))
    slots.append((KERNEL_SMALL_WEIGHT, small))
    f2 = lndcalc.standard_system(FreeElement.one(2))
    gens = [FreeElement.generator(2, i) for i in range(2)]
    slots.extend((w, [_enum_op(f2, gens, d)]) for d, w in KERNEL_ENUM)
    once = [_kernel_op(f"oracle:f{k}:{d}", FreeElement.one(k), d, FREE_DIMS[(k, d)])
            for k, d in KERNEL_ONCE] + [_enum_op(f2, gens, KERNEL_ENUM_ONCE)]
    warmup = [slots[0][1][0], small[0]]
    return Workload("kernel", seed, slots, once, warmup)


# -- cli-mix --------------------------------------------------------------------


def _mono(rng, nvars, degree) -> str:
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                    for i, e in enumerate(exps) if e)


def _word(rng, ngens, length) -> str:
    return "*".join(f"x{rng.randrange(ngens) + 1}" for _ in range(length))


def expr(rng, nvars, terms, max_degree, free=False, min_degree=0) -> str:
    """Random expression text with ``terms`` summands; a free-algebra
    expression uses words (order matters) instead of monomials."""
    parts = []
    for _ in range(terms):
        deg = rng.randint(min_degree, max_degree)
        body = (_word if free else _mono)(rng, nvars, deg)
        c = rng.choice(COEFFS)
        coeff = f"{c}" if not body else ("" if c == 1 else f"{c}*")
        parts.append(f"({coeff}{body})" if c < 0 else f"{coeff}{body}")
    return " + ".join(parts)


def _cli_call(argv, stdin):
    def call():
        buf = io.StringIO()
        saved = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(buf):
                lndcalc.cli.main(argv)
        finally:
            sys.stdin = saved
        return buf.getvalue()
    return call


def _carrier_of(argv):
    """The carrier selected by a command's flags."""
    def flag(name):
        return int(argv[argv.index(name) + 1]) if name in argv else None
    if flag("--poly") is not None:
        mask = frozenset({0}) if "--laurent" in argv else frozenset()
        return CommCarrier(flag("--poly"), mask)
    if flag("--free") is not None:
        return FreeCarrier(flag("--free"))
    return WeylCarrier(WeylSignature(flag("--n") or 0, flag("--m") or 0))


def _system_of(carrier):
    return lndcalc.standard_system(carrier.constant(1))


def _roundtrip(carrier, text):
    """Reason text is not in canonical form, or None."""
    again = str(parsing.parse_element(text, carrier))
    return None if again == text else f"format(parse(out)) = {again!r} != {text!r}"


def _check_element(argv, out):
    return _roundtrip(_carrier_of(argv), out)


def _check_lines(argv, out, sep):
    carrier = _carrier_of(argv)
    for line in out.split("\n"):
        reason = _roundtrip(carrier, line.split(sep, 1)[1].strip())
        if reason:
            return reason
    return None


def _check_projection(argv, out):
    carrier = _carrier_of(argv)
    system = _system_of(carrier)
    y = parsing.parse_element(out, carrier)
    if any(not system.derive(i, y).is_zero() for i in range(system.s)):
        return "projection is not invariant"
    project = system.psi if "psi" in argv else system.phi
    if project(y) != y:
        return "projection is not idempotent"
    return _roundtrip(carrier, out)


def _check_taylor(argv, out):
    carrier = _carrier_of(argv)
    system = _system_of(carrier)
    coeffs = {}
    if out != "alpha: none":
        for line in out.split("\n"):
            head, body = line.split(": ", 1)
            alpha = tuple(int(e) for e in head[len("alpha=("):-1].split(","))
            coeffs[alpha] = parsing.parse_element(body, carrier)
    rebuilt = system.taylor_reconstruct(TaylorCoefficients(system.s, coeffs))
    if rebuilt != parsing.parse_element(argv[-1], carrier):
        return "taylor_reconstruct(taylor_decompose(a)) != a"
    return None


def _images(argv, text):
    return parsing.parse_images(text, _carrier_of(argv))


def _check_images(argv, out):
    again = _arrow(_images(argv, out))
    return None if again == out else f"format(parse(out)) = {again!r}"


def _check_inverse(argv, out):
    images = _images(argv, argv[argv.index("--aut") + 1])
    gens = [WeylElement.generator(img.signature, i) for i, img in enumerate(images)]
    # a single elementary shear x_j -> x_j + f has inverse x_j -> x_j - f
    expected = _arrow(g.scale(2) - img for g, img in zip(gens, images))
    return None if out == expected else f"inverse {out!r} != {expected!r}"


def _check_log(argv, out):
    sig = _carrier_of(argv).signature
    deriv = lndcalc.Derivation(sig, _images(argv, out))
    back = str(lndcalc.exp_der(deriv))
    given = _arrow(_images(argv, argv[argv.index("--aut") + 1]))
    return None if back == given else f"exp(log(s)) = {back!r} != {given!r}"


def _check_exp(argv, out):
    sig = _carrier_of(argv).signature
    back = str(lndcalc.log_aut(lndcalc.aut_verify(sig, _images(argv, out))))
    given = _arrow(_images(argv, argv[argv.index("--der") + 1]))
    return None if back == given else f"log(exp(d)) = {back!r} != {given!r}"


def _check_kernel_cli(argv, out):
    carrier = _carrier_of(argv)
    dim = FREE_DIMS[(carrier.count, int(argv[argv.index("--degree") + 1]))]
    return _kernel_check(carrier, dim)(out)


def _check_relation(argv, out):
    return None if out in ("true", "false") else f"relation printed {out!r}"


def _check_weitzenboeck(argv, out):
    n = int(argv[-1])
    expected = "\n".join(f"phi(x{i}) = {lndcalc.weitzenboeck_closed_form(n, i)}"
                         for i in range(3, n + 1))
    return None if out == expected else "Weitzenboeck invariants differ from closed form"


def _check_no_answer(argv, out):
    return f"expected an error, got {out[:60]!r}"


def _tri2(rng, constant=True) -> str:
    """Unipotent triangular map of P_2 as image text."""
    shift = f" + {rng.randint(1, 3)}" if constant else ""
    return f"x1 -> x1{shift}; x2 -> x2 + {expr(rng, 1, 2, 3, min_degree=1)}"


def _shear_a10(rng) -> str:
    return f"x1 -> x1; x2 -> x2 + {expr(rng, 1, 2, 3, min_degree=1)}"


def _lnd2(rng) -> str:
    return f"x1 -> {rng.randint(1, 3)}; x2 -> {expr(rng, 1, 2, 2)}"


def _shift_table(c, order) -> str:
    """The translation x1 -> x1 + c tabulated on x1^0..x1^order."""
    x = CommPoly.variable(1, 0)
    return "".join(f"{k} : {(x + CommPoly.constant(1, c)) ** k}\n" for k in range(order + 1))


def _shift_series(c, order) -> str:
    """The Taylor series of that translation, sum_k c^k/k! d^k."""
    return "".join(f"d^({k}): {Fraction(c) ** k / factorial(k)}\n" for k in range(order + 1))


def _cli_templates(rng):
    """(name, argv, stdin, check) for one variant of every template."""
    c = rng.randint(1, 3)
    return [
        ("mul:poly", ["mul", "--poly", "3", expr(rng, 3, 3, 3), expr(rng, 3, 3, 3)],
         None, _check_element),
        ("mul:weyl", ["mul", "--n", "1", "--m", "1", expr(rng, 3, 3, 3),
                      expr(rng, 3, 3, 3)], None, _check_element),
        ("mul:free", ["mul", "--free", "2", expr(rng, 2, 3, 3, True),
                      expr(rng, 2, 3, 3, True)], None, _check_element),
        ("partial:poly", ["partial", "--poly", "3", "--i", str(rng.randint(1, 3)),
                          expr(rng, 3, 4, 4)], None, _check_element),
        ("partial:free", ["partial", "--free", "3", "--i", str(rng.randint(1, 3)),
                          expr(rng, 3, 3, 4, True)], None, _check_element),
        ("project:weyl", ["project", "--n", "1", "--m", "1", expr(rng, 3, 3, 3)],
         None, _check_projection),
        ("project:free", ["project", "--free", "2", expr(rng, 2, 3, 3, True)],
         None, _check_projection),
        ("project:psi", ["project", "--map", "psi", "--poly", "3", expr(rng, 3, 4, 3)],
         None, _check_projection),
        ("taylor:weyl", ["taylor", "--n", "1", "--m", "1", expr(rng, 3, 2, 3)],
         None, _check_taylor),
        ("taylor:poly", ["taylor", "--poly", "2", expr(rng, 2, 3, 3)],
         None, _check_taylor),
        ("taylor:free", ["taylor", "--free", "2", expr(rng, 2, 2, 3, True)],
         None, _check_taylor),
        ("invert", ["invert", "--n", "1", "--m", "0", "--aut", _shear_a10(rng)],
         None, _check_inverse),
        ("verify", ["verify", "--n", "0", "--m", "2", "--aut", _tri2(rng)],
         None, _check_images),
        ("compose", ["compose", "--n", "0", "--m", "2", "--aut", _tri2(rng),
                     "--aut2", _tri2(rng)], None, _check_images),
        ("log-aut", ["log-aut", "--n", "0", "--m", "2", "--aut", _tri2(rng)],
         None, _check_log),
        ("exp-der", ["exp-der", "--n", "0", "--m", "2", "--der", _lnd2(rng)],
         None, _check_exp),
        ("aut-series", ["aut-series", "--n", "0", "--m", "2", "--aut",
                        _tri2(rng, constant=False), "--max-order", "3"],
         None, lambda argv, out: _check_lines(argv, out, ":")),
        ("map-series", ["map-series", "--n", "0", "--m", "1", "--max-order", "4"],
         _shift_table(c, 4), lambda argv, out: _check_lines(argv, out, ":")),
        ("apply-series", ["apply-series", "--n", "0", "--m", "1", expr(rng, 1, 3, 4)],
         _shift_series(c, 4), _check_element),
        ("invariants", ["invariants", "--free", "2", "--word-bound", "2"],
         None, lambda argv, out: _check_lines(argv, out, " : ")),
        ("relation", ["relation", "--free", "2", expr(rng, 2, 3, 3, True)],
         None, _check_relation),
        ("kernel", ["kernel", "--free", "2", "--degree", "4"],
         None, _check_kernel_cli),
        ("weitzenboeck", ["weitzenboeck", "--n", "5"],
         None, _check_weitzenboeck),
    ]


# φ over K[x1^{±1}] with d/dx1: not locally nilpotent, today "ERROR cap".
LAURENT_DEFECT = ["project", "--poly", "1", "--laurent", "1", "x1^-1"]
CLI_VARIANTS = 2


def _cli_op(name, argv, stdin, check, defect=False):
    def checked(text):
        if not text.endswith("\n"):
            return "output does not end with a newline"
        return check(argv, text[:-1])

    return Op(f"cli:{name}", _cli_call(argv, stdin), checked, render=lambda t: t,
              defect=defect)


def build_cli_mix(seed: int) -> Workload:
    rng = random.Random(seed)
    variants = [_cli_templates(rng) for _ in range(CLI_VARIANTS)]
    slots = [(1, [_cli_op(*v[i]) for v in variants]) for i in range(len(variants[0]))]
    slots.append((1, [_cli_op("project:laurent", LAURENT_DEFECT, None, _check_no_answer,
                              defect=True)]))
    warmup = [slots[0][1][0]]
    return Workload("cli-mix", seed, slots, warmup=warmup)


BUILDERS = {"invert": build_invert, "kernel": build_kernel, "cli-mix": build_cli_mix}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
