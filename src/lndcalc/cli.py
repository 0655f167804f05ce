"""Command line interface.

Every operation of the library is exposed as a batch subcommand reading
expressions from flags/arguments (and tables from stdin) and writing the
canonical text form to stdout.  Exit status: 0 success, 1 domain errors
(failed relation, zero Jacobian, cap exceeded, ...), 2 usage or syntax
errors.  Errors print a single line "ERROR <code>: <message>".

Carrier selection (exactly one):
    --n N --m M   the algebra A(N,M) on 2N+M generators (N=0 gives plain
                  polynomials; automorphism commands require this carrier)
    --poly V      commutative polynomials in V variables
                  (--laurent "1,3" marks invertible variables, 1-based)
    --free K      the free algebra on K generators

Variables are written x1..xs everywhere, 1-based.
"""

from __future__ import annotations

import argparse
import sys

from .automorphisms import (
    Automorphism,
    Derivation,
    DiffOpSeries,
    aut_compose,
    aut_to_series,
    aut_verify,
    exp_der,
    invert,
    log_aut,
    map_to_series,
    series_apply,
)
from .errors import LndError, ParseError, UsageError
from .invariants import (
    enumerate_generators,
    graded_kernel_oracle,
    relation_check,
    weitzenboeck_invariants,
)
from .parsing import (
    CommCarrier,
    FreeCarrier,
    WeylCarrier,
    parse_element,
    parse_images,
)
from .projections import NILPOTENCE_CAP, standard_system
from .weyl import WeylSignature


def _parse_laurent(text: str, num_vars: int) -> frozenset[int]:
    if not text:
        return frozenset()
    mask = set()
    for piece in text.split(","):
        piece = piece.strip()
        if not piece.isdigit():
            raise UsageError(f"bad --laurent entry {piece!r}; use 1-based indices")
        idx = int(piece)
        if not 1 <= idx <= num_vars:
            raise UsageError(f"--laurent index {idx} out of range 1..{num_vars}")
        mask.add(idx - 1)
    return frozenset(mask)


def _carrier_from(args) -> CommCarrier | WeylCarrier | FreeCarrier:
    weyl = args.n is not None or args.m is not None
    poly = getattr(args, "poly", None) is not None
    free = getattr(args, "free", None) is not None
    if sum((weyl, poly, free)) != 1:
        raise UsageError("select exactly one carrier: --n/--m, --poly, or --free")
    if free:
        if args.free < 1:
            raise UsageError("--free needs at least one generator")
        return FreeCarrier(args.free)
    if poly:
        if args.poly < 1:
            raise UsageError("--poly needs at least one variable")
        return CommCarrier(args.poly, _parse_laurent(args.laurent, args.poly))
    return WeylCarrier(_signature_from(args))


def _signature_from(args) -> WeylSignature:
    n = args.n if args.n is not None else 0
    m = args.m if args.m is not None else 0
    if n < 0 or m < 0:
        raise UsageError("--n and --m must be non-negative")
    if 2 * n + m < 1:
        raise UsageError("the signature needs at least one generator (--n/--m)")
    return WeylSignature(n, m)


def _verified_aut(args, flag: str = "aut") -> Automorphism:
    sig = _signature_from(args)
    images = parse_images(getattr(args, flag.replace("-", "_")), WeylCarrier(sig))
    return aut_verify(sig, images)


def _parse_index_list(text: str, length: int) -> tuple[int, ...]:
    pieces = [p.strip() for p in text.split(",")]
    try:
        alpha = tuple(int(p) for p in pieces)
    except ValueError:
        raise UsageError(f"bad multi-index {text!r}") from None
    if len(alpha) != length or any(e < 0 for e in alpha):
        raise UsageError(
            f"multi-index {text!r} must have {length} non-negative entries"
        )
    return alpha


def _read_table_lines(stream, sig: WeylSignature):
    """Lines "a1,..,as : expr" -> {alpha: element}."""
    carrier = WeylCarrier(sig)
    table = {}
    for raw in stream.read().splitlines():
        line = raw.strip()
        if not line:
            continue
        left, sep, right = line.partition(":")
        if not sep:
            raise UsageError(f"table line {line!r} is missing ':'")
        alpha = _parse_index_list(left.strip(), sig.s)
        table[alpha] = parse_element(right.strip(), carrier)
    return table


def _read_series_lines(stream, sig: WeylSignature) -> DiffOpSeries:
    """Lines "d^(a1,..,as): expr" -> DiffOpSeries (order = largest |alpha|)."""
    carrier = WeylCarrier(sig)
    coeffs = {}
    for raw in stream.read().splitlines():
        line = raw.strip()
        if not line or line == "0":
            continue
        left, sep, right = line.partition(":")
        left = left.strip()
        if not sep or not (left.startswith("d^(") and left.endswith(")")):
            raise UsageError(f"series line {line!r}; expected \"d^(a1,..): expr\"")
        alpha = _parse_index_list(left[3:-1], sig.s)
        coeffs[alpha] = parse_element(right.strip(), carrier)
    order = max((sum(a) for a in coeffs), default=0)
    return DiffOpSeries(sig, order, coeffs)


# -- subcommand handlers (each returns the full output text) -------------------


def _cmd_mul(args) -> str:
    carrier = _carrier_from(args)
    a = parse_element(args.a, carrier)
    b = parse_element(args.b, carrier)
    return str(a * b)


def _cmd_partial(args) -> str:
    carrier = _carrier_from(args)
    if not 1 <= args.i <= carrier.count:
        raise UsageError(f"--i {args.i} out of range 1..{carrier.count}")
    return str(parse_element(args.expr, carrier).partial(args.i - 1))


def _cmd_project(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    element = parse_element(args.expr, carrier)
    out = system.phi(element) if args.map == "phi" else system.psi(element)
    return str(out)


def _cmd_taylor(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    return str(system.taylor_decompose(parse_element(args.expr, carrier)))


def _cmd_invert(args) -> str:
    return str(invert(_verified_aut(args)))


def _cmd_verify(args) -> str:
    return str(_verified_aut(args))


def _cmd_compose(args) -> str:
    outer = _verified_aut(args, "aut")
    inner = _verified_aut(args, "aut2")
    return str(aut_compose(outer, inner))


def _cmd_log_aut(args) -> str:
    return str(log_aut(_verified_aut(args)))


def _cmd_exp_der(args) -> str:
    sig = _signature_from(args)
    values = parse_images(args.der, WeylCarrier(sig))
    return str(exp_der(Derivation(sig, values)))


def _cmd_aut_series(args) -> str:
    return str(aut_to_series(_verified_aut(args), args.max_order))


def _cmd_map_series(args) -> str:
    sig = _signature_from(args)
    table = _read_table_lines(sys.stdin, sig)
    return str(map_to_series(sig, table, args.max_order))


def _cmd_apply_series(args) -> str:
    sig = _signature_from(args)
    series = _read_series_lines(sys.stdin, sig)
    element = parse_element(args.expr, WeylCarrier(sig))
    return str(series_apply(series, element))


def _cmd_invariants(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    if args.gens:
        gens = [
            parse_element(piece.strip(), carrier) for piece in args.gens.split(";")
        ]
    else:
        gens = [carrier.variable(i) for i in range(carrier.count)]
    witnesses = enumerate_generators(system, gens, args.word_bound, args.degree_bound)
    if not witnesses:
        return "(none)"
    return "\n".join(w.describe() for w in witnesses)


def _cmd_relation(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    return "true" if relation_check(system, parse_element(args.expr, carrier)) else "false"


def _cmd_kernel(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    basis = graded_kernel_oracle(system, args.degree)
    if not basis:
        return "(empty)"
    return "\n".join(str(b) for b in basis)


def _cmd_weitzenboeck(args) -> str:
    if args.n is None or args.n < 3:
        raise UsageError("--n must be at least 3")
    lines = [f"phi(x{i}) = {value}" for i, value in weitzenboeck_invariants(args.n)]
    return "\n".join(lines)


# -- parser construction --------------------------------------------------------


def _add_carrier_flags(p: argparse.ArgumentParser, weyl_only: bool = False) -> None:
    p.add_argument("--n", type=int, default=None, help="Weyl pairs of A(n,m)")
    p.add_argument("--m", type=int, default=None, help="central variables of A(n,m)")
    if not weyl_only:
        p.add_argument("--poly", type=int, default=None, metavar="V",
                       help="commutative carrier with V variables")
        p.add_argument("--laurent", type=str, default="", metavar="LIST",
                       help="1-based invertible variable indices (with --poly)")
        p.add_argument("--free", type=int, default=None, metavar="K",
                       help="free algebra on K generators")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lndcalc",
        description="Exact calculator for algebras with commuting locally "
        "nilpotent derivations: projections, Taylor decompositions, "
        "automorphism inversion, exp/log, operator series, invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None,
                        help="also write the output text to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, weyl_only=False, carrier=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if carrier:
            _add_carrier_flags(p, weyl_only=weyl_only)
        p.set_defaults(func=func)
        return p

    p = add("mul", _cmd_mul, "normal-ordered product of two expressions")
    p.add_argument("a")
    p.add_argument("b")

    p = add("partial", _cmd_partial, "i-th partial derivative")
    p.add_argument("--i", type=int, required=True, help="1-based direction")
    p.add_argument("expr")

    p = add("project", _cmd_project, "projection onto the invariant subalgebra")
    p.add_argument("--map", choices=("phi", "psi"), default="phi")
    p.add_argument("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")
    p.add_argument("expr")

    p = add("taylor", _cmd_taylor, "Taylor coefficients over the coordinate slices")
    p.add_argument("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")
    p.add_argument("expr")

    p = add("invert", _cmd_invert, "inverse of an automorphism of A(n,m)",
            weyl_only=True)
    p.add_argument("--aut", required=True, help='"x1 -> expr; x2 -> expr; ..."')

    p = add("verify", _cmd_verify, "check the defining relations of images",
            weyl_only=True)
    p.add_argument("--aut", required=True)

    p = add("compose", _cmd_compose, "composition: --aut applied after --aut2",
            weyl_only=True)
    p.add_argument("--aut", required=True)
    p.add_argument("--aut2", required=True)

    p = add("log-aut", _cmd_log_aut, "logarithm of a unipotent automorphism",
            weyl_only=True)
    p.add_argument("--aut", required=True)

    p = add("exp-der", _cmd_exp_der, "exponential of a locally nilpotent derivation",
            weyl_only=True)
    p.add_argument("--der", required=True, help='"x1 -> expr; ..." generator values')

    p = add("aut-series", _cmd_aut_series, "differential operator series of a "
            "polynomial automorphism (n = 0)", weyl_only=True)
    p.add_argument("--aut", required=True)
    p.add_argument("--max-order", type=int, default=6)

    p = add("map-series", _cmd_map_series, "solve for the series of a linear map "
            "tabulated on stdin as lines \"a1,..,as : expr\"", weyl_only=True)
    p.add_argument("--max-order", type=int, required=True)

    p = add("apply-series", _cmd_apply_series, "apply a series read from stdin "
            "(lines \"d^(a1,..): expr\") to an expression", weyl_only=True)
    p.add_argument("expr")

    p = add("invariants", _cmd_invariants, "enumerate invariant-ring generator "
            "witnesses over the coordinate system")
    p.add_argument("--gens", type=str, default=None,
                   help="semicolon-separated generating set (default: variables)")
    p.add_argument("--word-bound", type=int, default=2)
    p.add_argument("--degree-bound", type=int, default=6)
    p.add_argument("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")

    p = add("relation", _cmd_relation, "does phi map the expression to zero? "
            "(slice-ideal membership on commutative carriers only)")
    p.add_argument("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")
    p.add_argument("expr")

    p = add("kernel", _cmd_kernel, "exact basis of the joint kernel on one "
            "homogeneous component")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")

    p = add("weitzenboeck", _cmd_weitzenboeck, "invariants of the localized "
            "triangular derivation x1 d2 + ... + x_{n-1} d_n", carrier=False)
    p.add_argument("--n", type=int, required=True, help="number of variables (>= 3)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = args.func(args)
        status = 0
    except LndError as exc:
        text = f"ERROR {exc.code}: {exc}"
        status = 2 if exc.code in ("usage", "syntax") else 1
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
