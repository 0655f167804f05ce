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

``main(argv)`` builds a parser that knows every subcommand name, but gives
options, arguments and ``-h`` only to the subcommand named by ``argv[0]``;
every other name is a bare parser (no arguments, no ``-h``) that never
parses.  When ``argv[0]`` names none (no arguments, ``-h``, an unknown name)
every subcommand gets its arguments and ``-h``.  Usage, help and error output
are the same either way.  The parser is built anew on each call.
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
from .errors import LndError, UsageError
from .invariants import (
    enumerate_generators,
    graded_kernel_oracle,
    weitzenboeck_invariants,
)
from .parsing import (
    CommCarrier,
    FreeCarrier,
    WeylCarrier,
    parse_element,
    parse_images,
    parse_list,
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
    poly = args.poly is not None
    free = args.free is not None
    if sum((weyl, poly, free)) != 1:
        raise UsageError("select exactly one carrier: --n/--m, --poly, or --free")
    if args.laurent and not poly:
        raise UsageError("--laurent needs the --poly carrier")
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


def _read_indexed_lines(stream, sig: WeylSignature, series: bool) -> dict:
    """Table lines "a1,..,as : expr", or series lines "d^(a1,..,as): expr" as
    DiffOpSeries prints them (its empty form "0" skipped) -> {alpha: element};
    a multi-index given twice is refused."""
    carrier = WeylCarrier(sig)
    opening, closing = (DiffOpSeries.head + "(", ")") if series else ("", "")
    out = {}
    for raw in stream.read().splitlines():
        line = raw.strip()
        if not line or (series and line == DiffOpSeries.empty):
            continue
        left, sep, right = line.partition(":")
        left = left.strip()
        if not sep or not (left.startswith(opening) and left.endswith(closing)):
            raise UsageError(f"series line {line!r}; expected \"{opening}a1,..): expr\""
                             if series else f"table line {line!r} is missing ':'")
        text = left[len(opening):len(left) - len(closing)]
        alpha = _parse_index_list(text, sig.s)
        if alpha in out:
            raise UsageError(f"multi-index {text.strip()!r} given twice")
        out[alpha] = parse_element(right.strip(), carrier)
    return out


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
    table = _read_indexed_lines(sys.stdin, sig, series=False)
    return str(map_to_series(sig, table, args.max_order))


def _cmd_apply_series(args) -> str:
    sig = _signature_from(args)
    coeffs = _read_indexed_lines(sys.stdin, sig, series=True)
    series = DiffOpSeries(sig, coeffs)
    element = parse_element(args.expr, WeylCarrier(sig))
    return str(series_apply(series, element))


def _cmd_invariants(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    if args.gens is None:
        gens = [carrier.variable(i) for i in range(carrier.count)]
    else:
        gens = parse_list(args.gens, carrier, "--gens")
    witnesses = enumerate_generators(system, gens, args.word_bound, args.degree_bound)
    if not witnesses:
        return "(none)"
    return "\n".join(w.describe() for w in witnesses)


def _cmd_relation(args) -> str:
    carrier = _carrier_from(args)
    system = standard_system(carrier.constant(1), args.cap)
    return "true" if system.phi(parse_element(args.expr, carrier)).is_zero() else "false"


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


def _arg(name: str, **kwargs) -> tuple[str, dict]:
    return name, kwargs


_WEYL = (
    _arg("--n", type=int, default=None, help="Weyl pairs of A(n,m)"),
    _arg("--m", type=int, default=None, help="central variables of A(n,m)"),
)
_ANY = _WEYL + (
    _arg("--poly", type=int, default=None, metavar="V",
         help="commutative carrier with V variables"),
    _arg("--laurent", type=str, default="", metavar="LIST",
         help="1-based invertible variable indices (with --poly)"),
    _arg("--free", type=int, default=None, metavar="K",
         help="free algebra on K generators"),
)
_CAP = _arg("--cap", type=int, default=NILPOTENCE_CAP, help="nilpotence cap")
_EXPR = _arg("expr")
_AUT = _arg("--aut", required=True)

# name -> (handler, help, carrier flags, arguments), in the order of the
# top-level usage and help
_COMMANDS = {
    "mul": (_cmd_mul, "normal-ordered product of two expressions", _ANY,
            (_arg("a"), _arg("b"))),
    "partial": (_cmd_partial, "i-th partial derivative", _ANY,
                (_arg("--i", type=int, required=True, help="1-based direction"), _EXPR)),
    "project": (_cmd_project, "projection onto the invariant subalgebra", _ANY,
                (_arg("--map", choices=("phi", "psi"), default="phi"), _CAP, _EXPR)),
    "taylor": (_cmd_taylor, "Taylor coefficients over the coordinate slices", _ANY,
               (_CAP, _EXPR)),
    "invert": (_cmd_invert, "inverse of an automorphism of A(n,m)", _WEYL,
               (_arg("--aut", required=True, help='"x1 -> expr; x2 -> expr; ..."'),)),
    "verify": (_cmd_verify, "check the defining relations of images", _WEYL, (_AUT,)),
    "compose": (_cmd_compose, "composition: --aut applied after --aut2", _WEYL,
                (_AUT, _arg("--aut2", required=True))),
    "log-aut": (_cmd_log_aut, "logarithm of a unipotent automorphism", _WEYL, (_AUT,)),
    "exp-der": (_cmd_exp_der, "exponential of a locally nilpotent derivation", _WEYL,
                (_arg("--der", required=True, help='"x1 -> expr; ..." generator values'),)),
    "aut-series": (_cmd_aut_series, "differential operator series of an "
                   "automorphism of A(n,m)", _WEYL,
                   (_AUT, _arg("--max-order", type=int, default=6))),
    "map-series": (_cmd_map_series, "solve for the series of a linear map "
                   "tabulated on stdin as lines \"a1,..,as : expr\"", _WEYL,
                   (_arg("--max-order", type=int, required=True),)),
    "apply-series": (_cmd_apply_series, "apply a series read from stdin "
                     "(lines \"d^(a1,..): expr\") to an expression", _WEYL, (_EXPR,)),
    "invariants": (_cmd_invariants, "enumerate invariant-ring generator "
                   "witnesses over the coordinate system", _ANY,
                   (_arg("--gens", type=str, default=None,
                         help="semicolon-separated generating set (default: variables)"),
                    _arg("--word-bound", type=int, default=2),
                    _arg("--degree-bound", type=int, default=6), _CAP)),
    "relation": (_cmd_relation, "does phi map the expression to zero? "
                 "(slice-ideal membership on commutative carriers only)", _ANY,
                 (_CAP, _EXPR)),
    "kernel": (_cmd_kernel, "exact basis of the joint kernel on one "
               "homogeneous component", _ANY,
               (_arg("--degree", type=int, required=True), _CAP)),
    "weitzenboeck": (_cmd_weitzenboeck, "invariants of the localized "
                     "triangular derivation x1 d2 + ... + x_{n-1} d_n", (),
                     (_arg("--n", type=int, required=True,
                           help="number of variables (>= 3)"),)),
}


class _Parser(argparse.ArgumentParser):
    """Reads a token with a single leading '-' other than -h as an argument, so
    an expression may start with a minus sign (every option is -h or --name)."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[:2] != "--" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


def _build_parser(selected: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand name; only ``selected`` gets its
    arguments and ``-h``, or every subcommand when ``selected`` is None.
    The other names are bare parsers: registered for usage, help and
    ``invalid choice``, never parsing."""
    parser = _Parser(
        prog="lndcalc",
        description="Exact calculator for algebras with commuting locally "
        "nilpotent derivations: projections, Taylor decompositions, "
        "automorphism inversion, exp/log, operator series, invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, carrier, arguments) in _COMMANDS.items():
        if selected not in (None, name):
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", type=str, default=None,
                       help="also write the output text to this file")
        for flag, kwargs in carrier + arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    selected = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(selected).parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text = args.func(args)
        status = 0
    except LndError as exc:
        text = f"ERROR {exc.code}: {exc}"
        status = 2 if exc.code in ("usage", "syntax") else 1
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
