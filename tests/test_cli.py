"""End-to-end command line behavior: goldens, exit codes, stdin tables."""

import argparse
import io

import pytest

import lndcalc.cli
from lndcalc import WeylSignature, aut_verify, parse_element, parse_images
from lndcalc.cli import _build_parser, main
from lndcalc.parsing import WeylCarrier
from cli_cases import ARGV, COLUMNS, NAMES


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


# -- documented end-to-end goldens ---------------------------------------------


def test_golden_invert(capsys):
    code, out = run(capsys, [
        "invert", "--n", "1", "--m", "0",
        "--aut", "x1 -> x1; x2 -> x2 + x1^2",
    ])
    assert code == 0
    assert out == "x1 -> x1; x2 -> x2 - x1^2\n"


def test_golden_weitzenboeck(capsys):
    code, out = run(capsys, ["weitzenboeck", "--n", "3"])
    assert code == 0
    assert out == "phi(x3) = x3 - 1/2*x2^2*x1^-1\n"


def test_golden_failed_verification(capsys):
    code, out = run(capsys, [
        "verify", "--n", "1", "--m", "0",
        "--aut", "x1 -> x1; x2 -> x2 + x2^2",
    ])
    assert code == 1
    assert out == "ERROR relation: [s(x2),s(x1)] != 1\n"


def test_verify_accepts_a_bracket_within_the_cap(capsys):
    # the product x2 * x1^64 has degree 65, but every bracket of the images
    # (here [x2 + x1^64, x1] = 1) stays within the degree cap
    code, out = run(capsys, [
        "verify", "--n", "1", "--m", "0",
        "--aut", "x1 -> x1; x2 -> x2 + x1^64",
    ])
    assert (code, out) == (0, "x1 -> x1; x2 -> x2 + x1^64\n")


# -- arithmetic commands -------------------------------------------------------------


def test_mul(capsys):
    assert run(capsys, ["mul", "--n", "1", "--m", "0", "x2", "x1"]) == \
        (0, "x1*x2 + 1\n")
    assert run(capsys, ["mul", "--poly", "2", "x1 + x2", "x1 - x2"]) == \
        (0, "-x2^2 + x1^2\n")
    assert run(capsys, ["mul", "--free", "2", "x1", "x2"]) == (0, "x1*x2\n")
    assert run(capsys, ["mul", "--poly", "2", "--laurent", "1",
                        "x1^-1*x2^2", "x1"]) == (0, "x2^2\n")


def test_project_rejects_a_derivation_moving_a_unit(capsys):
    code, out = run(capsys, ["project", "--poly", "1", "--laurent", "1", "x1^-1"])
    assert code == 1
    assert out.startswith("ERROR domain: derivation 1 does not kill the unit x1")


def test_partial(capsys):
    assert run(capsys, ["partial", "--poly", "2", "--i", "1", "x1^2*x2"]) == \
        (0, "2*x1*x2\n")
    assert run(capsys, ["partial", "--free", "2", "--i", "1", "x1*x2*x1"]) == \
        (0, "x2*x1 + x1*x2\n")
    code, out = run(capsys, ["partial", "--poly", "2", "--i", "3", "x1"])
    assert code == 2
    assert out.startswith("ERROR usage:")


def test_project_and_taylor(capsys):
    assert run(capsys, ["project", "--n", "1", "--m", "0", "x1*x2 + 1"]) == \
        (0, "1\n")
    assert run(capsys, ["project", "--map", "psi", "--poly", "2", "x1^2 + 7"]) == \
        (0, "7\n")
    assert run(capsys, ["taylor", "--n", "1", "--m", "0", "x2*x1"]) == \
        (0, "alpha=(0,0): 1\nalpha=(1,1): 1\n")


def test_project_taylor_and_invariants_share_the_cap_rule(capsys):
    # x1^2 has order 2: a nonzero entry of order >= cap is refused by phi,
    # psi, the Taylor table and the witness walk alike
    refused = (1, "ERROR cap: iterated derivatives of order beyond cap 2\n")
    for argv in (["project", "x1^2"], ["project", "--map", "psi", "x1^2"],
                 ["taylor", "x1^2"], ["invariants", "--gens", "x1^2"]):
        assert run(capsys, argv[:1] + ["--poly", "1", "--cap", "2"] + argv[1:]) == refused
    assert run(capsys, ["project", "--poly", "1", "--cap", "3", "x1^2"]) == (0, "0\n")
    assert run(capsys, ["taylor", "--poly", "1", "--cap", "3", "x1^2"]) == \
        (0, "alpha=(2): 1\n")


def test_on_two_directions_phi_caps_each_power_and_the_table_the_total_order(capsys):
    # x1*x2 needs d_1 and d_2 once each: phi_1 and phi_2 stay within cap 2,
    # while the table's entry d_1 d_2 (x1*x2) = 1 has total order 2
    refused = (1, "ERROR cap: iterated derivatives of order beyond cap 2\n")
    flags = ["--poly", "2", "--cap", "2"]
    assert run(capsys, ["project"] + flags + ["x1*x2"]) == (0, "0\n")
    assert run(capsys, ["taylor"] + flags + ["x1*x2"]) == refused
    assert run(capsys, ["invariants"] + flags + ["--gens", "x1*x2"]) == refused


def test_verify_and_compose(capsys):
    code, out = run(capsys, [
        "verify", "--n", "0", "--m", "2", "--aut", "x1 -> x1 + 1; x2 -> x2 + x1",
    ])
    assert (code, out) == (0, "x1 -> x1 + 1; x2 -> x2 + x1\n")

    code, out = run(capsys, [
        "compose", "--n", "0", "--m", "1",
        "--aut", "x1 -> x1 + 2", "--aut2", "x1 -> x1 + 3",
    ])
    assert (code, out) == (0, "x1 -> x1 + 5\n")


def test_jacobian_failure_exits_1(capsys):
    code, out = run(capsys, [
        "verify", "--n", "0", "--m", "2", "--aut", "x1 -> x1^2; x2 -> x2",
    ])
    assert code == 1
    assert out == "ERROR jacobian: Delta = 2*x1 is not a nonzero constant\n"


def test_delta_names_the_central_generators_of_the_signature(capsys):
    code, out = run(capsys, [
        "verify", "--n", "1", "--m", "1", "--aut", "x1 -> x1; x2 -> x2; x3 -> x3^2",
    ])
    assert (code, out) == (1, "ERROR jacobian: Delta = 2*x3 is not a nonzero constant\n")


def test_jacobian_products_fall_under_the_degree_cap(capsys):
    # Delta = 1 - 35^2 x1^34 x2^34 is formed by a product of degree 68
    code, out = run(capsys, [
        "verify", "--n", "0", "--m", "2", "--aut", "x1 -> x1 + x2^35; x2 -> x2 + x1^35",
    ])
    assert (code, out) == (
        1, "ERROR cap: degree cap 64 exceeded by a normal form of degree 68\n")
    # every Jacobian product of this automorphism stays within the cap
    code, out = run(capsys, [
        "verify", "--n", "0", "--m", "2",
        "--aut", "x1 -> x1 + (x2 + x1^32)^2; x2 -> x2 + x1^32",
    ])
    assert (code, out) == (0, "x1 -> x2^2 + 2*x1^32*x2 + x1^64 + x1; x2 -> x2 + x1^32\n")


def test_log_and_exp(capsys):
    code, out = run(capsys, [
        "log-aut", "--n", "0", "--m", "2", "--aut", "x1 -> x1 + 1; x2 -> x2 + x1",
    ])
    assert (code, out) == (0, "x1 -> 1; x2 -> x1 - 1/2\n")

    code, out = run(capsys, [
        "exp-der", "--n", "0", "--m", "2", "--der", "x1 -> 1; x2 -> x1 - 1/2",
    ])
    assert (code, out) == (0, "x1 -> x1 + 1; x2 -> x2 + x1\n")


def test_aut_series(capsys):
    code, out = run(capsys, [
        "aut-series", "--n", "0", "--m", "1", "--aut", "x1 -> 2*x1",
        "--max-order", "3",
    ])
    assert code == 0
    assert out == (
        "d^(0): 1\n"
        "d^(1): x1\n"
        "d^(2): 1/2*x1^2\n"
        "d^(3): 1/6*x1^3\n"
    )


def test_map_series_from_stdin(capsys, monkeypatch):
    table = "0 : 1\n1 : x1 + 1\n2 : x1^2 + 2*x1 + 1\n3 : x1^3 + 3*x1^2 + 3*x1 + 1\n"
    code, out = run(capsys, ["map-series", "--n", "0", "--m", "1",
                             "--max-order", "3"],
                    stdin=table, monkeypatch=monkeypatch)
    assert code == 0
    assert out == (
        "d^(0): 1\n"
        "d^(1): 1\n"
        "d^(2): 1/2\n"
        "d^(3): 1/6\n"
    )


def test_apply_series_from_stdin(capsys, monkeypatch):
    series = "d^(0): 1\nd^(1): 1\nd^(2): 1/2\n"
    code, out = run(capsys, ["apply-series", "--n", "0", "--m", "1", "x1^2"],
                    stdin=series, monkeypatch=monkeypatch)
    assert (code, out) == (0, "x1^2 + 2*x1 + 1\n")


@pytest.mark.parametrize("n, m, images, expr", [
    (0, 2, "x1 -> x1 + 1; x2 -> x2 + x1^2", "x1^2*x2 + 3*x2^2 - x1"),
    (0, 2, "x1 -> x1 - 2; x2 -> x2 + 1/2*x1^3 - x1", "x2^3 + x1*x2 + 1"),
    (1, 0, "x1 -> x1; x2 -> x2 + x1^2", "x2^2*x1 + 3*x2 - x1^2"),
    (1, 0, "x1 -> x1 + x2^2 - 1; x2 -> x2", "x2*x1*x2 + x1^3 + 2"),
    (1, 1, "x1 -> x1 + x3^3; x2 -> x2 + x1^2*x3 - x1; x3 -> x3 + 1", "x2*x3*x1 + x3^2 - x2"),
])
def test_aut_series_output_is_apply_series_input(capsys, monkeypatch, n, m, images, expr):
    # truncated at order 3 the series is exact on expressions of degree <= 3
    flags = ["--n", str(n), "--m", str(m)]
    code, series = run(capsys, ["aut-series", *flags, "--aut", images,
                                "--max-order", "3"])
    assert code == 0
    code, out = run(capsys, ["apply-series", *flags, expr],
                    stdin=series, monkeypatch=monkeypatch)
    carrier = WeylCarrier(WeylSignature(n, m))
    aut = aut_verify(carrier.signature, parse_images(images, carrier))
    assert (code, out) == (0, f"{aut.apply(parse_element(expr, carrier))}\n")


def test_invariants_listing(capsys):
    code, out = run(capsys, ["invariants", "--free", "2", "--word-bound", "1"])
    assert code == 0
    assert out == (
        "z - (1,0) y1 : 1\n"
        "x ad(x1) - x2 : -x2*x1 + x1*x2\n"
        "x ad(x2) - x1 : x2*x1 - x1*x2\n"
    )
    code, out = run(capsys, ["invariants", "--poly", "2", "--gens", "x1; x2",
                             "--word-bound", "1"])
    assert (code, out) == (0, "z - (1,0) y1 : 1\n")


@pytest.mark.parametrize("gens, line", [
    ("", "ERROR usage: --gens is empty"),
    (" ", "ERROR usage: --gens is empty"),
    (";", "ERROR usage: --gens entry 1 is empty"),
    ("x1; ", "ERROR usage: --gens entry 2 is empty"),
    ("x1;; x2", "ERROR usage: --gens entry 2 is empty"),
    # syntax offsets count from the start of the flag's text
    ("x1; x2 +", "ERROR syntax: expected a number, variable, or '(' (at offset 8)"),
    ("x1; x2 )", "ERROR syntax: unexpected trailing input (at offset 7)"),
    ("x1; x3", "ERROR syntax: variable x3 out of range (carrier has 2 generators) "
               "(at offset 4)"),
])
def test_invariants_gens_errors(capsys, gens, line):
    argv = ["invariants", "--poly", "2", "--word-bound", "1", "--gens", gens]
    assert run(capsys, argv) == (2, line + "\n")


def test_relation_answers_without_failing(capsys):
    assert run(capsys, ["relation", "--free", "2", "x1*x2 - x2*x1"]) == \
        (0, "false\n")
    assert run(capsys, ["relation", "--free", "2",
                        "x1*x2 - x2*x1 - (x1*x2 - x2*x1)"]) == (0, "true\n")
    assert run(capsys, ["relation", "--poly", "2", "x1*x2"]) == (0, "true\n")


def test_relation_tests_phi_not_left_ideal_membership(capsys):
    # x2*x1 lies in the left ideal F_2*x1, yet phi(x2*x1) = x2*x1 - x1*x2
    assert run(capsys, ["relation", "--free", "2", "x2*x1"]) == (0, "false\n")
    # on A(1,0) phi(x1*x2) = 0 but phi(x2*x1) = phi(x1*x2 + 1) = 1
    assert run(capsys, ["relation", "--n", "1", "--m", "0", "x1*x2"]) == (0, "true\n")
    assert run(capsys, ["relation", "--n", "1", "--m", "0", "x2*x1"]) == (0, "false\n")


def test_kernel(capsys):
    assert run(capsys, ["kernel", "--free", "2", "--degree", "2"]) == \
        (0, "x2*x1 - x1*x2\n")
    assert run(capsys, ["kernel", "--free", "2", "--degree", "1"]) == \
        (0, "(empty)\n")
    code, out = run(capsys, ["kernel", "--free", "2", "--degree", "3"])
    assert code == 0
    assert out.count("\n") == 2


def test_weitzenboeck_larger_and_bad_n(capsys):
    code, out = run(capsys, ["weitzenboeck", "--n", "4"])
    assert code == 0
    assert out == (
        "phi(x3) = x3 - 1/2*x2^2*x1^-1\n"
        "phi(x4) = x4 - x2*x3*x1^-1 + 1/3*x2^3*x1^-2\n"
    )
    code, out = run(capsys, ["weitzenboeck", "--n", "2"])
    assert code == 2
    assert out.startswith("ERROR usage:")


# -- error handling and plumbing -----------------------------------------------------


def test_syntax_errors_exit_2(capsys):
    code, out = run(capsys, ["mul", "--poly", "1", "x1 +", "1"])
    assert code == 2
    assert out.startswith("ERROR syntax:")
    assert "offset" in out

    code, out = run(capsys, ["mul", "--poly", "1", "x1^-1", "1"])
    assert code == 2
    assert out.startswith("ERROR syntax:")


def test_an_expression_may_start_with_a_minus(capsys):
    # a token with a single leading '-' other than -h is an argument; the
    # double-dash and leading-space forms still read the same
    for argv in (["mul", "--poly", "1", "-x1^2", "1"],
                 ["mul", "--poly", "1", "--", "-x1^2", "1"],
                 ["mul", "--poly", "1", " -x1^2", "1"]):
        assert run(capsys, argv) == (0, "-x1^2\n")
    # so an option's value may be such a token too, and is checked as one
    code = main(["taylor", "--poly", "1", "--cap", "-x", "x1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith("error: argument --cap: invalid int value: '-x'\n")


def test_carrier_selection_is_mandatory_and_exclusive(capsys):
    code, out = run(capsys, ["mul", "x1", "x1"])
    assert code == 2
    assert "exactly one carrier" in out
    code, out = run(capsys, ["mul", "--poly", "2", "--free", "2", "x1", "x1"])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


# -- parser construction -------------------------------------------------------------

def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", NAMES)
def test_a_selected_build_prints_the_help_of_the_full_build(name):
    # the full build is the oracle; help text varies across Python versions
    full, selected = _build_parser(None), _build_parser(name)
    assert selected.format_help() == full.format_help()
    assert (_subparsers(selected)[name].format_help()
            == _subparsers(full)[name].format_help())
    for other, sub in _subparsers(selected).items():
        if other != name:
            assert sub._actions == [], other


@pytest.mark.parametrize("columns", COLUMNS)
@pytest.mark.parametrize("argv", ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_selected_and_full_builds_print_the_same(capsys, monkeypatch, argv, columns):
    # the full build is the oracle for every help, usage and parse error
    monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    selected = main(argv), capsys.readouterr()
    build = lndcalc.cli._build_parser
    monkeypatch.setattr(lndcalc.cli, "_build_parser", lambda _: build(None))
    assert (main(argv), capsys.readouterr()) == selected


def test_unrecognized_arguments_list_every_subcommand(capsys):
    assert main(["mul", "--poly", "3", "x1", "x2", "x3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "{" + ",".join(NAMES) + "}" in captured.err
    assert captured.err.endswith("error: unrecognized arguments: x3\n")


def test_main_reads_sys_argv_and_selects_its_subcommand(capsys, monkeypatch):
    built = []
    build = lndcalc.cli._build_parser
    monkeypatch.setattr(lndcalc.cli, "_build_parser",
                        lambda selected: built.append(selected) or build(selected))
    monkeypatch.setattr("sys.argv", ["lndcalc", "mul", "--poly", "1", "x1", "x1"])
    assert run(capsys, None) == (0, "x1^2\n")
    assert main(["frobnicate"]) == 2
    assert main(["-h"]) == 0
    assert built == ["mul", None, None]


def test_out_flag_writes_the_same_text(capsys, tmp_path):
    target = tmp_path / "result.txt"
    code, out = run(capsys, ["mul", "--poly", "1", "--out", str(target),
                             "x1", "x1"])
    assert (code, out) == (0, "x1^2\n")
    assert target.read_text() == "x1^2\n"


def test_cap_flag_is_honored(capsys):
    code, out = run(capsys, ["project", "--poly", "2", "--cap", "64", "x1^3"])
    assert (code, out) == (0, "0\n")


def test_negative_signature_is_a_usage_error(capsys):
    for n, m in (("1", "-1"), ("-1", "5")):
        code, out = run(capsys, ["mul", "--n", n, "--m", m, "x1", "x1"])
        assert (code, out) == (2, "ERROR usage: --n and --m must be non-negative\n")


def test_negative_bounds_are_usage_errors(capsys, monkeypatch):
    code, out = run(capsys, ["project", "--poly", "1", "--cap", "-1", "x1"])
    assert (code, out) == (2, "ERROR usage: nilpotence cap -1 is negative\n")
    code, out = run(capsys, ["aut-series", "--n", "0", "--m", "1",
                             "--aut", "x1 -> x1 + 1", "--max-order", "-1"])
    assert (code, out) == (2, "ERROR usage: max order -1 is negative\n")
    code, out = run(capsys, ["map-series", "--n", "0", "--m", "1",
                             "--max-order", "-1"], stdin="", monkeypatch=monkeypatch)
    assert (code, out) == (2, "ERROR usage: max order -1 is negative\n")
    for flag in ("--word-bound", "--degree-bound"):
        code, out = run(capsys, ["invariants", "--free", "2", flag, "-1"])
        assert (code, out) == (
            2, "ERROR usage: word and degree bounds must be non-negative\n")


# one row per outside-input check: (argv, stdin, exit code, the printed line)
INPUT_CHECKS = {
    "laurent-entry": (["mul", "--poly", "2", "--laurent", "a", "x1", "x2"], "", 2,
                      "ERROR usage: bad --laurent entry 'a'; use 1-based indices"),
    "laurent-range": (["mul", "--poly", "2", "--laurent", "3", "x1", "x2"], "", 2,
                      "ERROR usage: --laurent index 3 out of range 1..2"),
    "laurent-weyl": (["mul", "--n", "1", "--laurent", "1", "x1", "x2"], "", 2,
                     "ERROR usage: --laurent needs the --poly carrier"),
    "laurent-free": (["mul", "--free", "1", "--laurent", "1", "x1", "x1"], "", 2,
                     "ERROR usage: --laurent needs the --poly carrier"),
    "poly-0": (["mul", "--poly", "0", "x1", "x1"], "", 2,
               "ERROR usage: --poly needs at least one variable"),
    "free-0": (["mul", "--free", "0", "x1", "x1"], "", 2,
               "ERROR usage: --free needs at least one generator"),
    "signature-0": (["mul", "--n", "0", "--m", "0", "x1", "x1"], "", 2,
                    "ERROR usage: the signature needs at least one generator (--n/--m)"),
    "multi-index": (["map-series", "--n", "0", "--m", "1", "--max-order", "0"], "a : 1\n", 2,
                    "ERROR usage: bad multi-index 'a'"),
    "table-colon": (["map-series", "--n", "0", "--m", "1", "--max-order", "0"], "0 1\n", 2,
                    "ERROR usage: table line '0 1' is missing ':'"),
    "table-twice": (["map-series", "--n", "0", "--m", "1", "--max-order", "1"],
                    "0 : 1\n0 : 2\n1 : x1\n", 2, "ERROR usage: multi-index '0' given twice"),
    "table-beyond": (["map-series", "--n", "0", "--m", "1", "--max-order", "1"],
                     "0 : 1\n1 : x1 + 1\n5 : 7\n", 2,
                     "ERROR usage: linear map table has the monomial (5,) beyond max order 1"),
    "series-line": (["apply-series", "--n", "0", "--m", "1", "x1"], "d^0: 1\n", 2,
                    "ERROR usage: series line 'd^0: 1'; expected \"d^(a1,..): expr\""),
    "series-twice": (["apply-series", "--n", "0", "--m", "1", "x1"], "d^(0): 1\nd^( 0 ): 2\n", 2,
                     "ERROR usage: multi-index '0' given twice"),
    # the empty series prints as "0", and reads back as the zero series
    "series-empty": (["apply-series", "--n", "0", "--m", "1", "x1"], "0\n", 0, "0"),
    "leading-minus": (["mul", "--poly", "1", "-x1^2", "1"], "", 0, "-x1^2"),
    "leading-minus-after-option": (["partial", "--poly", "1", "--i", "1", "-x1^2"], "", 0,
                                   "-2*x1"),
    "leading-minus-twice": (["mul", "--poly", "1", "-1/2", "-x1"], "", 0, "1/2*x1"),
    # the offset counts from the first character typed, the minus sign
    "leading-minus-syntax": (["taylor", "--poly", "1", "-x1^"], "", 2,
                             "ERROR syntax: expected an integer exponent (at offset 4)"),
    "slash": (["mul", "--poly", "1", "1/", "x1"], "", 2,
              "ERROR syntax: expected digits after '/' (at offset 2)"),
    "x0": (["mul", "--poly", "1", "x0", "x1"], "", 2,
           "ERROR syntax: variable indices start at x1 (at offset 0)"),
    "images-semicolon": (["verify", "--n", "1", "--m", "0", "--aut", "x1 -> x1 x2"], "", 2,
                         "ERROR syntax: missing '*' between factors (at offset 9)"),
    "relation-momentum-coordinate": (
        ["verify", "--n", "2", "--m", "0", "--aut", "x1 -> x1; x2 -> x2 + x1; x3 -> x3; x4 -> x4"],
        "", 1, "ERROR relation: [s(x3),s(x2)] != 0"),
    "relation-coordinates": (
        ["verify", "--n", "2", "--m", "0", "--aut", "x1 -> x1; x2 -> x2 + x3; x3 -> x3; x4 -> x4"],
        "", 1, "ERROR relation: [s(x1),s(x2)] != 0"),
    "relation-momenta": (
        ["verify", "--n", "2", "--m", "0", "--aut", "x1 -> x1; x2 -> x2; x3 -> x3 + x2; x4 -> x4"],
        "", 1, "ERROR relation: [s(x3),s(x4)] != 0"),
    "not-central": (["verify", "--n", "1", "--m", "1", "--aut", "x1 -> x1; x2 -> x2; x3 -> x3 + x1"],
                    "", 1, "ERROR relation: s(x3) not central"),
    "exp-not-nilpotent": (["exp-der", "--n", "0", "--m", "1", "--der", "x1 -> x1"], "", 1,
                          "ERROR cap: derivation is not nilpotent on x1 within cap 256"),
    "log-not-unipotent": (["log-aut", "--n", "0", "--m", "1", "--aut", "x1 -> 2*x1"], "", 1,
                          "ERROR cap: (s - id) is not nilpotent on x1 within cap 256"),
}


@pytest.mark.parametrize("argv, stdin, code, line", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_outside_input_checks(capsys, monkeypatch, argv, stdin, code, line):
    assert run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch) == (code, line + "\n")


@pytest.mark.parametrize("argv", [
    ["verify"], ["invert"], ["compose", "--aut2", "x1 -> x1; x2 -> x2"], ["log-aut"],
    ["aut-series"],
], ids=lambda argv: argv[0])
def test_every_automorphism_command_refuses_a_non_automorphism(capsys, argv):
    # the images are checked when the automorphism is built, before any work
    code, out = run(capsys, argv + ["--n", "0", "--m", "2", "--aut", "x1 -> x1^2; x2 -> x2"])
    assert (code, out) == (1, "ERROR jacobian: Delta = 2*x1 is not a nonzero constant\n")
