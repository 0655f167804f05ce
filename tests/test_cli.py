"""End-to-end command line behavior: goldens, exit codes, stdin tables."""

import io

import pytest

from lndcalc.cli import main


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


def test_a_leading_minus_needs_a_double_dash(capsys):
    # argparse reads "-x1^2" as an option, so the second operand goes missing
    code = main(["mul", "--poly", "1", "-x1^2", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.endswith("error: the following arguments are required: b\n")
    assert run(capsys, ["mul", "--poly", "1", "--", "-x1^2", "1"]) == (0, "-x1^2\n")
    assert run(capsys, ["mul", "--poly", "1", " -x1^2", "1"]) == (0, "-x1^2\n")


def test_carrier_selection_is_mandatory_and_exclusive(capsys):
    code, out = run(capsys, ["mul", "x1", "x1"])
    assert code == 2
    assert "exactly one carrier" in out
    code, out = run(capsys, ["mul", "--poly", "2", "--free", "2", "x1", "x1"])
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


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
