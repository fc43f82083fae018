"""Command-line driver: subcommands, exit codes, determinism, coherence."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qsp.calculus
import qsp.cli
import qsp.covariance
from qsp.algebra import (ITH, PTH, PX, TH, X, CalculusType, InconsistentType,
                         NonInvertibleRule, RuleTable, build_rule_table)
from qsp.cli import run
from qsp.coeffs import DivisionByZero, QspError


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, err = invoke(capsys, "normalize", "--type", "II", "px*x")
    assert code == 0
    assert out.strip() == "1 + r*x*px + (r - 1)*th*pth"


def test_normalize_syntax_error(capsys):
    code, out, err = invoke(capsys, "normalize", "--type", "II", "px*!")
    assert code == 2
    assert "error" in err


def test_normalize_zero_denominator_literal(capsys):
    for text, at in (("1/0", 0), ("x*3/00", 2)):
        code, out, err = invoke(capsys, "normalize", "--type", "II", text)
        assert code == 2 and out == ""
        assert f"position {at}" in err


def test_check_rhs_error_position_counts_from_expression_start(capsys):
    for text, at in (("x == (x", 7), ("x*th == th*x*)", 13), ("x == x == x", 7)):
        code, out, err = invoke(capsys, "check", "--type", "II", text)
        assert code == 2 and out == ""
        assert f"(at position {at})" in err


def test_normalize_divisor_of_more_than_one_term_exits_2(capsys):
    # coefficients are Laurent polynomials: a divisor must be a single term
    for text in ("x/(1+r)", "(1+r)^-1", "(q^2-1)/(q-1)*x", "x/(q - r)^3"):
        code, out, err = invoke(capsys, "normalize", "--type", "II", text)
        assert code == 2 and out == "", text
        assert err.startswith("error: division by a coefficient of ") and err.count("\n") == 1, err
        assert "Traceback" not in err
    for text, want in (("1/3*x", "1/3*x"), ("x/(2*r)", "1/2*r^-1*x"),
                       ("(q^2-q)/(3*q)*x", "(1/3*q - 1/3)*x")):
        code, out, _ = invoke(capsys, "normalize", "--type", "II", text)
        assert (code, out) == (0, want + "\n"), text


def test_normalize_overlong_literal(capsys):
    # past CPython's int string-conversion limit (4300 digits): an input error
    for text, at in (("1" * 5000, 0), ("x*3/" + "7" * 5000, 2)):
        code, out, err = invoke(capsys, "normalize", "--type", "II", text)
        assert code == 2 and out == ""
        assert f"position {at}" in err


def test_normalize_result_too_large(capsys):
    # a coefficient past CPython's int string-conversion limit (4300 digits)
    # cannot be printed: a reported error, not an internal one
    big = "7" * 3000
    for text in ("10^5000", f"{big}*{big}"):
        code, out, err = invoke(capsys, "normalize", "--type", "II", text)
        assert code == 2 and out == ""
        assert "too large" in err
    # an exponent past 2^62 (coeffs.EXPONENT_LIMIT) cannot be stored: it is
    # reported, never wrapped around into another monomial; 10^12 can
    code, out, err = invoke(capsys, "normalize", "--type", "II",
                            "(((((q^10000)^10000)^10000)^10000)^10000)*x")
    assert code == 2 and out == "" and err.startswith("error: result too large")
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "((q^10000)^10000)^10000*x")
    assert code == 0 and out == "q^1000000000000*x\n"
    # a monomial stores each exponent in [-2^30, 2^30)
    # (algebra.MONO_EXPONENT_LIMIT): 10^12 cannot be stored, 10^8 can
    code, out, err = invoke(capsys, "normalize", "--type", "II", "((x^10000)^10000)^10000")
    assert code == 2 and out == "" and err.startswith("error: result too large")
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "(x^10000)^10000")
    assert code == 0 and out == "x^100000000\n"


def test_normalize_long_right_x_power(capsys):
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "px*x^10000")
    assert code == 0
    assert out.rstrip().endswith(" + r^10000*x^10000*px + (r^10000 - 1)*x^9999*th*pth")
    # a long left power of any generator splits in log depth too
    for text, want in (("dth^3000*dx", "r^3000*q^-3000*dx*dth^3000"),
                       ("ith^3000*dx", "q^3000*r^-3000*dx*ith^3000"),
                       ("px^3000*th", "r^3000*q^-3000*th*px^3000")):
        code, out, _ = invoke(capsys, "normalize", "--type", "II", text)
        assert code == 0 and out.strip() == want, text
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "px^400*x")
    assert code == 0
    assert out.startswith("(r^399 + r^398 + ")
    assert out.rstrip().endswith(
        " + r + 1)*px^399 + r^400*x*px^400 + (r^799 - r^399)*q^-399*th*px^399*pth")


def test_check_pass_and_fail(capsys):
    code, out, _ = invoke(capsys, "check", "--type", "II", "H*Nb == Nb*H")
    assert code == 0 and "PASS" in out
    code, out, _ = invoke(capsys, "check", "--type", "II", "H*Nb == 2*Nb*H")
    assert code == 1 and "FAIL" in out


def test_act(capsys):
    code, out, _ = invoke(capsys, "act", "--type", "II", "H", "x^2*th")
    assert code == 0
    assert out.strip() == "(r^2 + r + 1)*x^2*th"


def test_pair(capsys):
    code, out, _ = invoke(capsys, "pair", "--type", "II", "T", "x")
    assert code == 0 and out.strip() == "r"


def test_pair_mixed_dual_element(capsys):
    # at type III (Q = p, Q11 = q*p): Nb[x th] = Q11 x^2, so
    # <T^-2 K^3 Nb, x th> = Q^-4 Q11^7, and <K, x th> = 0; on x only -K pairs
    code, out, _ = invoke(capsys, "pair", "--type", "III", "T^-2*K^3*Nb - K", "x*th")
    assert code == 0 and out == "q^7*p^3\n"
    code, out, _ = invoke(capsys, "pair", "--type", "III", "T^-2*K^3*Nb - K", "x")
    assert code == 0 and out == "-q*p\n"


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2), (10_000, 2)])
def test_nesting_cap_exits_2(capsys, depth, code):
    def nested(inner):
        return "(" * depth + inner + ")" * depth

    for argv in (["normalize", nested("x")], ["pair", nested("T"), "x"],
                 ["pair", "T", nested("x")]):
        got, out, err = invoke(capsys, argv[0], "--type", "II", *argv[1:])
        assert got == code, argv[:2]
        if code:
            assert err == ("error: parentheses nested deeper than 100 "
                           "(at position 100)\n"), argv[:2]
        else:
            assert out in ("x\n", "r\n")


REFERENCE = Path(__file__).parent / "reference"


@pytest.mark.parametrize("mode, param, name", [
    ("II", "r=1/2", "verify_II_r_1_2.json"),
    ("III", "p=2/3", "verify_III_p_2_3.json"),
], ids=["II", "III"])
def test_verify_specialization_matches_reference(capsys, mode, param, name):
    # specializations to non-integer parameters give coefficients with
    # Fraction entries; their reports are pinned as captured when the field
    # still kept a reduced-fraction form beside the Laurent one
    # (elapsedMillis stripped)
    code, out, _ = invoke(capsys, "verify", "--type", mode, "--param", param,
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    for r in doc["results"]:
        r.pop("elapsedMillis")
    assert doc == json.loads((REFERENCE / name).read_text())


def _text_reports():
    """The pinned text reports: blocks that each open with the "$ qsp ..."
    command line that printed them."""
    blocks = (REFERENCE / "verify_text.txt").read_text().split("$ qsp ")[1:]
    return [tuple(b.split("\n", 1)) for b in blocks]


@pytest.mark.parametrize("command, want", _text_reports(),
                         ids=[c for c, _ in _text_reports()])
def test_verify_text_report_matches_reference(capsys, command, want):
    # the text report is part of the report contract, byte for byte
    code, out, _ = invoke(capsys, *command.split())
    assert code == 0
    assert out == want


def test_coproduct(capsys):
    code, out, _ = invoke(capsys, "coproduct", "--type", "II", "th")
    assert code == 0
    assert "(x)" in out


PRINTED = {
    ("coproduct", "--type", "II", "2*x*th"): "2*x^2 (x) x*th + 2*x*th (x) x^2",
    ("coproduct", "--type", "II", "Q21*x"): "-r*q^-1*x (x) x",
    ("coproduct", "--type", "II", "x-x"): "0",
    ("pair", "--type", "II", "Nb^2", "x*th"): "0",
    ("pair", "--type", "II", "Nb^0", "x"): "1",
    ("normalize", "--type", "II", "th^0"): "1",
    ("normalize", "--type", "II", "H^0"): "1",
    # "--" ends the options, so an expression may begin with a minus
    ("normalize", "--type", "II", "--", "-x"): "-x",
    # a single term c*x^k raised to any power is c^n*x^(k*n)
    ("normalize", "--type", "II", "(x)^-1"): "x^-1",
    ("normalize", "--type", "II", "(x^2)^-1"): "x^-2",
    ("normalize", "--type", "II", "(2*x)^-1"): "1/2*x^-1",
    ("normalize", "--type", "II", "(2*x^2*r)^-2"): "1/4*r^-2*x^-4",
    ("normalize", "--type", "II", "(x^3)^2"): "x^6",
    # the installed console script's CI step pins these too: (34) read off
    # the Leibniz rule of d, pth*px off d*d = 0, (36), (85) and (86) off (11)
    ("normalize", "--type", "III", "pth*th"): "1 + (p - 1)*x*px - th*pth",
    ("normalize", "--type", "III", "px*th"): "q^-1*th*px",
    ("normalize", "--type", "III", "pth*px"): "q^-1*p^-1*px*pth",
    ("normalize", "--type", "III", "d*d"): "0",
    ("normalize", "--type", "III", "px*dx"): "p^-1*dx*px + (-p + 1)*p^-1*dth*pth",
    ("normalize", "--type", "III", "ith*px"): "q^-1*p^-1*px*ith + (-p + 1)*p^-1*pth*ix",
    ("normalize", "--type", "III", "ith*dth"): "1 + (-p + 1)*p^-1*dx*ix + p^-1*dth*ith",
    # x^-1 rules solved on first use, and d next to x^-1
    ("normalize", "--type", "II", "th*x^-3"): "q^3*x^-3*th",
    ("normalize", "--type", "II", "x^-5*dth"): "q^-5*dth*x^-5 + (-r^5 + 1)*r^-5*dx*x^-6*th",
    ("normalize", "--type", "II", "d*x^-1"): ("r^-1*dx*x^-1*px - r^-1*dx*x^-2 + q^-1*dth*x^-1*pth"
                                              " + (-r + 1)*r^-1*dx*x^-2*th*pth"),
    ("pair", "--type", "II", "T", "x^2000"): "r^2000",
    # products of two single terms that come to the unit
    ("normalize", "--type", "III", "--param", "p=2/3", "3/2*p*x*dx"): "2/3*dx*x",
    ("normalize", "--type", "II", "q^-2*x*q^2"): "x",
    # a sum coefficient of the unit
    ("normalize", "--type", "II", "--", "(1+r)*q^-1"): "(r + 1)*q^-1",
    ("coproduct", "--type", "II", "1+r"): "(r + 1) (x) 1",
}


@pytest.mark.parametrize("argv", PRINTED, ids=" ".join)
def test_printed_output(capsys, argv):
    # a tensor's coefficient rides on its first slot; zeroth powers are 1
    assert invoke(capsys, *argv) == (0, PRINTED[argv] + "\n", "")


INPUT_ERRORS = {
    ("check", "--type", "II", "x"): 'error: check expects "LHS == RHS" (at position 0)\n',
    ("normalize", "--type", "II", "--param", "r=abc", "x"): "bad rational 'abc'",
    # without "--", argparse reads "-x" as an option and the expression is missing
    ("normalize", "--type", "II", "-x"): "usage: qsp normalize [-h]",
    # only a scalar or a single term c*x^k has negative powers
    ("normalize", "--type", "II", "(px)^-1"): "error: negative powers require a scalar or x\n",
    ("normalize", "--type", "II", "(x*th)^-1"): "error: negative powers require a scalar or x\n",
    ("normalize", "--type", "II", "(x+1)^-1"): "error: negative powers require a scalar or x\n",
    ("normalize", "--type", "II", "0^-1"): "error: division by zero rational function\n",
}


@pytest.mark.parametrize("argv", INPUT_ERRORS, ids=" ".join)
def test_input_error_exits_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert INPUT_ERRORS[argv] in err, err


SOLVE_TYPES_OUT = """\
Type I: Q12 = 0, Q22 = 0 =>
  Q   = 1
  Q11 = q
  Q12 = 0
  Q21 = (-1)/(q)
  Q22 = 0
  Qp  = q
Type II: Q22 = 0, Q = r =>
  Q   = r
  Q11 = q
  Q12 = r - 1
  Q21 = (-r)/(q)
  Q22 = 0
  Qp  = (q)/(r)
Type III: Q12 = 0, Q = p =>
  Q   = p
  Q11 = q*p
  Q12 = 0
  Q21 = (-1)/(q)
  Q22 = -p + 1
  Qp  = q*p
"""


def test_solve_types(capsys):
    code, out, _ = invoke(capsys, "solve-types")
    assert code == 0
    assert out == SOLVE_TYPES_OUT


def test_verify_single_id_known_discrepancy_exit_zero(capsys):
    code, out, _ = invoke(capsys, "verify", "--type", "II",
                          "--id", "eq51-first-as-printed", "--format", "json")
    assert code == 0  # expected-FAIL certificates do not fail the process
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "FAIL"
    assert doc["results"][0]["residual"] == "r - 1"


def test_verify_unknown_id(capsys):
    code, out, err = invoke(capsys, "verify", "--id", "eq0-nope")
    assert code == 2


def test_verify_suite_deterministic(capsys):
    code1, out1, _ = invoke(capsys, "verify", "--type", "II", "--suite", "all",
                            "--format", "json")
    code2, out2, _ = invoke(capsys, "verify", "--type", "II", "--suite", "all",
                            "--format", "json")
    assert code1 == code2 == 0

    def strip_elapsed(text):
        doc = json.loads(text)
        for r in doc["results"]:
            r.pop("elapsedMillis")
        return doc

    assert strip_elapsed(out1) == strip_elapsed(out2)


def test_param_specialization_matches_type_i(capsys):
    for argv in (["normalize", "px*x"], ["normalize", "Lth"],
                 ["act", "H", "x^3*th"], ["pair", "T*Nb", "x*th"],
                 ["coproduct", "x*th"], ["check", "Lx*Lth == Qp*Lth*Lx"]):
        code1, out1, _ = invoke(capsys, *argv[:1], "--type", "I", *argv[1:])
        code2, out2, _ = invoke(capsys, *argv[:1], "--type", "II",
                                "--param", "r=1", *argv[1:])
        code3, out3, _ = invoke(capsys, *argv[:1], "--type", "III",
                                "--param", "p=1", *argv[1:])
        assert code1 == code2 == code3, argv
        assert out1 == out2 == out3, argv


def test_param_specialization_of_q(capsys):
    code, out, _ = invoke(capsys, "normalize", "--type", "II",
                          "--param", "q=3", "th*x")
    assert code == 0
    assert out.strip() == "1/3*x*th"
    code, out, _ = invoke(capsys, "check", "--type", "II", "--param", "q=3",
                          "--param", "r=2", "px*x == 1 + Q*x*px + Q12*th*pth")
    assert code == 0 and "PASS" in out


def test_param_value_replaces_its_symbol_in_both_languages(capsys):
    # Q = r at type II and Q = p at type III: an assigned parameter reads as
    # its value, as the coefficients built from it do
    for argv in (["--type", "II", "--param", "r=2", "Q*x == r*x"],
                 ["--type", "III", "--param", "p=1/2", "Q*x == p*x"]):
        code, out, _ = invoke(capsys, "check", *argv)
        assert (code, out) == (0, "PASS  residual 0\n"), argv
    for argv, want in ((["--param", "r=2", "r*T", "x"], "4\n"),
                       (["--param", "q=3", "q*T", "x"], "3*r\n"),
                       (["--param", "r=2", "Q*T", "x"], "4\n")):
        code, out, _ = invoke(capsys, "pair", "--type", "II", *argv)
        assert (code, out) == (0, want), argv


def test_dual_language_reads_structure_coefficients(capsys):
    code, out, _ = invoke(capsys, "pair", "--type", "II", "Q11*T", "x")
    assert (code, out) == (0, "q*r\n")
    # <K, x*th> = 0 and <Nb, x*th> = Q11 = p*q, times -Q21 = q^-1
    code, out, _ = invoke(capsys, "pair", "--type", "III", "Qp^-1*K - Q21*Nb", "x*th")
    assert (code, out) == (0, "p\n")


def test_param_pole_is_usage_error(capsys):
    code, out, err = invoke(capsys, "normalize", "--type", "II",
                            "--param", "q=0", "x")
    assert code == 2
    code, out, err = invoke(capsys, "normalize", "--param", "q=0", "x*th")
    assert (code, out, err) == (2, "", "error: denominator vanishes at q=0\n")
    code, out, err = invoke(capsys, "normalize", "--param", "r=1/2",
                            "--param", "q=0", "x*th")
    assert (code, out, err) == (2, "", "error: denominator vanishes at r=1/2, q=0\n")


def test_param_zeroing_qp_names_coefficient_and_assignment(capsys):
    # Qp = p*q at type III; the structure identities divide by it
    code, out, err = invoke(capsys, "normalize", "--type", "III", "--param", "p=0", "x")
    assert (code, out, err) == (2, "", "error: Qp is zero at p=0\n")
    code, out, err = invoke(capsys, "normalize", "--type", "III", "--param", "q=2",
                            "--param", "p=0", "x")
    assert (code, out, err) == (2, "", "error: Qp is zero at p=0, q=2\n")
    with pytest.raises(DivisionByZero, match="^Qp is zero at p=0$"):
        CalculusType.type_iii().specialize({"p": 0}).validate()


def test_text_report_header_lists_params(capsys):
    # the assignment prints as it is written, sorted by name as in the JSON
    # report, not as a Python dict of Fractions
    code, out, _ = invoke(capsys, "verify", "--type", "II", "--param", "r=1",
                          "--id", "eq51-first-as-printed")
    assert code == 0
    assert out.splitlines()[0] == "type II  params r=1"
    code, out, _ = invoke(capsys, "verify", "--type", "II", "--param", "r=1/2",
                          "--param", "q=2", "--id", "eq51-first-as-printed")
    assert code == 0
    assert out.splitlines()[0] == "type II  params q=2, r=1/2"


def test_unknown_param_rejected(capsys):
    code, out, err = invoke(capsys, "normalize", "--type", "I",
                            "--param", "r=1", "x")
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("type=I\nformat=json\n")
    code, out, _ = invoke(capsys, "verify", "--config", str(cfg),
                          "--id", "eq41-Hnabla")
    assert code == 0
    assert json.loads(out)["type"] == "I"
    # the flag wins over the config file
    code, out, _ = invoke(capsys, "verify", "--config", str(cfg),
                          "--type", "II", "--id", "eq41-Hnabla")
    assert json.loads(out)["type"] == "II"


def test_config_param_line(tmp_path, capsys):
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("type=II\nparam=r=1\n")
    code, out, _ = invoke(capsys, "normalize", "--config", str(cfg), "px*x")
    assert code == 0
    assert out.strip() == "1 + x*px"


def test_param_flag_given_twice_exits_2(capsys):
    # the second value must not silently replace the first
    assert invoke(capsys, "normalize", "--type", "II", "--param", "r=1",
                  "--param", "r=2", "r") == (2, "", "error: parameter 'r' given twice\n")


def test_config_param_given_twice_exits_2(tmp_path, capsys):
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("param=r=1\nparam= r =2\n")
    assert invoke(capsys, "normalize", "--config", str(cfg), "r") == (
        2, "", "error: config: parameter 'r' given twice\n")


def test_param_flag_overrides_config_param(tmp_path, capsys):
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("param=r=1\nparam=q=3\n")
    code, out, _ = invoke(capsys, "normalize", "--config", str(cfg), "--param", "r=2",
                          "r*q")
    assert (code, out) == (0, "6\n")


@pytest.mark.parametrize("line,flag", [("type=IV", ["--type", "II"]),
                                       ("format=xml", ["--format", "text"])],
                         ids=["type=IV-flag1", "format=xml-flag2"])
def test_bad_config_value_exits_2(tmp_path, capsys, line, flag):
    # a config value is checked as the flag's would be: an input error
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text(line + "\n")
    key, _, value = line.partition("=")
    code, out, err = invoke(capsys, "verify", "--config", str(cfg), "--id", "eq41-Hnabla")
    assert code == 2 and out == ""
    assert err.startswith(f"error: config {key}: invalid ") and repr(value) in err
    # a flag that overrides the value leaves it unread
    code, _, _ = invoke(capsys, "verify", "--config", str(cfg), *flag, "--id", "eq41-Hnabla")
    assert code == 0


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("type II\n")
    assert invoke(capsys, "normalize", "--config", str(cfg), "x") == (
        2, "", "error: bad config line 'type II'\n")


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelt key is an input error, not a silently ignored line
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("tpye=I\ntype=II\n")
    code, out, err = invoke(capsys, "normalize", "--config", str(cfg), "th*x")
    assert code == 2 and out == ""
    assert err.strip() == ("error: config: unknown key 'tpye' "
                           "(expected type, format or param)")


# stdout, stderr and exit code of every --help and of two usage errors at
# three terminal widths, keyed "<COLUMNS> <argv>", captured under CPython 3.11
HELP_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text())


@pytest.mark.skipif(sys.version_info >= (3, 12),
                    reason="the golden text is argparse's wording in CPython 3.11")
@pytest.mark.parametrize("columns", ["50", "80", "200"])
def test_help_and_usage_errors_match_golden(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    cases = [key for key in HELP_GOLDEN if key.split(" ", 1)[0] == columns]
    assert len(cases) == 10
    for key in cases:
        code, out, err = invoke(capsys, *key.split(" ")[1:])
        assert {"code": code, "out": out, "err": err} == HELP_GOLDEN[key], key


@pytest.mark.parametrize("columns", [None, "123", "0", "-5", "wide"])
def test_terminal_width_follows_shutils_rules(monkeypatch, columns):
    # a positive COLUMNS, else the terminal (none under the test runner), else 80
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert qsp.cli._terminal_width() == shutil.get_terminal_size().columns


def test_reader_that_closes_the_pipe_ends_qsp_quietly():
    # the reader takes one line and closes the pipe.  The pipe holds one page
    # and the report is 20 KB, so qsp is still writing when it closes: it
    # stops with 141 and writes nothing to stderr, with stdout buffered and
    # unbuffered (PYTHONUNBUFFERED=1, where a write the closing pipe cuts
    # short must not be dropped silently)
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe whose size can be set (Linux)")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(qsp.cli.__file__).resolve().parents[1])
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from qsp.cli import main; main()",
             "verify", "--type", "II", "--format", "json"],
            stdin=subprocess.DEVNULL, stdout=write_end, stderr=subprocess.PIPE,
            env={**env, **unbuffered})
        os.close(write_end)
        with os.fdopen(read_end, "rb") as out:
            assert out.readline() == b"{\n"
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, b""), unbuffered


# the console-script pins, which CI also replays through the installed qsp:
# exit code (0 unless given), stdout, and stderr or its start, each without
# its trailing newlines
CONSOLE_PINS = json.loads((Path(__file__).parent / "golden" / "console_pins.json").read_text())


def test_console_pins_replay_through_run(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    wrong = []
    for pin in CONSOLE_PINS:
        code, out, err = invoke(capsys, *pin["argv"])
        out, err = out.rstrip("\n"), err.rstrip("\n")
        if (code != pin.get("exit", 0) or out != pin.get("stdout", out)
                or err != pin.get("stderr", err)
                or not err.startswith(pin.get("stderr_prefix", ""))):
            wrong.append((pin["argv"], code, out, err))
    assert len(CONSOLE_PINS) == 34 and not wrong


def _derive_wrong(monkeypatch, wrong_key):
    # a table whose solution of the x^-1 rule wrong_key comes out doubled
    derive = RuleTable._derive_x_inverse

    def derive_wrong(rt, key):
        derive(rt, key)
        if key == wrong_key:
            rt._rules[key] = rt._rules[key].scale(2)

    monkeypatch.setattr(RuleTable, "_derive_x_inverse", derive_wrong)


def test_round_trip_guards_the_first_x_inverse_product(capsys, monkeypatch):
    # the x^-1 rules are solved on first use; a wrong solved rule must
    # still be caught by the round trips before any answer uses it
    _derive_wrong(monkeypatch, (PX, X, -1))
    code, out, err = invoke(capsys, "normalize", "--type", "II", "px*x^-1")
    assert (code, out) == (3, "") and err.startswith("internal error: round trip ")
    code, out, err = invoke(capsys, "normalize", "--type", "II", "px*x")
    assert (code, out, err) == (0, "1 + r*x*px + (r - 1)*th*pth\n", "")
    # the table keeps none of the rejected rules: every later miss fails again
    rt = build_rule_table(CalculusType.type_ii())
    for _ in range(2):
        with pytest.raises(NonInvertibleRule, match="round trip"):
            rt.word("px", ("x", -1))
        assert len(rt._rules) == 32


def test_round_trip_guards_the_rules_a_solution_needs(capsys, monkeypatch):
    # px*x^-1 needs th*x^-1 at type II: a wrong th*x^-1 fails th's round
    # trip, so the first px*x^-1 request exits 3 and no rule is adopted
    _derive_wrong(monkeypatch, (TH, X, -1))
    code, out, err = invoke(capsys, "normalize", "--type", "II", "px*x^-1")
    assert (code, out) == (3, "") and err.startswith("internal error: round trip ")
    rt = build_rule_table(CalculusType.type_ii())
    with pytest.raises(NonInvertibleRule, match="round trip of th "):
        rt.word("px", ("x", -1))
    assert len(rt._rules) == 32


def test_a_rejected_solve_leaves_no_product_of_its_rules(monkeypatch):
    # th's failed round trip memoizes products of the wrong th*x^-1 before
    # it fails; the rollback empties the memos, so once the derivation is
    # right again the same table answers as a fresh one
    _derive_wrong(monkeypatch, (TH, X, -1))
    rt = build_rule_table(CalculusType.type_ii())
    with pytest.raises(NonInvertibleRule, match="round trip of th "):
        rt.word("px", ("x", -1))
    monkeypatch.undo()
    fresh = build_rule_table(CalculusType.type_ii())
    assert rt.word("px", ("x", -1)) == fresh.word("px", ("x", -1))
    assert rt.rules == fresh.rules


def test_reading_the_rules_keeps_each_rule_that_passed(monkeypatch):
    # rules solves the x^-1 rules one at a time, th, pth and ith before px:
    # a wrong px*x^-1 fails its own round trip, and the three rules solved
    # before it, which passed theirs, stay adopted
    _derive_wrong(monkeypatch, (PX, X, -1))
    rt = build_rule_table(CalculusType.type_ii())
    with pytest.raises(NonInvertibleRule, match="round trip of px "):
        rt.rules
    kept = {(TH, X, -1), (PTH, X, -1), (ITH, X, -1)}
    assert {key for key in rt._rules if key[2] == -1} == kept and len(rt._rules) == 35
    monkeypatch.undo()
    fresh = build_rule_table(CalculusType.type_ii()).rules
    assert all(rt._rules[key] == fresh[key] for key in kept)


class _NoCommandNamed(dict):
    """A command table in which argv[0] never names a command, so that
    ``run`` always parses with the tree of all commands."""

    def __contains__(self, name):
        return False


COMMANDS = ("normalize", "check", "act", "pair", "coproduct", "verify", "solve-types")
DIFFERENTIAL_ARGVS = (
    [["-h"], ["--help"], [], ["nonsense"]]
    + [[command, "-h"] for command in COMMANDS]
    + [["normalize", "x", "--bogus"], ["normalize", "x", "y"], ["normalize", "x", "--", "y"],
       ["solve-types", "extra"]]
    + [["normalize", "--type", "IV", "x"], ["verify", "--format", "xml"],
       ["normalize", "--param", "r", "x"], ["normalize", "--ty", "II", "th*x"],
       ["verify", "--bound", "0"], ["--type", "II", "normalize", "x"]])


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGVS, ids=" ".join)
def test_one_command_parser_matches_full_tree(capsys, monkeypatch, argv):
    # run builds only the parser of the command argv[0] names; its exit
    # code, output and errors must be the tree's, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    one = invoke(capsys, *argv)
    monkeypatch.setattr(qsp.cli, "_COMMANDS", _NoCommandNamed(qsp.cli._COMMANDS))
    assert one == invoke(capsys, *argv)


def test_plain_request_builds_one_parser(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda *args, **kwargs: built.append(args))
    assert invoke(capsys, "normalize", "--type", "II", "th*x")[0] == 0
    assert built == []


def test_bad_usage(capsys):
    code, _, _ = invoke(capsys, "verify", "--bound", "0")
    assert code == 2
    code, _, _ = invoke(capsys, "nonsense")
    assert code == 2



def test_bound_flag_is_no_option(capsys):
    # no catalog entry samples, so nothing takes a bound: the flag is a usage
    # error like any unknown option, whatever its value (10001 is past the
    # exponent cap); the error names the option alone, also where argparse
    # takes its value as EXPR and leaves the expression over
    for argv in (["verify", "--bound", "6"], ["verify", "--bound", "10001"],
                 ["normalize", "--bound", "6", "x"]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "qsp: error: unrecognized arguments: --bound", err


def test_bound_config_key_is_unknown(tmp_path, capsys):
    # with the option gone, a bound line is an unknown key, whatever its value
    cfg = tmp_path / "qsp.cfg"
    for value in ("6", "abc"):
        cfg.write_text(f"bound={value}\n")
        assert invoke(capsys, "verify", "--config", str(cfg), "--id", "eq11-th-dx") == (
            2, "", "error: config: unknown key 'bound' (expected type, format or param)\n")


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qsp.cli, "parse_element", boom)
    code, out, err = invoke(capsys, "normalize", "--type", "II", "x")
    assert code == 3 and out == ""
    assert err.strip() == "internal error: RuntimeError: boom"


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, out, err = invoke(capsys, "normalize", "--config",
                            str(tmp_path / "absent.cfg"), "x")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read config file")


def test_normalize_high_power_past_differential(capsys):
    code, out, err = invoke(capsys, "normalize", "--type", "II", "x^2000*dx")
    assert code == 0 and err == ""
    assert out.strip() == "r^2000*dx*x^2000"


def test_normalize_exponent_cap(capsys):
    # a pure power of x is built directly; exponents past the cap are input errors
    code, out, err = invoke(capsys, "normalize", "--type", "II", "x^99999999")
    assert code == 2 and out == ""
    assert "exceeds 10000" in err
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "x^-10001")
    assert code == 2 and out == ""
    code, out, err = invoke(capsys, "normalize", "--type", "II", "x^10000")
    assert code == 0 and err == ""
    assert out.strip() == "x^10000"
    code, out, _ = invoke(capsys, "normalize", "--type", "II", "xi^3*th")
    assert code == 0 and out.strip() == "x^-3*th"


def _engine_errors(cls=QspError):
    yield cls
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qsp."):
            yield from _engine_errors(sub)


@pytest.mark.parametrize("error", sorted(set(_engine_errors()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_engine_error_exit_codes(capsys, monkeypatch, error):
    # every engine error is a QspError: exit 2, except the invariant
    # violations, which are internal (exit 3)
    def boom(*args, **kwargs):
        exc = error.__new__(error)
        Exception.__init__(exc, "boom")
        raise exc

    monkeypatch.setattr(qsp.cli, "parse_element", boom)
    code, out, err = invoke(capsys, "normalize", "--type", "II", "x")
    internal = error in (NonInvertibleRule, InconsistentType)
    assert out == ""
    assert (code, err) == ((3, "internal error: boom\n") if internal else (2, "error: boom\n"))
