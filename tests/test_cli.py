"""Command-line driver: subcommands, exit codes, determinism, coherence."""

import argparse
import json
import sys
from pathlib import Path

import pytest

import qsp.calculus
import qsp.cli
import qsp.covariance
from qsp.algebra import (PX, TH, X, CalculusType, InconsistentType, NonInvertibleRule,
                         RuleTable, build_rule_table)
from qsp.cli import run
from qsp.coeffs import QspError


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
                            "--bound", "2", "--format", "json")
    code2, out2, _ = invoke(capsys, "verify", "--type", "II", "--suite", "all",
                            "--bound", "2", "--format", "json")
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


@pytest.mark.parametrize("line,flag", [("bound=abc", ["--bound", "3"]),
                                       ("type=IV", ["--type", "II"]),
                                       ("format=xml", ["--format", "text"])])
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


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # a misspelt key is an input error, not a silently ignored line
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text("tpye=I\nbound=3\n")
    code, out, err = invoke(capsys, "normalize", "--config", str(cfg), "th*x")
    assert code == 2 and out == ""
    assert err.strip() == ("error: config: unknown key 'tpye' "
                           "(expected type, format, bound or param)")


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



def test_bound_past_exponent_cap_exits_2(tmp_path, capsys):
    # the identities build x^bound, which the parser refuses past
    # MAX_EXPONENT: a larger bound is an input error, not hours of work
    cap = qsp.cli.MAX_EXPONENT
    want = (2, "", f"error: --bound must be between 1 and {cap}\n")
    assert invoke(capsys, "verify", "--bound", str(cap + 1), "--id", "eq11-th-dx") == want
    cfg = tmp_path / "qsp.cfg"
    cfg.write_text(f"bound={cap + 1}\n")
    assert invoke(capsys, "verify", "--config", str(cfg), "--id", "eq11-th-dx") == want
    # the cap itself is accepted; eq11-th-dx does not read the bound, so no
    # case here runs long when the check is missing
    code, out, _ = invoke(capsys, "verify", "--bound", str(cap), "--id", "eq11-th-dx")
    assert code == 0 and "PASS" in out

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
