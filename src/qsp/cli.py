"""Command-line driver: normalize, check, act, pair, coproduct, verify,
solve-types.

Exit codes: 0 success (all verified identities pass, known-discrepancy
certificates excluded), 1 at least one unexpected FAIL, 2 usage or input
error, 3 internal invariant violation or any other unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from fractions import Fraction

from .coeffs import MissingVariable, QspError
from .algebra import (
    COEFF_NAMES,
    CalculusType,
    InconsistentType,
    NonInvertibleRule,
    RuleTable,
    act_on_function,
    build_rule_table,
)
from . import hopf
from .exprio import (
    MAX_EXPONENT,
    ExprSyntaxError,
    emit_report,
    parse_element,
    parse_uelement,
    print_canonical,
    print_tensor,
)

_INTERNAL_ERRORS = (NonInvertibleRule, InconsistentType)


def _parse_param(text: str) -> tuple[str, Fraction]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected NAME=RATIONAL, got {text!r}")
    name, _, value = text.partition("=")
    try:
        return name.strip(), Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {value!r}: {exc}") from None


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read config file: {exc}") from None
    config: dict = {"params": []}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise argparse.ArgumentTypeError(f"bad config line {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "param":
            config["params"].append(_parse_param(value))
        elif key in ("type", "format", "bound"):
            config[key] = value
        else:
            raise argparse.ArgumentTypeError(
                f"config: unknown key {key!r} (expected type, format, bound or param)")
    return config


_TYPES = ("I", "II", "III")
_FORMATS = ("text", "json")


# command -> (summary, positional arguments); verify adds --id and --suite
_COMMANDS = {
    "normalize": ("print the canonical form of EXPR", ("expr",)),
    "check": ('verify "LHS == RHS"', ("expr",)),
    "act": ("apply operator OP to EXPR", ("op", "expr")),
    "pair": ("dual pairing <U, A>", ("u", "a")),
    "coproduct": ("coordinate coproduct of EXPR", ("expr",)),
    "verify": ("run the identity catalog", ()),
    "solve-types": ("print the covariant families", ()),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    p.add_argument("--type", dest="ctype", choices=_TYPES,
                   default=None, help="calculus type (default II)")
    p.add_argument("--param", dest="params", action="append",
                   type=_parse_param, default=None,
                   metavar="NAME=RAT", help="numeric specialization")
    p.add_argument("--bound", dest="bound", type=int, default=None,
                   metavar="D", help="basis bound for action checks")
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default=None)
    p.add_argument("--config", dest="config", default=None,
                   metavar="PATH", help="key=value configuration file")
    for positional in _COMMANDS[name][1]:
        p.add_argument(positional)
    if name == "verify":
        p.add_argument("--id", dest="identity", default=None,
                       help="run one identity (or glob pattern)")
        p.add_argument("--suite", dest="suite", choices=("all",), default=None)


def _parse_args(argv) -> argparse.Namespace:
    """Parse with the parser of the command ``argv[0]`` names alone; the
    tree of all commands, whose help and errors are the reference, answers
    when argv names none or that parser leaves arguments unrecognized."""
    # argparse sizes every formatter it builds to the terminal; ask once
    fmt = functools.partial(argparse.HelpFormatter,
                            width=shutil.get_terminal_size().columns - 2)
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"qsp {argv[0]}", formatter_class=fmt)
        _add_arguments(parser, argv[0])
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    parser = argparse.ArgumentParser(
        prog="qsp", formatter_class=fmt,
        description="Exact calculus engine on the quantum superplane")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary, formatter_class=fmt), name)
    return parser.parse_args(argv)


def _effective(args, config: dict, key: str, default):
    """The flag's value, else the config file's, checked as the flag's is."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    name = {"ctype": "type", "fmt": "format"}.get(key, key)
    if name not in config:
        return default
    value = config[name]
    if name == "bound":
        try:
            return int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"config bound: invalid int value: {value!r}") from None
    choices = _TYPES if name == "type" else _FORMATS
    if value not in choices:
        raise argparse.ArgumentTypeError(
            f"config {name}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})")
    return value


def _engine(args, config) -> tuple[RuleTable, str, dict]:
    ctype = _effective(args, config, "ctype", "II")
    ct = CalculusType.by_name(ctype)
    params = list(config.get("params", []))
    if args.params:
        params.extend(args.params)
    assignment = {name: value for name, value in params}
    for name in assignment:
        if name not in ct.params.variables:
            raise MissingVariable(f"type {ctype} has no parameter {name!r}")
    if assignment:
        ct = ct.specialize(assignment)
    return build_rule_table(ct), ctype, assignment


def run(argv) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        config = _read_config(args.config) if args.config else {}
        bound = _effective(args, config, "bound", 6)
        # the identities build x^bound and x^-bound, which the parser caps
        if not 1 <= bound <= MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"--bound must be between 1 and {MAX_EXPONENT}")
        fmt = _effective(args, config, "fmt", "text")
        rt, ctype, assignment = _engine(args, config)
        if args.command == "normalize":
            e = parse_element(rt, args.expr)
            print(print_canonical(e))
            return 0
        if args.command == "check":
            if "==" not in args.expr:
                raise ExprSyntaxError('check expects "LHS == RHS"', 0)
            lhs, rhs = args.expr.split("==", 1)
            # blanks in place of "LHS ==" keep an error's position in the
            # right-hand side its position in the whole expression
            rhs = " " * (len(lhs) + 2) + rhs
            residual = parse_element(rt, lhs) - parse_element(rt, rhs)
            if residual.is_zero():
                print("PASS  residual 0")
                return 0
            print(f"FAIL  residual {print_canonical(residual)}")
            return 1
        if args.command == "act":
            op = parse_element(rt, args.op)
            arg = parse_element(rt, args.expr)
            print(print_canonical(act_on_function(rt, op, arg)))
            return 0
        if args.command == "pair":
            u = parse_uelement(rt.ct, args.u)
            a = parse_element(rt, args.a)
            print(hopf.pair(rt, u, a))
            return 0
        if args.command == "coproduct":
            e = parse_element(rt, args.expr)
            print(print_tensor(hopf.coproduct_A(rt, e)))
            return 0
        if args.command == "verify":
            from . import calculus   # only verify needs the catalog
            pattern = args.identity
            results = calculus.run_suite(rt, bound=bound, pattern=pattern)
            payload = emit_report(results, fmt, ctype, assignment or None)
            sys.stdout.write(payload.decode("utf-8"))
            bad = [r for r in results
                   if r.status == "FAIL"
                   and r.identityId not in calculus.KNOWN_DISCREPANCY_IDS]
            return 1 if bad else 0
        if args.command == "solve-types":
            _print_families()
            return 0
    except _INTERNAL_ERRORS as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (argparse.ArgumentTypeError, QspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # last resort, so that exit 1 only ever means "an identity failed";
        # SystemExit is not an Exception and still leaves with argparse's 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _print_families() -> None:
    from . import covariance as cov   # only solve-types solves families
    for mode, conditions in cov.FAMILY_SIDE_CONDITIONS:
        params = CalculusType.by_name(mode).params
        ct = cov.solve_family(conditions, params)
        fixed = ", ".join(f"{k} = {params.rf(v)}" for k, v in conditions.items())
        print(f"Type {mode}: {fixed} =>")
        for name in COEFF_NAMES:
            print(f"  {name:<3} = {ct.symbol(name)}")


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
