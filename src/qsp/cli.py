"""Command-line driver: normalize, check, act, pair, coproduct, verify,
solve-types.

Exit codes: 0 success (all verified identities pass, known-discrepancy
certificates excluded), 1 at least one unexpected FAIL, 2 usage or input
error, 3 internal invariant violation or any other unexpected error.  A
reader that closes standard output before qsp has written all of it
(``qsp solve-types | head -1``) ends the process quietly with 141, the
shell's code for a write to a closed pipe.
"""

from __future__ import annotations

import argparse
import functools
import os
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


def _assignment(params, source: str) -> dict:
    """The (name, value) pairs as a dict; a name given twice is an input error."""
    assignment: dict = {}
    for name, value in params:
        if name in assignment:
            raise argparse.ArgumentTypeError(f"{source}parameter {name!r} given twice")
        assignment[name] = value
    return assignment


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
        elif key in ("type", "format"):
            config[key] = value
        else:
            raise argparse.ArgumentTypeError(
                f"config: unknown key {key!r} (expected type, format or param)")
    config["params"] = _assignment(config["params"], "config: ")
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
    p.add_argument("--format", dest="fmt", choices=_FORMATS, default=None)
    p.add_argument("--config", dest="config", default=None,
                   metavar="PATH", help="key=value configuration file")
    for positional in _COMMANDS[name][1]:
        p.add_argument(positional)
    if name == "verify":
        p.add_argument("--id", dest="identity", default=None,
                       help="run one identity (or glob pattern)")
        p.add_argument("--suite", dest="suite", choices=("all",), default=None)


def _terminal_width() -> int:
    """``shutil.get_terminal_size().columns`` without importing shutil: a
    positive ``COLUMNS``, else the width of the terminal on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


def _parse_args(argv) -> argparse.Namespace:
    """Parse with the parser of the command ``argv[0]`` names alone; the
    tree of all commands, whose help and errors are the reference, answers
    when argv names none or that parser leaves arguments unrecognized.  An
    unknown option left over is named alone: argparse may have taken the
    option's value as a positional and left the positional in its place."""
    # argparse sizes every formatter it builds to the terminal; ask once
    fmt = functools.partial(argparse.HelpFormatter, width=_terminal_width() - 2)
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
    args, extra = parser.parse_known_args(argv)
    if extra:
        options = [token for token in extra if token.startswith("-")]
        parser.error(f"unrecognized arguments: {options[0] if options else ' '.join(extra)}")
    return args


def _effective(args, config: dict, key: str, default):
    """The flag's value, else the config file's, checked as the flag's is."""
    flag = getattr(args, key)
    if flag is not None:
        return flag
    name = {"ctype": "type", "fmt": "format"}[key]
    if name not in config:
        return default
    value = config[name]
    choices = _TYPES if name == "type" else _FORMATS
    if value not in choices:
        raise argparse.ArgumentTypeError(
            f"config {name}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})")
    return value


def _engine(args, config) -> tuple[RuleTable, str, dict]:
    ctype = _effective(args, config, "ctype", "II")
    ct = CalculusType.by_name(ctype)
    # a flag overrides the config file's value of its parameter
    assignment = {**config.get("params", {}), **_assignment(args.params or (), "")}
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
        fmt = _effective(args, config, "fmt", "text")
        rt, ctype, assignment = _engine(args, config)
        if args.command == "normalize":
            e = parse_element(rt, args.expr)
            _write(print_canonical(e) + "\n")
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
            _write(print_canonical(act_on_function(rt, op, arg)) + "\n")
            return 0
        if args.command == "pair":
            u = parse_uelement(rt.ct, args.u)
            a = parse_element(rt, args.a)
            print(hopf.pair(rt, u, a))
            return 0
        if args.command == "coproduct":
            e = parse_element(rt, args.expr)
            _write(print_tensor(hopf.coproduct_A(rt, e)) + "\n")
            return 0
        if args.command == "verify":
            from . import calculus   # only verify needs the catalog
            results = calculus.run_suite(rt, args.identity)
            payload = emit_report(results, fmt, ctype, assignment or None)
            _write(payload.decode("utf-8"))
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
    except BrokenPipeError:
        raise   # the reader left, which is not an internal error: main's to handle
    except Exception as exc:
        # last resort, so that exit 1 only ever means "an identity failed";
        # SystemExit is not an Exception and still leaves with argparse's 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _write(text: str) -> None:
    """Write ``text`` to stdout in full.  Unbuffered (``python -u``,
    ``PYTHONUNBUFFERED``), the bytes below stdout's text layer are the raw
    file, whose ``write`` may take only part of them when the reader of a
    pipe closes it, and the text layer drops the rest unchecked; the rest is
    written again here, so that the close raises BrokenPipeError instead of
    cutting the output short with exit 0."""
    out = sys.stdout
    binary = getattr(out, "buffer", None)
    if binary is None:   # a text stream with no bytes below it (io.StringIO)
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[binary.write(data):]


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
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs on SIGPIPE advise: stdout goes to devnull, so
        # that the flush at exit cannot raise again, and no message
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
