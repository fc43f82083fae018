"""Expression language: parser, canonical printer, report emission.

Grammar (whitespace-insensitive, multiplication always explicit):

    expr   := ["+"|"-"] term {("+"|"-") term}
    term   := factor {("*"|"/") factor}
    factor := atom ["^" ["-"] integer]
    atom   := rational | symbol | "(" expr ")"

A rational literal is digits or digits/digits; an exponent is at most
MAX_EXPONENT in absolute value, and parentheses nest at most MAX_NESTING
deep.  A divisor must be a single-term scalar, such as 2*r or q^2, so that
every coefficient stays a Laurent polynomial.
Tensors are printed, never parsed: their slots are separated by the token
(x), which cannot be read as a product because juxtaposition is never
multiplication.

Symbols: generators x, xi (= x^-1), th, dx, dth, d, px, pth, ix, ith;
derived operators H, Nb, T, wx, wth, Lx, Lth (read through
hopf.expand_derived); and the scalar symbols of the calculus type, read
through ``CalculusType.symbol``: its parameters, a parameter's assigned
value once specialized, and the structure coefficients Q, Q11, Q12, Q21,
Q22, Qp.  In the dual-sector language (pair subcommand) the symbols are T,
K, Nb and the same scalar symbols.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .coeffs import (QspError, RationalFunction, _assignment_str, _poly_is_one,
                     number_str, poly_str)
from .algebra import (
    GEN_INDEX,
    X,
    CalculusType,
    Element,
    RuleTable,
    mono,
    mono_sort_key,
    mono_str,
)
# DERIVED_NAMES and expand_derived are re-exported beside the parser
from .hopf import DERIVED_NAMES, TensorElement, UElement, expand_derived


class ExprSyntaxError(QspError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(QspError):
    pass


class BadExponent(QspError):
    pass


# ----------------------------------------------------------------------------
# Lexer / parser
# ----------------------------------------------------------------------------

# Largest absolute value of a "^" exponent: every power the engine builds
# then stays bounded in time and memory
MAX_EXPONENT = 10_000

# Deepest parenthesis nesting: the parser and the evaluator recurse once per
# level, so deeper input would exhaust the interpreter's stack
MAX_NESTING = 100

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())
                raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
            break
        number, name, op = m.groups()
        at = m.start(1) if number else (m.start(2) if name else m.start(3))
        if number:
            try:
                value = Fraction(number)
            except ZeroDivisionError:
                raise ExprSyntaxError("zero denominator in rational literal", at) from None
            except ValueError:   # past the interpreter's int digit limit
                raise ExprSyntaxError("rational literal has too many digits", at) from None
            tokens.append(("num", value, at))
        elif name:
            tokens.append(("name", name, at))
        else:
            tokens.append(("op", op, at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse_expr(self):
        terms = []
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        terms.append((sign, self.parse_term()))
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                terms.append((-1 if val == "-" else 1, self.parse_term()))
            else:
                break
        return ("add", terms)

    def parse_term(self):
        factors = [("mulop", self.parse_factor())]
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                factors.append(("divop" if val == "/" else "mulop", self.parse_factor()))
            else:
                break
        return ("term", factors)

    def parse_factor(self):
        base = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val == "-":
                self.next()
                sign = -1
            kind, val, pos = self.next()
            if kind != "num" or val.denominator != 1:
                raise ExprSyntaxError("exponent must be an integer", pos)
            if val > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent exceeds {MAX_EXPONENT}", pos)
            return ("pow", base, sign * int(val))
        return base

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            return ("sym", val)
        if kind == "op" and val == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text: str):
    """Parse an expression; raises ExprSyntaxError with a position."""
    parser = _Parser(tokenize(text))
    ast = parser.parse_expr()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(f"trailing input {val!r}", pos)
    return ast


# ----------------------------------------------------------------------------
# Evaluation into the algebra
# ----------------------------------------------------------------------------

def _evaluate(node, one, mul, symbol, power, divide):
    """Fold a parsed expression into the ring whose unit is ``one``.

    ``symbol(name, n)`` reads a symbol raised to n (n = 1 when bare),
    ``power(value, n)`` raises a parenthesized value, ``mul(a, b)`` and
    ``divide(a, b)`` combine the factors of a term left to right; numbers are
    scalar multiples of ``one``.  A module function, not a closure that calls
    itself: such a closure is a reference cycle, which would keep the rule
    table behind ``mul`` alive until the cyclic collector ran.
    """
    kind = node[0]
    if kind == "num":
        return one.scale(one.params.const(node[1]))
    if kind == "sym":
        return symbol(node[1], 1)
    ring = (one, mul, symbol, power, divide)
    if kind == "pow":
        base, n = node[1], node[2]
        if base[0] == "sym":
            return symbol(base[1], n)
        return power(_evaluate(base, *ring), n)
    if kind == "term":
        out = one
        for role, sub in node[1]:
            val = _evaluate(sub, *ring)
            out = divide(out, val) if role == "divop" else mul(out, val)
        return out
    if kind == "add":
        out = one.scale(0)
        for sign, sub in node[1]:
            val = _evaluate(sub, *ring)
            out = out + val if sign > 0 else out - val
        return out
    raise ValueError(f"bad AST node {kind!r}")


def eval_ast(rt: RuleTable, ast) -> Element:
    P = rt.params

    def divide(out: Element, val: Element) -> Element:
        if not val.is_scalar():
            raise BadExponent("division requires a scalar divisor")
        return out.scale(P.one() / val.scalar_value())

    return _evaluate(ast, Element.one(P), rt.mul,
                     lambda name, n: _eval_symbol(rt, name, n),
                     lambda e, n: _element_power(rt, e, n), divide)


def _eval_symbol(rt: RuleTable, name: str, power: int) -> Element:
    P = rt.params
    if name == "xi":
        name, power = "x", -power
    if name in GEN_INDEX:
        g = GEN_INDEX[name]
        if power == 0:
            return Element.one(P)
        if power < 0 and g != X:
            raise BadExponent(f"negative power of {name!r} is not invertible")
        if g == X:
            # a pure power of x is already in normal form
            return Element.monomial(P, mono(x=power))
        return rt.normalize_word([name] * power)
    if name in DERIVED_NAMES:
        return _element_power(rt, expand_derived(rt, name), power)
    return Element.scalar(P, _scalar_symbol(rt.ct, name, "symbol") ** power)


def _scalar_symbol(ct: CalculusType, name: str, what: str) -> RationalFunction:
    value = ct.symbol(name)
    if value is None:
        raise UnknownSymbol(f"unknown {what} {name!r}")
    return value


def _element_power(rt: RuleTable, e: Element, n: int) -> Element:
    P = rt.params
    if n == 0:
        return Element.one(P)
    if e.is_scalar():
        # RationalFunction.__pow__ squares and multiplies
        return Element.scalar(P, e.scalar_value() ** n)
    if n < 0:
        raise BadExponent("negative powers require a scalar or x")
    # an operator is multiplied by itself n-1 times: squaring would multiply
    # monomials of high degree, each far dearer than a step by e
    out = e
    for _ in range(n - 1):
        out = rt.mul(out, e)
    return out


def parse_element(rt: RuleTable, text: str) -> Element:
    return eval_ast(rt, parse_expr(text))


def parse_uelement(ct: CalculusType, text: str) -> UElement:
    """Parse a dual-sector expression over the symbols T, K, Nb and the
    scalar symbols of the type ``ct``."""
    params = ct.params

    def symbol(name: str, power: int) -> UElement:
        if name == "T":
            return UElement.gen_T(params, power)
        if name == "K":
            return UElement.gen_K(params, power)
        if name == "Nb":
            if power == 1:
                return UElement.gen_nabla(params)
            if power == 0:
                return UElement.unit(params)
            if power > 1:
                return UElement(params)  # nilpotent
            raise BadExponent("Nb is nilpotent; negative powers do not exist")
        value = _scalar_symbol(ct, name, "dual-sector symbol")
        return UElement.unit(params).scale(value ** power)

    def power(u: UElement, n: int) -> UElement:
        raise BadExponent("powers apply to symbols in the dual language")

    def divide(u: UElement, v: UElement) -> UElement:
        raise BadExponent("no division in the dual language")

    return _evaluate(parse_expr(text), UElement.unit(params), UElement.mul,
                     symbol, power, divide)


# ----------------------------------------------------------------------------
# Canonical printing
# ----------------------------------------------------------------------------

def _coeff_term(c: RationalFunction) -> tuple[int, str]:
    """Render a coefficient as (sign, body) with the sign pulled out when the
    numerator is a single term; bodies are parseable by the grammar above."""
    params = c.params
    num, den = c.fraction()

    def mono_body(p, negate_exps=False) -> tuple[int, str]:
        (m, coeff), = p.items()
        sign = -1 if coeff < 0 else 1
        coeff = abs(coeff)
        parts = []
        if coeff != 1:
            parts.append(number_str(coeff))
        for v, e in zip(params.variables, m):
            if e:
                e = -e if negate_exps else e
                parts.append(v if e == 1 else f"{v}^{e}")
        return sign, "*".join(parts) if parts else "1"

    if _poly_is_one(den):
        if len(num) == 1:
            return mono_body(num)
        return 1, f"({poly_str(num, params.variables)})"
    # the denominator is a monic monomial: it prints as negative powers
    _, dbody = mono_body(den, negate_exps=True)
    if len(num) == 1:
        sn, nbody = mono_body(num)
        return sn, dbody if nbody == "1" else f"{nbody}*{dbody}"
    return 1, f"({poly_str(num, params.variables)})*{dbody}"


def print_canonical(e: Element) -> str:
    """Deterministic text form; parse_element(print_canonical(e)) == e."""
    if e.is_zero():
        return "0"
    chunks = []
    for m, c in e.sorted_terms():
        sign, body = _coeff_term(c)
        mstr = mono_str(m)
        if not any(m):
            # bare scalars print unparenthesized when sign-safe
            if body.startswith("(") and body.endswith(")") and not body.startswith("(-"):
                body = body[1:-1]
            piece = body
        elif body == "1":
            piece = mstr
        else:
            piece = f"{body}*{mstr}"
        chunks.append((sign, piece))
    return _join_signed(chunks)


def print_tensor(te: TensorElement) -> str:
    if te.is_zero():
        return "0"
    chunks = []
    for key, c in sorted(te.terms.items(), key=lambda kv: tuple(mono_sort_key(m) for m in kv[0])):
        sign, body = _coeff_term(c)
        slots = []
        for i, m in enumerate(key):
            mstr = mono_str(m)
            if i == 0 and body != "1":
                mstr = f"{body}*{mstr}" if mstr != "1" else body
            slots.append(mstr)
        chunks.append((sign, " (x) ".join(slots)))
    return _join_signed(chunks)


def _join_signed(chunks: list[tuple[int, str]]) -> str:
    """Join (sign, text) pieces as "a - b + c"; a minus on the first is a prefix."""
    sign, piece = chunks[0]
    out = ("-" if sign < 0 else "") + piece
    for sign, piece in chunks[1:]:
        out += (" - " if sign < 0 else " + ") + piece
    return out


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def emit_report(results, fmt: str, type_label: str,
                param_assignment: Optional[dict] = None) -> bytes:
    """Serialize verification results (sorted by identity id).

    JSON schema: {"type", "paramAssignment", "results": [{"id",
    "paperAnchor", "status", "residual", "elapsedMillis"}]}.
    """
    rows = sorted(results, key=lambda r: r.identityId)
    if fmt == "json":
        doc = {
            "type": type_label,
            "paramAssignment": (
                {k: str(v) for k, v in sorted(param_assignment.items())}
                if param_assignment else None
            ),
            "results": [
                {
                    "id": r.identityId,
                    "paperAnchor": r.paperAnchor,
                    "status": r.status,
                    "residual": print_canonical(r.residual),
                    "elapsedMillis": r.elapsedMillis,
                }
                for r in rows
            ],
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"type {type_label}"
             + (f"  params {_assignment_str(dict(sorted(param_assignment.items())))}"
                if param_assignment else "")]
    idw = max((len(r.identityId) for r in rows), default=2)
    aw = max((len(r.paperAnchor) for r in rows), default=2)
    for r in rows:
        residual = print_canonical(r.residual)
        lines.append(f"{r.identityId:<{idw}}  {r.paperAnchor:<{aw}}  "
                     f"{r.status:<4}  {residual}")
    return ("\n".join(lines) + "\n").encode("utf-8")
