"""Expression language: parser, canonical printer, report emission.

Grammar (whitespace-insensitive, multiplication always explicit):

    expr   := ["+"|"-"] term {("+"|"-") term}
    term   := factor {("*"|"/") factor}
    factor := atom ["^" ["-"] integer]
    atom   := rational | symbol | "(" expr ")"

A rational literal is digits, read as an ``int``, or digits/digits, read as
a ``Fraction``; an exponent is at most MAX_EXPONENT in absolute value, and
parentheses nest at most MAX_NESTING deep.  A divisor must be a single-term
scalar, such as 2*r or q^2, so that every coefficient stays a Laurent
polynomial.
Tensors are printed, never parsed: their slots are separated by the token
(x), which cannot be read as a product because juxtaposition is never
multiplication.

Symbols: generators x, xi (= x^-1), th, dx, dth, d, px, pth, ix, ith;
derived operators H, Nb, T, wx, wth, Lx, Lth (read through
hopf.expand_derived); and the scalar symbols of the calculus type, read
through ``CalculusType.symbol``: its parameters, a parameter's assigned
value once specialized, and the structure coefficients Q, Q11, Q12, Q21,
Q22, Qp.  ``parse_element`` evaluates each symbol, raised to each power it
meets, once per rule table.  In the dual-sector language (pair subcommand)
the symbols are T, K, Nb and the same scalar symbols.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .coeffs import (QspError, RationalFunction, _assignment_str, join_signed, poly_str,
                     term_str)
from .algebra import (
    GEN_INDEX,
    X,
    CalculusType,
    Element,
    RuleTable,
    mono,
    mono_exp,
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

# one token after optional blanks; the last group is any other character,
# so that matches run back to back and one is an error
_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()])|(\S))")
_KINDS = (None, "num", "name", "op", "bad")


def tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        kind, value, at = _KINDS[group], m.group(group), m.start(group)
        if kind == "num":
            try:
                value = Fraction(value) if "/" in value else int(value)
            except ZeroDivisionError:
                raise ExprSyntaxError("zero denominator in rational literal", at) from None
            except ValueError:   # past the interpreter's int digit limit
                raise ExprSyntaxError("rational literal has too many digits", at) from None
        elif kind == "bad":
            raise ExprSyntaxError(f"unexpected character {value!r}", at)
        tokens.append((kind, value, at))
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
        # the first factor is always a "mulop": the term starts from it
        factors = iter(node[1])
        out = _evaluate(next(factors)[1], *ring)
        for role, sub in factors:
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


def _symbol(rt: RuleTable, name: str, power: int) -> Element:
    """The value of a symbol raised to ``power``, evaluated once per table
    and kept in ``rt._symbols``; a symbol that raises is not kept.  Callers
    must not change the value in place."""
    symbols = rt._symbols
    e = symbols.get((name, power))
    if e is None:
        e = symbols[name, power] = _eval_symbol(rt, name, power)
    return e


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
    if len(e.terms) == 1:
        (m, c), = e.terms.items()
        k = mono_exp(m, X)
        if m == mono(x=k):
            # x^k is invertible and commutes with scalars
            return Element.monomial(P, mono(x=k * n), c ** n)
    if n < 0:
        raise BadExponent("negative powers require a scalar or x")
    # an operator is multiplied by itself n-1 times: squaring would multiply
    # monomials of high degree, each far dearer than a step by e
    out = e
    for _ in range(n - 1):
        out = rt.mul(out, e)
    return out


def parse_element(rt: RuleTable, text: str) -> Element:
    P = rt.params

    def divide(out: Element, val: Element) -> Element:
        if not val.is_scalar():
            raise BadExponent("division requires a scalar divisor")
        return out.scale(P.one() / val.scalar_value())

    # the top-level "add" node sums into a fresh element, so no value kept
    # by _symbol is ever handed out
    return _evaluate(parse_expr(text), Element.one(P), rt.mul,
                     lambda name, n: _symbol(rt, name, n),
                     lambda e, n: _element_power(rt, e, n), divide)


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
    """A coefficient as (sign, body): a single term by ``term_str``, a sum in
    parentheses times the negative powers that clear it, with a plus sign.
    Bodies are parseable by the grammar above."""
    variables = c.params.variables
    if len(c.packed) == 1:
        (m, v), = c.lp.items()
        return term_str(m, v, variables)
    num, den = c.fraction()
    body = f"({poly_str(num, variables)})"
    (m, _), = den.items()
    if not any(m):
        return 1, body
    return 1, f"{body}*{term_str(tuple(-e for e in m), 1, variables)[1]}"


def _print_terms(terms: dict) -> str:
    """Text of terms keyed by tuples of monomials, one per slot, joined by
    (x); the coefficient prefixes the first slot."""
    if not terms:
        return "0"
    chunks = []
    for key, c in sorted(terms.items(), key=lambda kv: tuple(map(mono_sort_key, kv[0]))):
        sign, body = _coeff_term(c)
        slots = [mono_str(m) for m in key]
        if body != "1":
            # a bare scalar prints unparenthesized when sign-safe
            if (len(key) == 1 and slots[0] == "1" and body.startswith("(")
                    and body.endswith(")") and not body.startswith("(-")):
                body = body[1:-1]
            slots[0] = body if slots[0] == "1" else f"{body}*{slots[0]}"
        chunks.append((sign, " (x) ".join(slots)))
    return join_signed(chunks)


def print_canonical(e: Element) -> str:
    """Deterministic text form; parse_element(print_canonical(e)) == e."""
    return _print_terms({(m,): c for m, c in e.terms.items()})


def print_tensor(te: TensorElement) -> str:
    return _print_terms(te.terms)


# ----------------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------------

def emit_report(results, fmt: str, type_label: str,
                param_assignment: dict | None = None) -> bytes:
    """Serialize verification results (sorted by identity id).

    JSON schema: {"type", "paramAssignment", "results": [{"id",
    "paperAnchor", "status", "residual", "elapsedMillis"}]}.
    """
    rows = sorted(results, key=lambda r: r.identityId)
    if fmt == "json":
        import json   # only a JSON report needs it
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
