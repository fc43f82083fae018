"""Exact coefficient field: rational functions over the rationals.

A polynomial is a dict mapping exponent tuples (one entry per parameter) to
``Fraction`` coefficients; the zero polynomial is the empty dict.  A
RationalFunction is a reduced fraction of two such polynomials with the
denominator normalized to leading coefficient 1 under graded-lexicographic
order (variables compared in the order the ParamSet lists them).

All values are immutable after construction and all operations are pure.
An operation may return one of its operands unchanged (``a * 1`` is ``a``
itself), so a value, and the polynomial dicts inside it, must never be
mutated once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import sub
from typing import Mapping, Union

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]

Rat = Union[int, Fraction]


class QspError(Exception):
    """Base class for all errors raised by this package."""


class ZeroDenominator(QspError):
    pass


class DivisionByZero(QspError):
    pass


class PoleAtAssignment(QspError):
    pass


class MissingVariable(QspError):
    pass


# ----------------------------------------------------------------------------
# Parameter sets
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSet:
    """Ordered, duplicate-free list of parameter names for one calculus mode."""

    mode: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate parameter names: {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise MissingVariable(f"unknown parameter {name!r}") from None

    # zero and one are built once per parameter set and shared; values are
    # immutable, so every caller may hold the same instance
    @cached_property
    def _zero(self) -> "RationalFunction":
        return RationalFunction(self, {}, _poly_const(self.nvars, 1), _raw=True)

    @cached_property
    def _one(self) -> "RationalFunction":
        c = _poly_const(self.nvars, 1)
        return RationalFunction(self, c, dict(c), _raw=True)

    def zero(self) -> "RationalFunction":
        return self._zero

    def one(self) -> "RationalFunction":
        return self._one

    def const(self, value: Rat) -> "RationalFunction":
        if value == 0:
            return self._zero
        if value == 1:
            return self._one
        return RationalFunction(
            self, _poly_const(self.nvars, value), _poly_const(self.nvars, 1), _raw=True
        )

    def var(self, name: str) -> "RationalFunction":
        return RationalFunction(
            self, _poly_var(self.nvars, self.index(name)), _poly_const(self.nvars, 1), _raw=True
        )

    def rf(self, value: "Rat | str | RationalFunction") -> "RationalFunction":
        if isinstance(value, RationalFunction):
            if value.params != self:
                raise ValueError("parameter set mismatch")
            return value
        if isinstance(value, str):
            return self.var(value)
        return self.const(value)


PARAMS_I = ParamSet("I", ("q",))
PARAMS_II = ParamSet("II", ("q", "r"))
PARAMS_III = ParamSet("III", ("q", "p"))


# ----------------------------------------------------------------------------
# Polynomial arithmetic (dict of exponent tuple -> Fraction)
# ----------------------------------------------------------------------------

def _poly_const(n: int, value: Rat) -> Poly:
    c = Fraction(value)
    return {(0,) * n: c} if c else {}


def _poly_var(n: int, idx: int) -> Poly:
    e = [0] * n
    e[idx] = 1
    return {tuple(e): Fraction(1)}


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _poly_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _poly_sub(a: Poly, b: Poly) -> Poly:
    return _poly_add(a, _poly_neg(b))


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _poly_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: v * c for m, v in a.items()}


def _grlex_key(m: Exponent) -> tuple:
    return (sum(m), m)


def _poly_leading(a: Poly) -> tuple[Exponent, Fraction]:
    m = max(a, key=_grlex_key)
    return m, a[m]


def _poly_is_one(a: Poly) -> bool:
    if len(a) != 1:
        return False
    (m, c), = a.items()
    return c == 1 and not any(m)


def _mono_divides(m: Exponent, n: Exponent) -> bool:
    return all(x <= y for x, y in zip(m, n))


def _poly_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ArithmeticError if b does not divide a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if _poly_is_one(b):
        return dict(a)
    quot: Poly = {}
    if len(b) == 1:
        # a single-term divisor divides term by term; monomial gcds are monic
        (mb, cb), = b.items()
        for m, c in a.items():
            e = tuple(map(sub, m, mb))
            if min(e, default=0) < 0:
                raise ArithmeticError("inexact polynomial division")
            quot[e] = c if cb == 1 else c / cb
        return quot
    rem = dict(a)
    mb, cb = _poly_leading(b)
    while rem:
        mr, cr = _poly_leading(rem)
        if not _mono_divides(mb, mr):
            raise ArithmeticError("inexact polynomial division")
        m = tuple(x - y for x, y in zip(mr, mb))
        c = cr / cb
        quot[m] = c
        rem = _poly_sub(rem, _poly_mul({m: c}, b))
    return quot


def _monomial_gcd(a: Poly, b: Poly) -> Poly:
    """GCD when at least one argument is a single term (content ignored)."""
    exps = None
    for p in (a, b):
        for m in p:
            exps = m if exps is None else tuple(min(x, y) for x, y in zip(exps, m))
    assert exps is not None
    return {exps: Fraction(1)}


def _to_univar(a: Poly, v: int) -> dict[int, Poly]:
    out: dict[int, Poly] = {}
    for m, c in a.items():
        d = m[v]
        rest = list(m)
        rest[v] = 0
        out.setdefault(d, {})[tuple(rest)] = c
    return out


def _from_univar(u: dict[int, Poly], v: int) -> Poly:
    out: Poly = {}
    for d, p in u.items():
        for m, c in p.items():
            mm = list(m)
            mm[v] = d
            out[tuple(mm)] = c
    return out


def _content(u: dict[int, Poly]) -> Poly:
    g: Poly = {}
    for p in u.values():
        g = poly_gcd(g, p)
    return g


def _univar_primitive(u: dict[int, Poly]) -> dict[int, Poly]:
    cont = _content(u)
    if _poly_is_one(cont):
        return u
    return {d: _poly_div_exact(p, cont) for d, p in u.items()}


def _pseudo_rem(a: dict[int, Poly], b: dict[int, Poly]) -> dict[int, Poly]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, univariate in v."""
    db = max(b)
    lcb = b[db]
    r = a
    steps = max(a) - db + 1
    done = 0
    while r and max(r) >= db:
        dr = max(r)
        lcr = r[dr]
        shifted = {d + dr - db: _poly_mul(p, lcr) for d, p in b.items()}
        scaled = {d: _poly_mul(p, lcb) for d, p in r.items()}
        rr: dict[int, Poly] = {}
        for d in set(scaled) | set(shifted):
            p = _poly_sub(scaled.get(d, {}), shifted.get(d, {}))
            if p:
                rr[d] = p
        r = rr
        done += 1
    # pad the lc(b) power so every caller sees the full factor
    for _ in range(steps - done):
        r = {d: _poly_mul(p, lcb) for d, p in r.items()}
    return r


def _univar_div_coeff(u: dict[int, Poly], c: Poly) -> dict[int, Poly]:
    return {d: _poly_div_exact(p, c) for d, p in u.items()}


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over the field of rationals, normalized to leading coefficient 1.

    Uses the subresultant polynomial remainder sequence on a primitive
    univariate view, recursing on the coefficient ring for contents.
    """
    if not a and not b:
        return {}
    if not a:
        return _poly_monic(b)
    if not b:
        return _poly_monic(a)
    if len(a) == 1 or len(b) == 1:
        return _monomial_gcd(a, b)
    n = len(next(iter(a)))
    shared = [
        v
        for v in range(n)
        if any(m[v] for m in a) and any(m[v] for m in b)
    ]
    if not shared:
        return _poly_const(n, 1)
    v = shared[0]
    ua, ub = _to_univar(a, v), _to_univar(b, v)
    ca, cb = _content(ua), _content(ub)
    cg = poly_gcd(ca, cb)
    ua = _univar_div_coeff(ua, ca)
    ub = _univar_div_coeff(ub, cb)
    if max(ua) < max(ub):
        ua, ub = ub, ua
    one = _poly_const(n, 1)
    g, h = one, one
    while True:
        delta = max(ua) - max(ub)
        r = _pseudo_rem(ua, ub)
        if not r:
            break
        if max(r) == 0:
            # nonzero constant remainder: primitive parts are coprime
            ub = {0: one}
            break
        divisor = g
        for _ in range(delta):
            divisor = _poly_mul(divisor, h)
        ua, ub = ub, _univar_div_coeff(r, divisor)
        g = ua[max(ua)]
        if delta > 0:
            # h <- g^delta / h^(delta-1), exact in the coefficient ring
            num = one
            for _ in range(delta):
                num = _poly_mul(num, g)
            for _ in range(delta - 1):
                num = _poly_div_exact(num, h)
            h = num
    gg = _univar_primitive(ub) if max(ub) > 0 else ub
    out = _poly_mul(cg, _from_univar(gg, v))
    return _poly_monic(out)


def _poly_monic(a: Poly) -> Poly:
    if not a:
        return {}
    _, lc = _poly_leading(a)
    if lc == 1:
        return dict(a)
    return _poly_scale(a, 1 / lc)


def _poly_eval(a: Poly, values: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for m, c in a.items():
        term = c
        for e, v in zip(m, values):
            if e:
                term *= v ** e
        total += term
    return total


def _poly_substitute(a: Poly, values: dict[int, Fraction], n: int) -> Poly:
    """Partially substitute variables (by index); keeps the variable universe."""
    out: Poly = {}
    for m, c in a.items():
        term = c
        mm = list(m)
        for i, v in values.items():
            if mm[i]:
                term *= v ** mm[i]
                mm[i] = 0
        if term:
            key = tuple(mm)
            s = out.get(key, 0) + term
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _poly_substitute_rf(a: Poly, values: Mapping[int, "RationalFunction"],
                        target: ParamSet) -> "RationalFunction":
    """Substitute every variable by a rational function over ``target``."""
    total = target.zero()
    for m, c in a.items():
        term = target.const(c)
        for i, e in enumerate(m):
            if e:
                if i not in values:
                    raise MissingVariable(f"no value for variable index {i}")
                term = term * values[i] ** e
        total = total + term
    return total


def poly_str(a: Poly, variables: tuple[str, ...]) -> str:
    """Render a polynomial like ``q^2*r - 1/2*q + 3``; zero renders as ``0``."""
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=_grlex_key, reverse=True):
        c = a[m]
        factors = [
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(variables, m)
            if e
        ]
        if not factors:
            body = str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ----------------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------------

class RationalFunction:
    """Reduced fraction of multivariate polynomials over the rationals.

    Canonical form: gcd(num, den) = 1, the denominator has leading
    coefficient 1 under graded-lex order, and zero is exactly 0/1.
    """

    __slots__ = ("params", "num", "den")

    def __init__(self, params: ParamSet, num: Poly, den: Poly, _raw: bool = False):
        if not den:
            raise ZeroDenominator("denominator is the zero polynomial")
        if not _raw:
            num, den = _reduce(num, den)
        self.params = params
        self.num = num
        self.den = den

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return _poly_is_one(self.num) and _poly_is_one(self.den)

    def is_constant(self) -> bool:
        return (not self.num or not any(any(m) for m in self.num)) and _poly_is_one(self.den)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.num.values())) if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.params != other.params:
            raise ValueError("parameter set mismatch")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if self.den == other.den:
            return RationalFunction(self.params, _poly_add(self.num, other.num), dict(self.den))
        num = _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den))
        return RationalFunction(self.params, num, _poly_mul(self.den, other.den))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(self.params, _poly_neg(self.num), dict(self.den), _raw=True)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if not self.num or not other.num:
            return self.params.zero()
        if other.is_one():
            return self
        if self.is_one():
            return other
        if _poly_is_one(self.den) and _poly_is_one(other.den):
            # a product of polynomials is already reduced over denominator 1
            return RationalFunction(self.params, _poly_mul(self.num, other.num),
                                    self.den, _raw=True)
        # cross-cancel before multiplying to keep intermediates small
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if _poly_is_one(g1) else _poly_div_exact(self.num, g1)
        d2 = other.den if _poly_is_one(g1) else _poly_div_exact(other.den, g1)
        n2 = other.num if _poly_is_one(g2) else _poly_div_exact(other.num, g2)
        d1 = self.den if _poly_is_one(g2) else _poly_div_exact(self.den, g2)
        num = _poly_mul(n1, n2)
        den = _poly_mul(d1, d2)
        lm, lc = _poly_leading(den)
        if lc != 1:
            num = _poly_scale(num, 1 / lc)
            den = _poly_scale(den, 1 / lc)
        return RationalFunction(self.params, num, den, _raw=True)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        inv = RationalFunction(self.params, other.den, other.num)
        return self * inv

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n == 0:
            return self.params.one()
        base = self if n > 0 else self.params.one() / self
        out = self.params.one()
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.params == other.params and self.num == other.num
                and self.den == other.den)

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    # -- evaluation / substitution -------------------------------------------

    def eval(self, assignment: Mapping[str, Rat]) -> Fraction:
        values = []
        for v in self.params.variables:
            if v not in assignment:
                raise MissingVariable(f"no value for parameter {v!r}")
            values.append(Fraction(assignment[v]))
        den = _poly_eval(self.den, values)
        if den == 0:
            raise PoleAtAssignment(f"denominator vanishes at {dict(assignment)}")
        return _poly_eval(self.num, values) / den

    def substitute(self, assignment: Mapping[str, Rat]) -> "RationalFunction":
        """Substitute a subset of the parameters by exact rationals."""
        values = {self.params.index(k): Fraction(v) for k, v in assignment.items()}
        den = _poly_substitute(self.den, values, self.params.nvars)
        if not den:
            raise PoleAtAssignment(f"denominator vanishes at {dict(assignment)}")
        return RationalFunction(self.params, _poly_substitute(self.num, values, self.params.nvars), den)

    def project(self, target: ParamSet) -> "RationalFunction":
        """Re-express over ``target``; every dropped variable must be absent."""
        mapping = []
        for i, v in enumerate(self.params.variables):
            j = target.variables.index(v) if v in target.variables else None
            mapping.append(j)

        def conv(p: Poly) -> Poly:
            out: Poly = {}
            for m, c in p.items():
                mm = [0] * target.nvars
                for i, e in enumerate(m):
                    if e:
                        if mapping[i] is None:
                            raise ValueError(f"variable {self.params.variables[i]!r} still present")
                        mm[mapping[i]] = e
                out[tuple(mm)] = c
            return out

        return RationalFunction(target, conv(self.num), conv(self.den))

    def __str__(self) -> str:
        num = poly_str(self.num, self.params.variables)
        if _poly_is_one(self.den):
            return num
        return f"({num})/({poly_str(self.den, self.params.variables)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not num:
        n = len(next(iter(den)))
        return {}, _poly_const(n, 1)
    g = poly_gcd(num, den)
    if not _poly_is_one(g):
        num = _poly_div_exact(num, g)
        den = _poly_div_exact(den, g)
    _, lc = _poly_leading(den)
    if lc != 1:
        num = _poly_scale(num, 1 / lc)
        den = _poly_scale(den, 1 / lc)
    return num, den


# ----------------------------------------------------------------------------
# Module-level operation surface
# ----------------------------------------------------------------------------

def rf_make(params: ParamSet, num: Poly, den: Poly) -> RationalFunction:
    """Build a rational function in canonical reduced form."""
    return RationalFunction(params, num, den)


def rf_arith(op: str, a: RationalFunction, b: RationalFunction) -> RationalFunction:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown operation {op!r}")


def rf_eval(a: RationalFunction, assignment: Mapping[str, Rat]) -> Fraction:
    return a.eval(assignment)


def qnumber(m: int, base: RationalFunction) -> RationalFunction:
    """Deformed integer (1 - base^m)/(1 - base), as an exact geometric sum.

    Computed without dividing by (1 - base) so specializing base = 1 is safe:
    for m >= 0 this is 1 + base + ... + base^(m-1), and for m < 0 it is
    -base^m * (1 + base + ... + base^(-m-1)).
    """
    params = base.params
    if m == 0:
        return params.zero()
    k = abs(m)
    acc = params.zero()
    p = params.one()
    for _ in range(k):
        acc = acc + p
        p = p * base
    if m > 0:
        return acc
    return -(base ** m) * acc
