"""Exact coefficient field: rational functions over the rationals.

The deformation parameters are units, so almost every coefficient the
engine builds is an integer Laurent polynomial in them.  A value is stored
in one of two forms:

- Laurent form: a dict mapping exponent tuples (one entry per parameter,
  negative entries allowed) to nonzero ``int`` coefficients; zero is the
  empty dict.  Sums and products of two Laurent values are plain dict loops,
  with no gcd and no division.
- General form: a reduced fraction ``num/den`` of polynomials (dicts of
  non-negative exponent tuples to ``Fraction`` coefficients) with the
  denominator normalized to leading coefficient 1 under graded-lexicographic
  order (variables compared in the order the ParamSet lists them).

Demotion rule: a value is in Laurent form exactly when its reduced
denominator is a single term and its numerator coefficients are integers.
Every operation that reaches the general form (a division by a non-unit, a
literal like ``1/3``) demotes its result when it qualifies, so each value
has one form and ``==`` and ``hash`` are structural.  ``num`` and ``den``
give the reduced fraction of either form; for a Laurent value the
denominator is the monic monomial that shifts the numerator to
non-negative exponents.

All values are immutable after construction and all operations are pure.
An operation may return one of its operands unchanged (``a * 1`` is ``a``
itself), so a value, and the dicts inside it, must never be mutated once
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Mapping, Union

Exponent = tuple[int, ...]
Poly = dict[Exponent, Fraction]
Laurent = dict[Exponent, int]

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


class ResultTooLarge(QspError):
    """A result has a number too long to print (the interpreter's int-to-str
    digit limit)."""


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

    @cached_property
    def origin(self) -> Exponent:
        """The exponent tuple of the constant monomial."""
        return (0,) * self.nvars

    # zero and one are built once per parameter set and shared; values are
    # immutable, so every caller may hold the same instance
    @cached_property
    def _zero(self) -> "RationalFunction":
        return _value(self, {}, None)

    @cached_property
    def _one(self) -> "RationalFunction":
        return _value(self, {self.origin: 1}, None)

    def zero(self) -> "RationalFunction":
        return self._zero

    def one(self) -> "RationalFunction":
        return self._one

    def const(self, value: Rat) -> "RationalFunction":
        if value == 0:
            return self._zero
        if value == 1:
            return self._one
        c = Fraction(value)
        if c.denominator == 1:
            return _value(self, {self.origin: int(c)}, None)
        return _value(self, None, ({self.origin: c}, {self.origin: Fraction(1)}))

    def var(self, name: str) -> "RationalFunction":
        e = [0] * self.nvars
        e[self.index(name)] = 1
        return _value(self, {tuple(e): 1}, None)

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


def _assignment_str(assignment: Mapping[str, Rat]) -> str:
    """An assignment as the user writes it, e.g. ``q=0, r=1/2``."""
    return ", ".join(f"{name}={Fraction(value)}" for name, value in assignment.items())


def number_str(c: Rat) -> str:
    """``str(c)``, raising ResultTooLarge past the int-to-str digit limit."""
    try:
        return str(c)
    except ValueError:
        raise ResultTooLarge("result too large: a coefficient has too many digits to print") from None


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
            body = number_str(abs(c))
        else:
            body = "*".join(factors)
            if abs(c) != 1:
                body = f"{number_str(abs(c))}*{body}"
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
    """Rational function over the rationals, in Laurent or general form.

    ``lp`` holds the Laurent dict of a Laurent value and is None otherwise;
    ``_nd`` holds the reduced ``(num, den)`` of a general value and is None
    otherwise (see the module docstring for both forms).
    """

    __slots__ = ("params", "lp", "_nd")

    def __init__(self, params: ParamSet, num: Poly, den: Poly):
        """The value num/den of any two polynomials, den nonzero."""
        if not den:
            raise ZeroDenominator("denominator is the zero polynomial")
        self.params = params
        self.lp, self._nd = _forms(*_reduce(
            {m: Fraction(c) for m, c in num.items()},
            {m: Fraction(c) for m, c in den.items()}))

    # -- views ---------------------------------------------------------------

    def _frac(self) -> tuple[Poly, Poly]:
        if self._nd is not None:
            return self._nd
        lp = self.lp
        if not lp:
            return {}, {self.params.origin: Fraction(1)}
        low = [min(0, *e) for e in zip(*lp)]
        return ({tuple(map(sub, m, low)): Fraction(c) for m, c in lp.items()},
                {tuple(-e for e in low): Fraction(1)})

    @property
    def num(self) -> Poly:
        """Numerator of the reduced fraction."""
        return self._frac()[0]

    @property
    def den(self) -> Poly:
        """Denominator of the reduced fraction, monic; for a Laurent value,
        the single term that clears its negative exponents."""
        return self._frac()[1]

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.lp and self._nd is None

    def is_one(self) -> bool:
        lp = self.lp
        return lp is not None and len(lp) == 1 and lp.get(self.params.origin) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.params is not other.params and self.params != other.params:
            raise ValueError("parameter set mismatch")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        a, b = self.lp, other.lp
        if a is not None and b is not None:
            if not b:
                return self
            if not a:
                return other
            if len(a) < len(b):
                a, b = b, a
            out = dict(a)
            for m, c in b.items():
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
            return _value(self.params, out, None)
        (n1, d1), (n2, d2) = self._frac(), other._frac()
        if d1 == d2:
            num, den = _reduce(_poly_add(n1, n2), d1)
        else:
            num, den = _reduce(_poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1)),
                               _poly_mul(d1, d2))
        return _value(self.params, *_forms(num, den))

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        a, b = self.lp, other.lp
        if a is None or b is None:
            return self + (-other)
        if not b:
            return self
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                del out[m]
        return _value(self.params, out, None)

    def __neg__(self) -> "RationalFunction":
        if self.lp is not None:
            return _value(self.params, {m: -c for m, c in self.lp.items()}, None)
        num, den = self._nd
        return _value(self.params, None, (_poly_neg(num), den))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        a, b = self.lp, other.lp
        if a is not None and b is not None:
            if not a or not b:
                return self.params._zero
            origin = self.params.origin
            if len(a) == 1 and a.get(origin) == 1:
                return other
            if len(b) == 1:
                (mb, cb), = b.items()
                if cb == 1 and mb == origin:
                    return self
                return _value(self.params, _lp_times_term(a, mb, cb), None)
            if len(a) == 1:
                (ma, ca), = a.items()
                return _value(self.params, _lp_times_term(b, ma, ca), None)
            return _value(self.params, _lp_mul(a, b), None)
        if self.is_zero() or other.is_zero():
            return self.params._zero
        if other.is_one():
            return self
        if self.is_one():
            return other
        # cross-cancel before multiplying to keep intermediates small
        (n1, d1), (n2, d2) = self._frac(), other._frac()
        g1 = poly_gcd(n1, d2)
        g2 = poly_gcd(n2, d1)
        if not _poly_is_one(g1):
            n1, d2 = _poly_div_exact(n1, g1), _poly_div_exact(d2, g1)
        if not _poly_is_one(g2):
            n2, d1 = _poly_div_exact(n2, g2), _poly_div_exact(d1, g2)
        # monic factors and monic gcds leave the denominator monic
        return _value(self.params, *_forms(_poly_mul(n1, n2), _poly_mul(d1, d2)))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by zero rational function")
        b = other.lp
        if b is not None and len(b) == 1:
            (mb, cb), = b.items()
            if cb in (1, -1):
                # a unit: its inverse is a Laurent monomial too
                return self * _value(self.params, {tuple(-e for e in mb): cb}, None)
        num, den = other._frac()
        return self * RationalFunction(self.params, den, num)

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        base = self if n >= 0 else self.params.one() / self
        n = abs(n)
        out = self.params.one()
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.lp == other.lp and self._nd == other._nd
                and (self.params is other.params or self.params == other.params))

    def __hash__(self) -> int:
        if self.lp is not None:
            return hash(frozenset(self.lp.items()))
        num, den = self._nd
        return hash((frozenset(num.items()), frozenset(den.items())))

    # -- evaluation / substitution -------------------------------------------

    def eval(self, assignment: Mapping[str, Rat]) -> Fraction:
        values = []
        for v in self.params.variables:
            if v not in assignment:
                raise MissingVariable(f"no value for parameter {v!r}")
            values.append(Fraction(assignment[v]))
        num, den = self._frac()
        d = _poly_eval(den, values)
        if d == 0:
            raise PoleAtAssignment(f"denominator vanishes at {_assignment_str(assignment)}")
        return _poly_eval(num, values) / d

    def substitute(self, assignment: Mapping[str, Rat]) -> "RationalFunction":
        """Substitute a subset of the parameters by exact rationals."""
        values = {self.params.index(k): Fraction(v) for k, v in assignment.items()}
        num, den = self._frac()
        den = _poly_substitute(den, values, self.params.nvars)
        if not den:
            raise PoleAtAssignment(f"denominator vanishes at {_assignment_str(assignment)}")
        return RationalFunction(self.params, _poly_substitute(num, values, self.params.nvars), den)

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

        num, den = self._frac()
        return RationalFunction(target, conv(num), conv(den))

    def __str__(self) -> str:
        num, den = self._frac()
        body = poly_str(num, self.params.variables)
        if _poly_is_one(den):
            return body
        return f"({body})/({poly_str(den, self.params.variables)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_new = object.__new__


def _value(params: ParamSet, lp: Laurent | None,
           nd: tuple[Poly, Poly] | None) -> RationalFunction:
    """A value from its stored form, with no checks."""
    rf = _new(RationalFunction)
    rf.params = params
    rf.lp = lp
    rf._nd = nd
    return rf


def _forms(num: Poly, den: Poly) -> tuple[Laurent | None, tuple[Poly, Poly] | None]:
    """The stored form of a reduced fraction: demoted to a Laurent dict when
    the (monic) denominator is one term and the numerator is integral."""
    if len(den) == 1 and all(c.denominator == 1 for c in num.values()):
        (md, _), = den.items()
        return {tuple(map(sub, m, md)): int(c) for m, c in num.items()}, None
    return None, (num, den)


def _lp_times_term(a: Laurent, m: Exponent, c: int) -> Laurent:
    """a * c*m; a single term shifts exponents injectively, so nothing cancels."""
    if not any(m):
        return {e: v * c for e, v in a.items()}
    return {tuple(map(add, e, m)): v * c for e, v in a.items()}


def _lp_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return out


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
    b = base.lp
    if b is None:
        acc = params.zero()
        p = params.one()
        for _ in range(k):
            acc = acc + p
            p = p * base
    else:
        # one dict takes every power in place: linear in k, not quadratic
        out: Laurent = {}
        p = {params.origin: 1}
        for _ in range(k):
            for e, c in p.items():
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            p = _lp_mul(p, b)
        acc = _value(params, out, None)
    if m > 0:
        return acc
    return -(base ** m) * acc
