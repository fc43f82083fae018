"""Exact coefficients: Laurent polynomials over the rationals.

The deformation parameters are units, so every structure coefficient of the
calculus is a Laurent monomial in them and every coefficient the engine
builds is a Laurent polynomial.  A value is stored in one form: a dict
mapping exponent tuples (one entry per parameter, negative entries allowed)
to nonzero rational coefficients; zero is the empty dict.  An integral
coefficient is stored as an ``int`` and any other as a ``Fraction``, so each
value has one stored form and ``==`` and ``hash`` are structural.  A value
whose coefficients are all ``int`` is *integral*; sums and products of
integral values are plain int dict loops.  Nearly every structure
coefficient is a single signed term, so most products the engine makes are
of two single terms; such a product is built directly, one exponent-tuple
add and one coefficient product, an integral ``Fraction`` product stored as
an ``int``.  A single-term value hashes its one (exponent, coefficient)
pair, any other value the frozen set of its pairs.

``RationalFunction(params, terms)`` builds a value from such a dict, and
``lp`` reads it back.  Sums, differences and products of Laurent
polynomials are Laurent polynomials, and so is a quotient by a single term.
A quotient by a value of more than one term is not, and raises
``NonMonomialDivisor``, an input error.  Every printed coefficient is
written by ``term_str``, one Laurent term, and ``join_signed``, which joins
signed pieces.  ``fraction()``, a polynomial over the monic single term
that clears the negative exponents, is read only by ``__str__`` and by the
printer's arm for a coefficient of more than one term
(``exprio._coeff_term``).

A value equal to 1 is one object per parameter set, ``params.one()`` (a
``ParamSet`` is one object per mode and variables, however often it is
built): every operation and ``RationalFunction(params, terms)`` return it.
All values are immutable after construction and all operations are pure.
An operation may return one of its operands unchanged (``a * 1`` is ``a``
itself), so a value, and the dict inside it, must never be mutated once
built.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from operator import add, sub

Exponent = tuple[int, ...]
Rat = int | Fraction
Laurent = dict[Exponent, Rat]


class QspError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(QspError):
    pass


class NonMonomialDivisor(QspError):
    """A divisor of more than one term: its quotients are not Laurent
    polynomials."""


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

class ParamSet:
    """Ordered, duplicate-free list of parameter names for one calculus mode.

    There is one set per (mode, variables): the constructor returns the set
    already made for them, so parameter sets compare by ``is`` alone."""

    _made: dict = {}

    def __new__(cls, mode: str, variables: tuple[str, ...]) -> "ParamSet":
        key = (mode, tuple(variables))
        self = cls._made.get(key)
        if self is None:
            if len(set(variables)) != len(variables):
                raise ValueError(f"duplicate parameter names: {variables}")
            # origin (the exponent tuple of the constant monomial), one and
            # zero are built once and shared, as plain attributes (the
            # cheapest to read); one is built directly, since ``_value``
            # returns it for every value equal to 1
            self = cls._made[key] = object.__new__(cls)
            self.mode, self.variables = key
            self.origin = (0,) * len(variables)
            self._one = one = _new(RationalFunction)
            one.params, one.lp, one.integral = self, {self.origin: 1}, True
            self._zero = _value(self, {})
        return self

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise MissingVariable(f"unknown parameter {name!r}") from None

    def zero(self) -> "RationalFunction":
        return self._zero

    def one(self) -> "RationalFunction":
        return self._one

    def const(self, value: Rat) -> "RationalFunction":
        if value == 0:
            return self._zero
        if type(value) is int:
            # _value returns the shared one for 1
            return _value(self, {self.origin: value})
        return _rational(self, {self.origin: Fraction(value)})

    def var(self, name: str) -> "RationalFunction":
        e = [0] * self.nvars
        e[self.index(name)] = 1
        return _value(self, {tuple(e): 1})

    def rf(self, value: "Rat | str | RationalFunction") -> "RationalFunction":
        if isinstance(value, RationalFunction):
            if value.params is not self:
                raise ValueError("parameter set mismatch")
            return value
        if isinstance(value, str):
            return self.var(value)
        return self.const(value)


# ----------------------------------------------------------------------------
# Printing: one Laurent term, signed pieces, polynomials (dict of exponent
# tuple -> rational)
# ----------------------------------------------------------------------------

def _grlex_key(m: Exponent) -> tuple:
    return (sum(m), m)


def poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Nothing calls this: no coefficient needs a gcd.  The name stays only
    as a target of ``perfbench/tracer.py``, which ROADMAP item 1b drops."""
    raise NotImplementedError("coefficients are Laurent polynomials; no gcd is taken")


def _assignment_str(assignment: Mapping[str, Rat]) -> str:
    """An assignment as the user writes it, e.g. ``q=0, r=1/2``."""
    return ", ".join(f"{name}={Fraction(value)}" for name, value in assignment.items())


def number_str(c: Rat) -> str:
    """``str(c)``, raising ResultTooLarge past the int-to-str digit limit."""
    try:
        return str(c)
    except ValueError:
        raise ResultTooLarge("result too large: a coefficient has too many digits to print") from None


def term_str(m: Exponent, c: Rat, variables: tuple[str, ...]) -> tuple[int, str]:
    """The Laurent term ``c`` times the powers ``m`` as (sign, body), the
    sign pulled out: ``|c|`` is dropped when it is 1 and a power is present,
    ``v^1`` is written ``v``, and positive powers come before negative ones,
    each group in parameter order (``-r/q`` is (-1, ``r*q^-1``))."""
    powers = [i for i, e in enumerate(m) if e > 0] + [i for i, e in enumerate(m) if e < 0]
    factors = [variables[i] if m[i] == 1 else f"{variables[i]}^{m[i]}" for i in powers]
    if abs(c) != 1 or not factors:
        factors.insert(0, number_str(abs(c)))
    return (-1 if c < 0 else 1), "*".join(factors)


def join_signed(chunks: list[tuple[int, str]]) -> str:
    """Join (sign, text) pieces as ``a - b + c``; a minus on the first is a prefix."""
    (sign, piece), *rest = chunks
    out = ("-" if sign < 0 else "") + piece
    for sign, piece in rest:
        out += (" - " if sign < 0 else " + ") + piece
    return out


def poly_str(a: Laurent, variables: tuple[str, ...]) -> str:
    """Render a polynomial like ``q^2*r - 1/2*q + 3``; zero renders as ``0``."""
    if not a:
        return "0"
    return join_signed([term_str(m, a[m], variables)
                        for m in sorted(a, key=_grlex_key, reverse=True)])


# ----------------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------------

class RationalFunction:
    """A Laurent polynomial over the rationals in the parameters.

    ``lp`` is the Laurent dict; ``integral`` is True when every coefficient
    in it is an ``int`` (see the module docstring).
    """

    __slots__ = ("params", "lp", "integral")

    def __new__(cls, params: ParamSet, terms: Mapping[Exponent, Rat]) -> "RationalFunction":
        """The Laurent polynomial with the given {exponent tuple: rational}
        terms.  ``terms`` is copied: zero coefficients are dropped and an
        integral ``Fraction`` becomes an ``int``."""
        return _rational(params, {m: c for m, c in terms.items() if c})

    # -- views ---------------------------------------------------------------

    def fraction(self) -> tuple[Laurent, Laurent]:
        """The value as (numerator, denominator) for printing: a polynomial
        over the monic single term that clears the negative exponents."""
        lp = self.lp
        if not lp:
            return {}, {self.params.origin: 1}
        low = [min(0, *e) for e in zip(*lp)]
        return ({tuple(map(sub, m, low)): c for m, c in lp.items()},
                {tuple(-e for e in low): 1})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.lp

    def is_one(self) -> bool:
        lp = self.lp
        return len(lp) == 1 and lp.get(self.params.origin) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.params is not other.params:
            raise ValueError("parameter set mismatch")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        a, b = self.lp, other.lp
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
        if self.integral and other.integral:
            return _value(self.params, out)
        return _rational(self.params, out)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        b = other.lp
        if not b:
            return self
        out = dict(self.lp)
        for m, c in b.items():
            s = out.get(m, 0) - c
            if s:
                out[m] = s
            else:
                del out[m]
        if self.integral and other.integral:
            return _value(self.params, out)
        return _rational(self.params, out)

    def __neg__(self) -> "RationalFunction":
        return _value(self.params, {m: -c for m, c in self.lp.items()}, self.integral)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        params = self.params
        if params is not other.params:
            self._check(other)
        a, b = self.lp, other.lp
        if not a or not b:
            return params._zero
        one = params._one
        if self is one:
            return other
        if other is one:
            return self
        if len(b) == 1:
            (mb, cb), = b.items()
            if len(a) == 1:
                # one term each: one exponent add, one coefficient product
                (ma, ca), = a.items()
                c = ca * cb
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                return _value(params, {tuple(map(add, ma, mb)): c}, type(c) is int)
            out = _lp_times_term(a, mb, cb)
        elif len(a) == 1:
            (ma, ca), = a.items()
            out = _lp_times_term(b, ma, ca)
        else:
            out = _lp_mul(a, b)
        if self.integral and other.integral:
            return _value(params, out)
        return _rational(params, out)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        b = other.lp
        if not b:
            raise DivisionByZero("division by zero rational function")
        if len(b) > 1:
            raise NonMonomialDivisor(
                f"division by a coefficient of {len(b)} terms: a divisor must be a single term")
        (mb, cb), = b.items()
        quotients = {tuple(map(sub, m, mb)): Fraction(c, cb) if c % cb else c // cb
                     for m, c in self.lp.items()}
        return _rational(self.params, quotients)

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
        return self.lp == other.lp and self.params is other.params

    def __hash__(self) -> int:
        lp = self.lp
        if len(lp) == 1:
            (term,) = lp.items()
            return hash(term)
        return hash(frozenset(lp.items()))

    # -- evaluation / substitution -------------------------------------------

    def eval(self, assignment: Mapping[str, Rat]) -> Fraction:
        for v in self.params.variables:
            if v not in assignment:
                raise MissingVariable(f"no value for parameter {v!r}")
        value = self.substitute({v: assignment[v] for v in self.params.variables})
        return Fraction(value.lp.get(self.params.origin, 0))

    def substitute(self, assignment: Mapping[str, Rat]) -> "RationalFunction":
        """Substitute a subset of the parameters by exact rationals."""
        values = {self.params.index(k): Fraction(v) for k, v in assignment.items()}
        out: Laurent = {}
        for m, c in self.lp.items():
            e = list(m)
            for i, v in values.items():
                if e[i]:
                    if e[i] < 0 and not v:
                        raise PoleAtAssignment(
                            f"denominator vanishes at {_assignment_str(assignment)}")
                    c = c * v ** e[i]
                    e[i] = 0
            if c:
                key = tuple(e)
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _rational(self.params, out)

    def project(self, target: ParamSet) -> "RationalFunction":
        """Re-express over ``target``; every dropped variable must be absent."""
        mapping = [target.variables.index(v) if v in target.variables else None
                   for v in self.params.variables]
        out: Laurent = {}
        for m, c in self.lp.items():
            e = [0] * target.nvars
            for i, k in enumerate(m):
                if k:
                    if mapping[i] is None:
                        raise ValueError(f"variable {self.params.variables[i]!r} still present")
                    e[mapping[i]] = k
            out[tuple(e)] = c
        return _value(target, out, self.integral)

    def __str__(self) -> str:
        num, den = self.fraction()
        body = poly_str(num, self.params.variables)
        (m, _), = den.items()
        if not any(m):
            return body
        return f"({body})/({poly_str(den, self.params.variables)})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


_new = object.__new__


def _value(params: ParamSet, lp: Laurent, integral: bool = True) -> RationalFunction:
    """A value from its stored form, with no checks; a value equal to 1 is
    ``params``' shared one."""
    one = params._one
    if lp == one.lp:
        return one
    rf = _new(RationalFunction)
    rf.params = params
    rf.lp = lp
    rf.integral = integral
    return rf


def _rational(params: ParamSet, lp: Laurent) -> RationalFunction:
    """A value from a fresh dict of nonzero ``int`` and ``Fraction``
    coefficients; an integral ``Fraction`` becomes an ``int`` in place."""
    integral = True
    for m, c in lp.items():
        if type(c) is Fraction:
            if c.denominator == 1:
                lp[m] = c.numerator
            else:
                integral = False
    return _value(params, lp, integral)


def _lp_times_term(a: Laurent, m: Exponent, c: Rat) -> Laurent:
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


# a ParamSet builds its one and zero, so the three families' sets come after
# RationalFunction and _value
PARAMS_I = ParamSet("I", ("q",))
PARAMS_II = ParamSet("II", ("q", "r"))
PARAMS_III = ParamSet("III", ("q", "p"))


# ----------------------------------------------------------------------------
# Deformed integers
# ----------------------------------------------------------------------------

def qnumber(m: int, base: RationalFunction) -> RationalFunction:
    """Deformed integer (1 - base^m)/(1 - base), as an exact geometric sum.

    Computed without dividing by (1 - base) so specializing base = 1 is safe:
    for m >= 0 this is 1 + base + ... + base^(m-1), and for m < 0 it is
    -base^m * (1 + base + ... + base^(-m-1)).
    """
    params = base.params
    if m == 0:
        return params.zero()
    # one dict takes every power in place: linear in |m|, not quadratic
    out: Laurent = {}
    p = {params.origin: 1}
    for _ in range(abs(m)):
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        p = _lp_mul(p, base.lp)
    acc = _value(params, out) if base.integral else _rational(params, out)
    if m > 0:
        return acc
    return -(base ** m) * acc
