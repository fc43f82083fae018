"""Exact coefficients: Laurent polynomials over the rationals.

The deformation parameters are units, so every structure coefficient of the
calculus is a Laurent monomial in them and every coefficient the engine
builds is a Laurent polynomial.  A value is stored in one form, ``packed``:
a dict mapping packed exponent vectors to nonzero rational coefficients;
zero is the empty dict.  A whole coefficient is stored as an ``int`` and
any other as a ``Fraction`` whose denominator is not 1, so each value has
one stored form and ``==`` and ``hash`` are structural.  Nothing is stored
beside ``packed``: whether a value has whole coefficients is read off it.
A sum stores each whole ``Fraction`` it adds up as its ``int``, and every
other new dict passes through ``_rational``, which does so for all its
coefficients; a difference is the sum with the negation.

Packed keys.  The exponent vector (e_0, ..., e_{n-1}) of n parameters is
stored as one int, ``sum((e_i + 2^62) << 64*i)``: each exponent is a biased
64-bit field, and the vector of all zeros is ``params._origin``.  Every
stored exponent lies in ``[-EXPONENT_LIMIT, EXPONENT_LIMIT)``, EXPONENT_LIMIT
being 2^62, so every field lies in ``[0, 2^63)`` and its top bit is clear.
The product of two terms is then one int sum, ``ka + kb - origin``, and a
quotient ``ka - kb + origin``: each field of the result is the sum (or
difference) of two exponents plus the bias, with no carry into the next
field while it stays in range.  A field that leaves the range, the lowest
one first, sets its top bit, so one mask test (``params._guard``, the top
bit of every field) tells an in-range result from one that would alias
another vector; the test raises ``ResultTooLarge`` (exit 2) instead, and no
out-of-range exponent is ever stored.  Every path that makes a new key
either tests it or packs it through ``ParamSet._pack``, which checks each
exponent.  Nearly every structure coefficient is a single signed term, so
most products the engine makes are of two single terms; such a product is
built directly, one int sum and one coefficient product, a whole
``Fraction`` product stored as an ``int``.  A value hashes the frozen
set of its (key, coefficient) pairs.

The packed form is private to this module.  ``RationalFunction(params,
terms)`` builds a value from a ``{exponent tuple: rational}`` dict, and the
read-only view ``lp`` gives such a dict back (a fresh one on each read), so
callers and tests keep reading exponent tuples.  The printers, ``fraction``,
``project`` and the constraint code of ``covariance`` read tuples through
that view; a reader that only asks whether a value is zero, or how many
terms it has, reads ``packed`` itself.  Sums, differences and products of
Laurent polynomials are Laurent polynomials, and so is a quotient by a
single term.  A quotient by a value of more than one term is not, and
raises ``NonMonomialDivisor``, an input error.  Every printed coefficient is
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
from functools import reduce
from operator import or_, sub

Exponent = tuple[int, ...]
Rat = int | Fraction
Laurent = dict[Exponent, Rat]
Packed = dict[int, Rat]

# every stored exponent e satisfies -EXPONENT_LIMIT <= e < EXPONENT_LIMIT;
# one past it raises ResultTooLarge
EXPONENT_LIMIT = 2 ** 62
_FIELD = 2 ** 64 - 1     # the bits of one packed exponent (see the docstring)


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
    digit limit), or an exponent outside the stored range (EXPONENT_LIMIT)."""


def _exponent_too_large() -> ResultTooLarge:
    return ResultTooLarge("result too large: a coefficient has an exponent outside "
                          "[-2^62, 2^62)")


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
            # origin (the exponent tuple of the constant monomial) and its
            # packed key, the guard mask of packed keys, one and zero are
            # built once and shared, as plain attributes (the cheapest to
            # read); one is built directly, since ``_value`` returns it for
            # every value equal to 1
            self = cls._made[key] = object.__new__(cls)
            self.mode, self.variables = key
            n = len(variables)
            self.origin = (0,) * n
            self._origin = sum(EXPONENT_LIMIT << 64 * i for i in range(n))
            self._guard = self._origin << 1
            self._unpack = _unpacker(n)
            self._one = one = _new(RationalFunction)
            one.params, one.packed = self, {self._origin: 1}
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

    def _pack(self, m: Exponent) -> int:
        """The packed key of the exponent tuple ``m``, each entry checked."""
        if len(m) != len(self.variables):
            raise ValueError(f"exponent {m} does not have one entry per parameter "
                             f"of {self.variables}")
        key = self._origin
        for i, e in enumerate(m):
            if not -EXPONENT_LIMIT <= e < EXPONENT_LIMIT:
                raise _exponent_too_large()
            key += e << 64 * i
        return key

    def zero(self) -> "RationalFunction":
        return self._zero

    def one(self) -> "RationalFunction":
        return self._one

    def const(self, value: Rat) -> "RationalFunction":
        if value == 0:
            return self._zero
        if type(value) is int:
            # _value returns the shared one for 1
            return _value(self, {self._origin: value})
        return _rational(self, {self._origin: Fraction(value)})

    def var(self, name: str) -> "RationalFunction":
        return _value(self, {self._origin + (1 << 64 * self.index(name)): 1})

    def rf(self, value: "Rat | str | RationalFunction") -> "RationalFunction":
        if isinstance(value, RationalFunction):
            if value.params is not self:
                raise ValueError("parameter set mismatch")
            return value
        if isinstance(value, str):
            return self.var(value)
        return self.const(value)


def _unpacker(n: int):
    """The function that reads a packed key of n fields back as its exponent
    tuple.  One and two parameters, every family's, get a direct form, about
    twice as fast as the loop: printing a coefficient decodes every key."""
    if n == 1:
        return lambda k: (k - EXPONENT_LIMIT,)
    if n == 2:
        return lambda k: ((k & _FIELD) - EXPONENT_LIMIT, (k >> 64) - EXPONENT_LIMIT)
    shifts = range(0, 64 * n, 64)
    return lambda k: tuple([(k >> s & _FIELD) - EXPONENT_LIMIT for s in shifts])


def _in_range(params: ParamSet, packed: Packed) -> Packed:
    """``packed`` itself, once none of its keys holds an exponent out of
    range: such a key has a guard bit set, and then so has the or of all
    keys."""
    if reduce(or_, packed, 0) & params._guard:
        raise _exponent_too_large()
    return packed


# ----------------------------------------------------------------------------
# Printing: one Laurent term, signed pieces, polynomials (dict of exponent
# tuple -> rational)
# ----------------------------------------------------------------------------

def _grlex_key(m: Exponent) -> tuple:
    return (sum(m), m)


def poly_gcd(a: Laurent, b: Laurent) -> Laurent:
    """Nothing calls this: no coefficient needs a gcd.  The name stays only
    as a target of ``perfbench/tracer.py``, which ROADMAP item 27 drops."""
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

    ``packed``, the Laurent dict on packed keys, is the whole stored form:
    a coefficient is an ``int`` exactly when it is whole, so whether a
    value has whole coefficients is read off ``packed`` (see the module
    docstring).  ``lp`` is its view on exponent tuples.
    """

    __slots__ = ("params", "packed")

    def __new__(cls, params: ParamSet, terms: Mapping[Exponent, Rat]) -> "RationalFunction":
        """The Laurent polynomial with the given {exponent tuple: rational}
        terms.  ``terms`` is copied: zero coefficients are dropped and a
        whole ``Fraction`` becomes an ``int``.  An exponent outside
        ``[-EXPONENT_LIMIT, EXPONENT_LIMIT)`` raises ResultTooLarge, and a
        tuple without one entry per parameter ValueError."""
        pack = params._pack
        return _rational(params, {pack(m): c for m, c in terms.items() if c})

    # -- views ---------------------------------------------------------------

    @property
    def lp(self) -> Laurent:
        """The terms as a fresh {exponent tuple: rational} dict."""
        unpack = self.params._unpack
        return {unpack(k): c for k, c in self.packed.items()}

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
        return not self.packed

    def is_one(self) -> bool:
        packed = self.packed
        return len(packed) == 1 and packed.get(self.params._origin) == 1

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "RationalFunction") -> None:
        if self.params is not other.params:
            raise ValueError("parameter set mismatch")

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        a, b = self.packed, other.packed
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        # the entries copied from a are stored already: only a sum is demoted
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                del out[m]
        return _value(self.params, out)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + -other

    def __neg__(self) -> "RationalFunction":
        return _value(self.params, {m: -c for m, c in self.packed.items()})

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        params = self.params
        if params is not other.params:
            self._check(other)
        a, b = self.packed, other.packed
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
                # one term each: one key sum and its guard test, one
                # coefficient product
                (ma, ca), = a.items()
                m = ma + mb - params._origin
                if m & params._guard:
                    raise _exponent_too_large()
                c = ca * cb
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                return _value(params, {m: c})
            out = _lp_times_term(params, a, mb, cb)
        elif len(a) == 1:
            (ma, ca), = a.items()
            out = _lp_times_term(params, b, ma, ca)
        else:
            out = _lp_mul(params, a, b)
        return _rational(params, out)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        self._check(other)
        b = other.packed
        if not b:
            raise DivisionByZero("division by zero rational function")
        if len(b) > 1:
            raise NonMonomialDivisor(
                f"division by a coefficient of {len(b)} terms: a divisor must be a single term")
        (mb, cb), = b.items()
        shift = self.params._origin - mb
        quotients = {m + shift: Fraction(c, cb) if c % cb else c // cb
                     for m, c in self.packed.items()}
        return _rational(self.params, _in_range(self.params, quotients))

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
        return self.packed == other.packed and self.params is other.params

    def __hash__(self) -> int:
        return hash(frozenset(self.packed.items()))

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: Mapping[str, Rat]) -> "RationalFunction":
        """Substitute a subset of the parameters by exact rationals."""
        # the field of parameter i starts at bit 64*i; a substituted
        # exponent's field is set back to the bias, exponent 0
        values = {64 * self.params.index(k): Fraction(v) for k, v in assignment.items()}
        out: Packed = {}
        for m, c in self.packed.items():
            for shift, v in values.items():
                e = (m >> shift & _FIELD) - EXPONENT_LIMIT
                if e:
                    if e < 0 and not v:
                        raise PoleAtAssignment(
                            f"denominator vanishes at {_assignment_str(assignment)}")
                    c = c * v ** e
                    m -= e << shift
            if c:
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return _rational(self.params, out)

    def project(self, target: ParamSet) -> "RationalFunction":
        """Re-express over ``target``; every dropped variable must be absent."""
        mapping = [target.variables.index(v) if v in target.variables else None
                   for v in self.params.variables]
        out: Packed = {}
        for m, c in self.lp.items():
            e = [0] * target.nvars
            for i, k in enumerate(m):
                if k:
                    if mapping[i] is None:
                        raise ValueError(f"variable {self.params.variables[i]!r} still present")
                    e[mapping[i]] = k
            out[target._pack(e)] = c
        return _value(target, out)

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


def _value(params: ParamSet, packed: Packed) -> RationalFunction:
    """A value from its stored form, with no checks; a value equal to 1 is
    ``params``' shared one."""
    one = params._one
    if packed == one.packed:
        return one
    rf = _new(RationalFunction)
    rf.params = params
    rf.packed = packed
    return rf


def _rational(params: ParamSet, packed: Packed) -> RationalFunction:
    """A value from a fresh dict of nonzero ``int`` and ``Fraction``
    coefficients; a whole ``Fraction`` becomes an ``int`` in place."""
    for m, c in packed.items():
        if type(c) is Fraction and c.denominator == 1:
            packed[m] = c.numerator
    return _value(params, packed)


def _lp_times_term(params: ParamSet, a: Packed, m: int, c: Rat) -> Packed:
    """a * c*m; a single term shifts keys injectively, so nothing cancels."""
    shift = m - params._origin
    if not shift:
        return {e: v * c for e, v in a.items()}
    return _in_range(params, {e + shift: v * c for e, v in a.items()})


def _lp_mul(params: ParamSet, a: Packed, b: Packed) -> Packed:
    # each product key is tested before it is stored: an out-of-range key
    # could equal an in-range one and merge with it
    origin, guard = params._origin, params._guard
    out: Packed = {}
    get = out.get
    for ma, ca in a.items():
        ma -= origin
        for mb, cb in b.items():
            m = ma + mb
            if m & guard:
                raise _exponent_too_large()
            s = get(m, 0) + ca * cb
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
    acc, p = base.params.zero(), base.params.one()
    for _ in range(abs(m)):
        acc, p = acc + p, p * base
    if m >= 0:
        return acc
    return -(base ** m) * acc
