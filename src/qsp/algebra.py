"""Graded operator algebra: generators, canonical monomials, rewrite engine.

Words are normal-ordered into the fixed generator order

    dx < dth < x < th < d < px < pth < ix < ith

(differential forms, then coordinates, then operators).  Every out-of-order
adjacent pair of generators has a rewrite rule whose right-hand side is
already normal-ordered.  Only the defining relations (5), (11) and (12) are
typed in, with ith*ix (97), in one table, ``_RULES``, each right-hand side
written with named coefficients; ``shaped_rules`` fills it with the values
of ``rule_coeffs`` and adds the squares g*g = 0 of the nilpotent generators
(``NILPOTENT``), rules that the engine reads like any other.
``rule_coeffs`` maps every scalar symbol of a type, so at
``covariance.ansatz_type``, whose symbols are unknowns, it also fills the
(75) and (78) ansatz shapes, one unknown per name, for
``covariance.ansatz_table`` to print their systems.  ``RuleTable.build``
validates its type before it fills the table.  The other rules are derived,
not transcribed: those of px, pth, ix and ith, (34), (36) and (84)-(86),
from the four (11) rules (``derived_rules``), and pth*px from d*d = 0
(``pth_px_rule``).  Rules against x^-1 are solved from the x-rules: a rule
g*x = c*x*g + rest gives g*x^-1 = c^-1 * x^-1*(g - rest*x^-1), and a rule
x*g = c*g*x + rest gives x^-1*g = c^-1 * (g - x^-1*rest)*x^-1.  A product
that first misses one solves it in place and runs its round trips
(g*x*x^-1 = g and the like), nesting a solve for each x^-1 rule that work
misses; on any error a solve restores the rules it saved and empties the
memos, so a rule is adopted only once all pass.  Reading ``rules`` solves
the rest one at a time.  A rule whose own solution needs it (the ix and ith
rules of the (75) and (78) ansatz carry each other's letters) raises
``NonInvertibleRule``, as a failed round trip does.

The engine multiplies by folding one generator at a time into a canonical
monomial.  One kernel, ``mul_mono_mono``, multiplies two monomials, a
single letter being the monomial g^1 or x^-1, and each table keeps one memo
of its products, keyed by the monomial pair, so every product that needs a
rewrite is computed once per table.  A product already in order is not
memoized: it is the merged monomial with the shared unit coefficient
``params.one()``, built directly, which costs less than a memo entry.
Every coefficient equal to 1 is ``params.one()`` already (``coeffs`` builds
it so), in the rules as in the products.  A memo entry keeps the
coefficients its product built, equal values not merged into one instance.
A sum of products, a memo miss's sum over its rule's terms included, is
accumulated in one plain dict, monomial to coefficient, with a term dropped
as soon as it cancels; a coefficient product is skipped when either factor
is the shared unit, which most memo coefficients are.  A plain ``Element``
is built around that dict with no copy, and two over one parameter set
compare by their terms alone.

Monomials are packed.  The exponents (e_0, ..., e_8) of a monomial, one
per generator in generator order, are stored as one int,
``sum((e_g + 2^30) << 32*g)``: each exponent is a biased 32-bit field, and
the unit monomial is ``ONE_MONO``, every field at the bias.  Every stored
exponent lies in ``[-MONO_EXPONENT_LIMIT, MONO_EXPONENT_LIMIT)``, the limit
being 2^30, so every field lies in ``[0, 2^31)`` and its top bit is clear.
The product of two monomials in order is then one sum, ``m1 + m2 -
ONE_MONO``: a field that leaves the range, the lowest one first, sets its
top bit, so one test of the guard mask (every field's top bit) raises
``ResultTooLarge`` (exit 2) instead of storing a key that would alias
another monomial, as ``coeffs`` does for its exponents; ``mono`` checks
each exponent it packs.  The last generator of a monomial is read off the
``bit_length`` of ``m ^ ONE_MONO``, its first off the lowest set bit, a
monomial splits into the generators up to g and those past it by two
masks (``_head_tail``), and its parity is the ``bit_count`` of the low
bits of the odd generators' fields.  The format is private to this
module: other modules and the tests build monomials with ``mono``, read
them with ``mono_exps`` and ``mono_exp``, and ask ``mono_str``,
``mono_sort_key``, ``mono_parity``, ``mono_is_form`` and
``mono_is_function``; a monomial is a hashable key, compared only for
equality.

Every generator block g^k with |k| >= 2 (a power of x, dth, px or ith) is
split in half, on either side of a product.  A left block passes a letter as
g^(k-b) (g^b letter) with b = k/2 rounded toward zero, and a right block is
multiplied as (m g^b) g^(k-b), so the recursion depth grows as log k.  When m
ends in the generator another monomial starts with, their product merges the
two blocks, but for a nilpotent generator it applies the table's rule g*g.
A right factor of several blocks is multiplied in one block at a time.
Confluence makes normal forms unique, so neither memo nor split changes an
answer.

An action ``act(op, f)`` on a form-sector ``f`` is the vacuum part of op*f:
the product without the terms that still carry an operator letter.  It is
computed directly, in a second memo keyed by monomial pairs, and the terms
the projection drops are never built.  An operator monomial u*o (u its form
letters, o its operator letters) acts on a*rest, with a the whole leading
generator block of the form monomial (x^k or dth^b is one block), as u times
the sum of c*(t acting on rest) over the terms c*t of o*a.  Rules never
create an operator letter, so u commutes with the projection; a monomial
without operator letters acts by plain multiplication, and an operator
monomial kills the unit.  The recursion is at most four blocks deep.

The local-confluence audit rewrites every short word along each applicable
first step, the product of an out-of-order pair's two letters (for a pair
without d, the table's rule), and folds the branch one letter at a time.
It makes one depth-first walk of the trie of words up to the audit's
length: a node carries its word[:-1] folded and the branches still to
compare, and a child extends each by its letter, so a prefix or branch
shared by several words is multiplied once.  A branch equal to the one
through the word's first step stays equal on every extension, so it is
dropped.  Its elements are flat, dicts (monomial, packed coefficient key)
-> rational, multiplied with no coefficient object per term; only a
violation's residual is regrouped into an Element.  Each kept product is
the plain fold's, the same kernel products summed exactly, so the audit
reports exactly what the fold would, also on a table that is not confluent.

The exterior-derivative generator d is accepted in input words but is not a
basis letter: the stated commutation relations make d - (dx*px + dth*pth)
a zero divisor killed by 1 - 1/Q, so for a generic deformation d coincides
with dx*px + dth*pth and keeping it independent would break confluence.
A word is therefore read with each d expanded into that realization
(``normalize_word`` multiplies by ``d_element()``), so normal forms are
d-free and the multiplication core never sees d.  The monomial keeps an
always-zero d field only to fix the audit's order of d between th and px.  No
rule table holds a rule for a pair involving d: the audit alone treats d as
a letter, multiplied as ``d_element()`` in its steps as in its folds.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import product as _itproduct

from .coeffs import (
    PARAMS_I,
    PARAMS_II,
    PARAMS_III,
    DivisionByZero,
    NonMonomialDivisor,
    ParamSet,
    QspError,
    Rat,
    RationalFunction,
    ResultTooLarge,
    _assignment_str,
    _exponent_too_large,
    _rational,
)


class UnsupportedGenerator(QspError):
    pass


class InconsistentType(QspError):
    pass


class NonInvertibleRule(QspError):
    pass


class NotAFunctionArgument(QspError):
    pass


# ----------------------------------------------------------------------------
# Generators and monomials
# ----------------------------------------------------------------------------

GENS = ("dx", "dth", "x", "th", "d", "px", "pth", "ix", "ith")
NGENS = len(GENS)
GEN_INDEX = {g: i for i, g in enumerate(GENS)}
DX, DTH, X, TH, D, PX, PTH, IX, ITH = range(NGENS)

# Exponent domains: x ranges over [-MONO_EXPONENT_LIMIT, MONO_EXPONENT_LIMIT),
# nilpotent generators over {0, 1}, the rest over [0, MONO_EXPONENT_LIMIT).
NILPOTENT = frozenset({DX, TH, D, PTH, IX})

# A monomial is one int, a biased 32-bit field per generator in generator
# order, generator g at bit 32*g (see the module docstring); one past the
# limit raises ResultTooLarge.
MONO_EXPONENT_LIMIT = 2 ** 30
_FIELD = 2 ** 32 - 1
_SHIFTS = range(0, 32 * NGENS, 32)
Monomial = int
ONE_MONO: Monomial = sum(MONO_EXPONENT_LIMIT << 32 * g for g in range(NGENS))
_GUARD = ONE_MONO << 1                              # the top bit of every field
_ODD = sum(1 << 32 * g for g in (DX, TH, D, PTH, IX))   # the odd generators' low bits
_NOT_FUNCTION = sum(_FIELD << 32 * g for g in (DX, DTH, D, PX, PTH, IX, ITH))
_OPERATORS = 32 * D                              # the first bit of the operator fields
_ONE_OPERATORS = ONE_MONO >> _OPERATORS


def _mono_too_large() -> ResultTooLarge:
    return ResultTooLarge("result too large: a monomial has an exponent outside "
                          "[-2^30, 2^30)")


def mono_exp(m: Monomial, g: int) -> int:
    """The exponent of generator ``g`` in ``m``."""
    return (m >> 32 * g & _FIELD) - MONO_EXPONENT_LIMIT


def mono_exps(m: Monomial) -> tuple:
    """The exponents of ``m``, one per generator, in generator order."""
    return tuple([(m >> s & _FIELD) - MONO_EXPONENT_LIMIT for s in _SHIFTS])


def mono_parity(m: Monomial) -> int:
    return (m & _ODD).bit_count() & 1


def mono_sort_key(m: Monomial):
    # graded order; ties print earlier generators (higher powers) first
    neg = [MONO_EXPONENT_LIMIT - (m >> s & _FIELD) for s in _SHIFTS]
    return (sum(map(abs, neg)), tuple(neg))


def mono_is_function(m: Monomial) -> bool:
    """True when the monomial is a pure coordinate word (x-powers and theta)."""
    return not (m ^ ONE_MONO) & _NOT_FUNCTION


def mono_is_form(m: Monomial) -> bool:
    """True when the monomial lives in the forms-times-coordinates sector."""
    return m >> _OPERATORS == _ONE_OPERATORS


def mono(**exps: int) -> Monomial:
    m = ONE_MONO
    for name, k in exps.items():
        if name not in GEN_INDEX:
            raise UnsupportedGenerator(f"unknown generator {name!r}")
        if name == "d":
            raise UnsupportedGenerator("d is not a basis letter; it is expanded in words")
        g = GEN_INDEX[name]
        if k < 0 and g != X:
            raise UnsupportedGenerator(f"negative power of {name!r} is not invertible")
        if k > 1 and g in NILPOTENT:
            raise UnsupportedGenerator(f"{name!r} is nilpotent; its powers above 1 are 0")
        if not -MONO_EXPONENT_LIMIT <= k < MONO_EXPONENT_LIMIT:
            raise _mono_too_large()
        m += k << 32 * g
    return m


def _letter_mono(letter: tuple) -> Monomial:
    """The monomial g^k of a letter (g, +1/-1) or of a block (g, k)."""
    g, k = letter
    return ONE_MONO + (k << 32 * g)


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    """The monomial m1*m2 for m1 in order with m2: one sum, whose guard
    test raises ResultTooLarge for an exponent past the limit."""
    m = m1 + m2 - ONE_MONO
    if m & _GUARD:
        raise _mono_too_large()
    return m


def _last_gen(m: Monomial) -> int:
    """The last generator of ``m`` (-1 for the unit)."""
    return ((m ^ ONE_MONO).bit_length() - 1) >> 5


def _first_gen(m: Monomial) -> int:
    """The first generator of ``m`` (NGENS for the unit)."""
    z = m ^ ONE_MONO
    return ((z & -z).bit_length() - 1) >> 5 if z else NGENS


def _head_tail(m: Monomial, g: int) -> tuple:
    """``m = head*tail``: head the generators of ``m`` up to ``g``, tail
    those past it."""
    low = (1 << 32 * (g + 1)) - 1
    head = m & low | ONE_MONO & ~low
    return head, m - head + ONE_MONO


def _half(k: int) -> int:
    """k/2 rounded toward zero: where a power g^k is split."""
    return k // 2 if k > 0 else -(-k // 2)


WordItem = str | tuple


def word_letters(word: Iterable[WordItem]):
    """Flatten a word given as generator names or (name, exponent) pairs."""
    for item in word:
        if isinstance(item, str):
            name, e = item, 1
        else:
            name, e = item
        if name not in GEN_INDEX:
            raise UnsupportedGenerator(f"unknown generator {name!r}")
        g = GEN_INDEX[name]
        if e == 0:
            continue
        if e < 0 and g != X:
            raise UnsupportedGenerator(f"negative power of {name!r} is not invertible")
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            yield (g, s)


# ----------------------------------------------------------------------------
# Elements: finite linear combinations over a hashable basis
# ----------------------------------------------------------------------------

def mono_str(m: Monomial) -> str:
    """A monomial as text, e.g. ``dx*x^-2*th``; the unit monomial is ``1``."""
    return "*".join([GENS[g] if e == 1 else f"{GENS[g]}^{e}"
                     for g, e in enumerate(mono_exps(m)) if e]) or "1"


_new = object.__new__


def _accumulate(acc: dict, terms: dict, c, one) -> None:
    """Add ``c`` times ``terms`` into the dict ``acc`` in place.  A term that
    cancels is dropped; a coefficient product is skipped when either factor
    is ``one``, the shared unit of the parameter set."""
    get = acc.get
    for m, v in terms.items():
        if c is not one:
            v = c if v is one else v * c
        old = get(m)
        if old is not None:
            v = old + v
            if not v.packed:
                del acc[m]
                continue
        acc[m] = v


class Element:
    """Finite linear combination over the coefficient field, keyed by a
    hashable basis.

    An algebra element is keyed by canonical monomials.  The tensor elements
    of the coproducts and coactions (``hopf.TensorElement``, keyed by tuples
    of monomials) and the dual-sector elements (``hopf.UElement``, keyed by
    (T, K, Nb) exponents) are Elements too: this class holds the one copy of
    their linear arithmetic.  A result has the type and parameter set of its
    left operand, and adding elements of different types raises TypeError;
    such elements, or ones of different parameter sets, are never equal, not
    even when both are zero.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: ParamSet, terms: dict | None = None):
        self.params = params
        self.terms: dict = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    def _like(self, terms: dict) -> "Element":
        """An element of this type and parameter set holding ``terms`` as given."""
        return _element(self.params, terms, type(self))

    @classmethod
    def zero(cls, params: ParamSet) -> "Element":
        return cls(params)

    @classmethod
    def one(cls, params: ParamSet) -> "Element":
        return cls(params, {ONE_MONO: params.one()})

    @classmethod
    def monomial(cls, params: ParamSet, m: Monomial, coeff: "Rat | RationalFunction" = 1) -> "Element":
        return cls(params, {m: params.rf(coeff)})

    @classmethod
    def scalar(cls, params: ParamSet, coeff) -> "Element":
        return cls(params, {ONE_MONO: params.rf(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, key, c: RationalFunction) -> None:
        """Add ``c`` times the basis element ``key`` in place.

        The in-place operations (``add_term``, ``add_scaled``) are only for a
        fresh accumulator that the caller built and still owns: never use
        them on an element held in a rule table, memo or cache, or on one
        already handed to other code.  Everywhere else use ``+``, ``-`` and
        ``scale``, which build new elements.
        """
        terms = self.terms
        old = terms.get(key)
        if old is not None:
            c = old + c
        if c.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = c

    def add_scaled(self, other: "Element", c: RationalFunction) -> None:
        """Add ``c * other`` into this element in place (see ``add_term``)."""
        if type(other) is not type(self):
            raise TypeError(f"cannot add a {type(other).__name__} to a {type(self).__name__}")
        if self.params is not other.params:
            raise ValueError("parameter set mismatch")
        if c.is_zero():
            return
        _accumulate(self.terms, other.terms, c, self.params.one())

    def __add__(self, other: "Element") -> "Element":
        out = self._like(dict(self.terms))
        out.add_scaled(other, self.params.one())
        return out

    def __neg__(self) -> "Element":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        if type(other) is not type(self):
            raise TypeError(f"cannot subtract a {type(other).__name__} from a {type(self).__name__}")
        if self.params is not other.params:
            raise ValueError("parameter set mismatch")
        if self.terms == other.terms:
            return self._like({})
        return self + -other

    def scale(self, coeff) -> "Element":
        c = self.params.rf(coeff)
        if c.is_zero():
            return self._like({})
        return self._like({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if type(self) is Element is type(other) and self.params is other.params:
            return self.terms == other.terms
        if not isinstance(other, Element):
            return NotImplemented
        return (type(self) is type(other) and self.params is other.params
                and self.terms == other.terms)

    def parity(self):
        """0, 1, or None when the element mixes parities (or is zero)."""
        ps = {mono_parity(m) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def is_function_sector(self) -> bool:
        return all(mono_is_function(m) for m in self.terms)

    def is_form_sector(self) -> bool:
        # mono_is_form on each term: the operator fields are D's and after
        for m in self.terms:
            if m >> _OPERATORS != _ONE_OPERATORS:
                return False
        return True

    def is_scalar(self) -> bool:
        return all(m == ONE_MONO for m in self.terms)

    def scalar_value(self) -> RationalFunction:
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.terms.get(ONE_MONO, self.params.zero())

    def vacuum(self) -> "Element":
        """Drop every term whose operator-sector exponents are not all zero."""
        return self._like({m: c for m, c in self.terms.items() if mono_is_form(m)})

    def __repr__(self):
        if not self.terms:
            return "<0>"
        terms = sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))
        return "<" + " + ".join(f"({c})*{mono_str(m)}" for m, c in terms) + ">"


def _element(params: ParamSet, terms: dict, cls: type = Element) -> Element:
    """A ``cls`` (a plain Element by default) holding ``terms`` as given,
    with no checks."""
    e = _new(cls)
    e.params = params
    e.terms = terms
    return e


# ----------------------------------------------------------------------------
# Calculus types (the three covariant parameter families)
# ----------------------------------------------------------------------------

# The structure coefficients of (11)-(12), named as a user types them; Qp is Q'.
COEFF_NAMES = ("Q", "Q11", "Q12", "Q21", "Q22", "Qp")


class CalculusType(namedtuple("CalculusType", ("params", *COEFF_NAMES, "assigned"),
                              defaults=((),))):
    """One covariant solution family: the six structure coefficients over
    the deformation parameters ``params``.

    The type owns the scalar symbols.  ``symbol`` reads a structure
    coefficient, a parameter, or a parameter that ``specialize`` assigned,
    whose value ``assigned`` records once it is gone from ``params``, as
    (parameter, value) pairs sorted by name; the parsers, the rule table,
    ``solve-types`` and the catalog read it.
    """

    __slots__ = ()

    def symbol(self, name: str) -> "RationalFunction | None":
        """The value of a scalar symbol at this type, or None for a name
        that is not one."""
        if name in COEFF_NAMES:
            return getattr(self, name)
        if name in self.params.variables:
            return self.params.var(name)
        value = dict(self.assigned).get(name)
        return None if value is None else self.params.const(value)

    @property
    def q(self) -> RationalFunction:
        return self.symbol("q")

    @classmethod
    def type_i(cls) -> "CalculusType":
        P = PARAMS_I
        q = P.var("q")
        return cls(P, P.one(), q, P.zero(), -(P.one() / q), P.zero(), q)

    @classmethod
    def type_ii(cls) -> "CalculusType":
        P = PARAMS_II
        q, r = P.var("q"), P.var("r")
        return cls(P, r, q, r - P.one(), -(r / q), P.zero(), q / r)

    @classmethod
    def type_iii(cls) -> "CalculusType":
        P = PARAMS_III
        q, p = P.var("q"), P.var("p")
        return cls(P, p, p * q, P.zero(), -(P.one() / q), P.one() - p, p * q)

    @classmethod
    def by_name(cls, name: str) -> "CalculusType":
        table = {"I": cls.type_i, "II": cls.type_ii, "III": cls.type_iii}
        if name not in table:
            raise InconsistentType(f"unknown calculus type {name!r}")
        return table[name]()

    def specialize(self, assignment: Mapping[str, Rat]) -> "CalculusType":
        """The type at numeric values of some parameters: the coefficients
        over the parameters left, with the values recorded in ``assigned``."""
        kept = ParamSet(self.params.mode, tuple(
            v for v in self.params.variables if v not in assignment))
        coeffs = (getattr(self, name).substitute(assignment).project(kept)
                  for name in COEFF_NAMES)
        values = dict(self.assigned)
        values.update((name, Fraction(v)) for name, v in assignment.items())
        return CalculusType(kept, *coeffs, tuple(sorted(values.items())))

    def covariance_residuals(self) -> list[RationalFunction]:
        """The four linear covariance constraints, evaluated at this type."""
        q = self.q
        one = self.params.one()
        return [
            self.Q11 + q * self.Q12 - q * self.Q,
            self.Q11 + q * self.Q22 - q * one,
            self.Q12 + q * self.Q21 + one,
            q * self.Q21 + self.Q22 + self.Q,
        ]

    def structure_residuals(self) -> list[RationalFunction]:
        """The five coefficient identities used by the vector-field relations.
        The first divides by Qp: raises DivisionByZero where Qp is zero."""
        if self.Qp.is_zero():
            where = _assignment_str(dict(self.assigned)) if self.assigned else "this type"
            raise DivisionByZero(f"Qp is zero at {where}")
        one = self.params.one()
        return [
            self.Q22 - self.Q11 * self.Q21 - self.Q11 / self.Qp,
            self.Q12 + self.Q21 * (self.Q11 - self.Qp),
            self.Q * (self.Q11 - self.Qp) - self.Q11 * self.Q12,
            self.Q12 * (one + self.Qp * self.Q21),
            self.Q22 * (self.Q11 - self.Qp),
        ]

    def validate(self) -> None:
        for i, res in enumerate(self.covariance_residuals()):
            if not res.is_zero():
                raise InconsistentType(f"covariance constraint {i + 1} violated: {res}")
        for i, res in enumerate(self.structure_residuals()):
            if not res.is_zero():
                raise InconsistentType(f"structure identity {i + 1} violated: {res}")
        if not (self.Q12 - self.Q22 - (self.Q - self.params.one())).is_zero():
            raise InconsistentType("Q12 - Q22 = Q - 1 violated")


# The typed rules, keyed (left, right, sign), each right-hand side as
# (coefficient name, monomial) terms, the name None standing for the unit.
# The squares g*g = 0 of the nilpotent generators are not typed: shaped_rules
# adds them from NILPOTENT, and the engine reads them as it reads these.
_RULES = {
    # coordinates among themselves (5), and past differentials (11)
    (TH, X, 1): (("q^-1", mono(x=1, th=1)),),
    (X, DX, 1): (("Q", mono(dx=1, x=1)),),
    (X, DTH, 1): (("Q11", mono(dth=1, x=1)), ("Q12", mono(dx=1, th=1))),
    (TH, DX, 0): (("Q21", mono(dx=1, th=1)), ("Q22", mono(dth=1, x=1))),
    (TH, DTH, 0): ((None, mono(dth=1, th=1)),),
    # differentials among themselves (12)
    (DTH, DX, 0): (("Qp^-1", mono(dx=1, dth=1)),),
    # inner derivations among themselves (97): (Q - Q12)/Q11 = q^-1 by (18)
    (ITH, IX, 0): (("q^-1", mono(ix=1, ith=1)),),
    # the (75) and (78) ansatz, filled only by covariance.ansatz_table: inner
    # derivations past coordinates and differentials, unknowns A1..A8, a1..a8
    (IX, X, 1): (("A1", mono(x=1, ix=1)), ("A2", mono(th=1, ith=1))),
    (IX, TH, 0): (("A3", mono(th=1, ix=1)), ("A4", mono(x=1, ith=1))),
    (ITH, X, 1): (("A5", mono(x=1, ith=1)), ("A6", mono(th=1, ix=1))),
    (ITH, TH, 0): (("A7", mono(th=1, ith=1)), ("A8", mono(x=1, ix=1))),
    (IX, DX, 0): ((None, ONE_MONO), ("a1", mono(dx=1, ix=1)), ("a2", mono(dth=1, ith=1))),
    (IX, DTH, 0): (("a3", mono(dth=1, ix=1)), ("a4", mono(dx=1, ith=1))),
    (ITH, DX, 0): (("a5", mono(dx=1, ith=1)), ("a6", mono(dth=1, ix=1))),
    (ITH, DTH, 0): ((None, ONE_MONO), ("a7", mono(dth=1, ith=1)), ("a8", mono(dx=1, ix=1))),
}


def shaped_rules(params: ParamSet, coeffs: Mapping[str, RationalFunction]) -> dict:
    """The rules of ``_RULES`` whose coefficient names ``coeffs`` all
    supplies, filled with its values, and the square g*g = 0 of each
    nilpotent generator but d, where the kernel reads g*g."""
    one = params.one()
    rules = {key: Element(params, {m: coeffs[name] if name else one for name, m in rhs})
             for key, rhs in _RULES.items() if all(name in coeffs for name, _ in rhs if name)}
    rules.update(((g, g, 0), Element(params)) for g in NILPOTENT - {D})
    return rules


def rule_coeffs(ct: CalculusType) -> dict[str, RationalFunction]:
    """The value at ``ct`` of every scalar symbol of the type, the structure
    coefficients and the parameters, and of ``q^-1`` and ``Qp^-1``.
    Raises NonInvertibleRule when one of the inverted symbols is zero."""
    for name in ("q", "Q", "Q11", "Q21", "Qp"):
        if ct.symbol(name).is_zero():
            raise NonInvertibleRule(f"{name} is zero at this type")
    return {"q^-1": ct.params.one() / ct.q, "Qp^-1": ct.params.one() / ct.Qp,
            **{name: ct.symbol(name) for name in COEFF_NAMES + ct.params.variables}}


# a differential dg -> its partial p and inner derivation i, and (-1)^|g| = e_p,
# the sign of p*d = e_p*Q^-1 d*p (37); by (82), i*d = p - e_p*Q^-1 d*i
_CARTAN = {DX: (PX, IX, 1), DTH: (PTH, ITH, -1)}
# each coordinate -> its differential and the sign of its rule keys
_COORD = {X: (DX, 1), TH: (DTH, 0)}
# a monomial of two letters -> the pair; a pair in order -> its monomial
_PAIR = {(a, b): ONE_MONO + (1 << 32 * a) + (1 << 32 * b)
         for a in range(NGENS) for b in range(a + 1, NGENS)}
_SPLIT = {m: pair for pair, m in _PAIR.items()}


def derived_rules(rules: Mapping, params: ParamSet) -> dict:
    """Every rule of px, pth, ix and ith past x, th, dx, dth, px and pth,
    read off the four (11) rules g*da and the Q^-1 of x*dx.  A term c*db*h
    of g*da (pa and ia the partial and inner derivation of a) gives, by
    d*g = dg + (-1)^|g| g*d with d = dx*px + dth*pth, (-1)^|g| c*h*pa in
    pb*g (34); by p*dg = p*(d*g - (-1)^|g| g*d) and (37),
    e_pb*Q^-1 (-1)^|g| c*dh*pa in pb*dg (36), where the unit of pb*g adds
    (e_pb*Q^-1 - (-1)^|g|)*d; by the Cartan factors (82) on g, c*h*ia in
    ib*g (84) and -e_pb*Q^-1 c*dh*ia in ib*dg (85).  And (86) transposes
    (36): a term c*dk*p' of p*da gives c*p'*ia in ik*p.
    """
    one = params.one()
    c = rules[(X, DX, 1)].terms.get(_PAIR[DX, X])
    if c is None:
        raise NonInvertibleRule("the x*dx rule has no dx*x term")
    qi = one / c
    keys = [(p, g, s) for g, s in ((X, 1), (TH, 0), (DX, 0), (DTH, 0)) for p in (PX, PTH, IX, ITH)]
    out = {k: Element(params) for k in keys + [(i, p, 0) for i in (IX, ITH) for p in (PX, PTH)]}
    # no two terms set one monomial of a rule, so each is set, not added; only
    # the unit of (36) adds to a term
    for g, (dg, s) in _COORD.items():
        pg, ig, sign = _CARTAN[dg]   # sign = e_pg = (-1)^|g|
        for da, (pa, ia, _) in _CARTAN.items():
            for m, c in rules[(g, da, s)].terms.items():
                db, h = _SPLIT[m]
                pb, ib, e = _CARTAN[db]
                qc = qi * c
                out[(pb, g, s)].terms[_PAIR[h, pa]] = c if sign > 0 else -c
                out[(pb, dg, 0)].terms[_PAIR[_COORD[h][0], pa]] = qc if e * sign > 0 else -qc
                out[(ib, g, s)].terms[_PAIR[h, ia]] = c
                out[(ib, dg, 0)].terms[_PAIR[_COORD[h][0], ia]] = -qc if e > 0 else qc
        out[(pg, g, s)].terms[ONE_MONO] = out[(ig, dg, 0)].terms[ONE_MONO] = one
        row = out[(pg, dg, 0)]
        for n in (_PAIR[DX, PX], _PAIR[DTH, PTH]):
            row.add_term(n, qi - one if sign > 0 else one - qi)
    for p, (da, (_, ia, _)) in _itproduct((PX, PTH), _CARTAN.items()):
        for m, c in out[(p, da, 0)].terms.items():
            dk, pk = _SPLIT[m]
            out[(_CARTAN[dk][1], p, 0)].terms[_PAIR[pk, ia]] = c
    return out


def pth_px_rule(rules: Mapping, params: ParamSet) -> dict:
    """The rule pth*px = b9*px*pth, read off d*d = 0.

    Name the coefficients px*dx ∋ c2*dth*pth, px*dth ∋ c3*dth*px,
    pth*dx ∋ c5*dx*pth, pth*dth ∋ c8*dx*px and dth*dx = w*dx*dth.  With
    d = dx*px + dth*pth, every term of d*d but one dies on dx*dx = 0 or
    pth*pth = 0, and that one is (c3 + c8*w + b9*(c2 + c5*w))*dx*dth*px*pth,
    so b9 = -(c3 + c8*w)/(c2 + c5*w).  A divisor c2 + c5*w of more than
    one term (at the symbolic type, say) raises NonMonomialDivisor.
    """
    def c(key: RuleKey, m: Monomial) -> RationalFunction:
        return rules[key].terms.get(m, params.zero())

    w = c((DTH, DX, 0), mono(dx=1, dth=1))
    divisor = c((PX, DX, 0), mono(dth=1, pth=1)) + c((PTH, DX, 0), mono(dx=1, pth=1)) * w
    if len(divisor.packed) > 1:
        raise NonMonomialDivisor(f"d*d = 0 gives pth*px only as a quotient by {divisor}, "
                                 "a divisor of more than one term")
    b9 = -(c((PX, DTH, 0), mono(dth=1, px=1)) + c((PTH, DTH, 0), mono(dx=1, px=1)) * w) / divisor
    return {(PTH, PX, 0): Element.monomial(params, mono(px=1, pth=1), b9)}


# ----------------------------------------------------------------------------
# Rule table and rewrite engine
# ----------------------------------------------------------------------------

RuleKey = tuple  # (left gen, right gen, sign: -1 | 0 | +1)

# the x^-1 rules -> the generator each is solved for, in a full read's order
_X_INVERSE = {((X, g, -1) if g < X else (g, X, -1)): g for g in (TH, PTH, ITH, PX, IX, DX, DTH)}


class RuleTable:
    """Rewrite rules plus the memoized normal-ordering engine built on them."""

    def __init__(self, ct: CalculusType, rules: dict):
        self.ct = ct
        self.params = ct.params
        self._rules = rules
        # the x^-1 rule keys still to solve: those whose x-rule the table holds
        self._pending = {key for key in _X_INVERSE
                         if key not in rules and key[:2] + (1,) in rules}
        # (monomial, monomial) -> product, for the pairs not already in
        # order; an entry keeps the coefficients its product built, equal
        # ones not interned into one
        self._memo: dict = {}
        # (operator monomial, form monomial) -> vacuum part of their product
        self._act_memo: dict = {}
        # (name, power) -> the value of a symbol of the expression language,
        # each evaluated once (exprio); the derived operators are (name, 1)
        self._symbols: dict = {}
        # the realization of d, which normalize_word multiplies in for each d
        self._d_real = (Element.monomial(self.params, mono(dx=1, px=1))
                        + Element.monomial(self.params, mono(dth=1, pth=1)))

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, ct: CalculusType) -> "RuleTable":
        ct.validate()
        P = ct.params
        rules = shaped_rules(P, rule_coeffs(ct))
        rules.update(derived_rules(rules, P))
        rules.update(pth_px_rule(rules, P))
        return cls(ct, rules)

    @property
    def rules(self) -> dict:
        """Every rule, after solving each pending x^-1 rule in ``_X_INVERSE``
        order; each is adopted once its own ``_solve`` passes."""
        for key in _X_INVERSE:
            if key in self._pending:
                self._solve(key)
        return self._rules

    def d_element(self) -> Element:
        """The exterior derivative as a normal-ordered element."""
        return self._d_real

    def _solve(self, key: RuleKey) -> Element:
        """Solve the pending x^-1 rule ``key`` in place, run its generator's
        round trips, and return it.  If anything raises, restore the rules
        and pending keys and empty the memos, which may hold products of a
        rejected rule."""
        if key not in self._pending:
            a, b, s = key
            word = f"{GENS[a]}^{s if a == X else 1}*{GENS[b]}^{s if b == X else 1}"
            # an x^-1 rule whose x-rule the table holds is missing only while
            # it is solved: its own solution needs it
            if key in _X_INVERSE and key[:2] + (1,) in self._rules:
                raise NonInvertibleRule(
                    f"the rule for {word} cannot be solved: its solution needs it")
            raise UnsupportedGenerator(f"no rewrite rule for {word}")
        rules, pending = dict(self._rules), set(self._pending)
        self._pending.remove(key)
        try:
            self._derive_x_inverse(key)
            self._round_trip(_X_INVERSE[key])
        except BaseException:
            self._rules, self._pending = rules, pending
            for memo in (self._memo, self._act_memo):
                memo.clear()
            raise
        return self._rules[key]

    def _derive_x_inverse(self, key: RuleKey) -> None:
        """Solve the x^-1 rule ``key`` from its x-rule by the two formulas
        of the module docstring."""
        P = self.params
        g = _X_INVERSE[key]
        rhs = self._rules[key[:2] + (1,)]
        diag = mono(x=1, **{GENS[g]: 1})
        c = rhs.terms.get(diag)
        if c is None:
            raise NonInvertibleRule(f"the x-rule of {GENS[g]} has no invertible diagonal term")
        gm, xi = (Element.monomial(P, m) for m in (_letter_mono((g, 1)), mono(x=-1)))
        rest = rhs - Element.monomial(P, diag, c)
        if g < X:
            e = self.mul(gm - self.mul(xi, rest), xi)
        else:
            e = self.mul(xi, gm - self.mul(rest, xi))
        self._rules[key] = e.scale(P.one() / c)

    def _round_trip(self, g: int) -> None:
        """Check g*x^s*x^-s = g, or x^-s*(x^s*g) = g for a differential g, at
        s = 1 and -1; with px check d too, whose realization px enters."""
        P = self.params
        for h in (PX, D) if g == PX else (g,):
            e = self._d_real if h == D else Element.monomial(P, _letter_mono((h, 1)))
            for s in (1, -1):
                xs, xi = (Element.monomial(P, mono(x=t)) for t in (s, -s))
                if (self.mul(xi, self.mul(xs, e)) if h < X else self.mul(self.mul(e, xs), xi)) != e:
                    raise NonInvertibleRule(f"round trip of {GENS[h]} via x^{s}, x^{-s} failed")

    # -- multiplication ---------------------------------------------------------

    def _merged(self, m: Monomial) -> Element:
        """The monomial ``m`` with the shared one as its coefficient."""
        return _element(self.params, {m: self.params._one})

    def mul_mono_letter(self, m: Monomial, letter: tuple) -> Element:
        """``m`` times the letter (g, +1/-1), through ``mul_mono_mono``."""
        return self.mul_mono_mono(m, _letter_mono(letter))

    def mul_mono_mono(self, m1: Monomial, m2: Monomial) -> Element:
        key = (m1, m2)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        first = _first_gen(m2)
        last = _last_gen(m1)
        if last < first or last == first and last not in NILPOTENT:
            # in order, or m1 ends in the non-nilpotent block m2 starts with:
            # the merged monomial, built, not memoized
            return self._merged(_merge(m1, m2))
        end = _last_gen(m2)
        k = mono_exp(m2, first)
        if end != first:
            # several blocks: m1 times each in turn
            e = self._merged(m1)
            for g in range(first, end + 1):
                k = mono_exp(m2, g)
                if k:
                    e = self._times(e, _letter_mono((g, k)))
        elif abs(k) >= 2:
            e = self._mul_block(m1, first, k)
        else:
            # one letter g: m1 = h*a^ka, a its last generator, gives m1*g =
            # h*a^(ka-b) (a^b g), a^b g the rule for |ka| = 1, else b = ka/2
            # rounded toward zero: a recursion of depth log |ka|, not |ka|
            ka = mono_exp(m1, last)
            if abs(ka) >= 2:
                b = _half(ka)
                inner = self.mul_mono_mono(_letter_mono((last, b)), m2)
            else:
                b = ka
                rule = (last, first, ka if last == X else k if first == X else 0)
                inner = self._rules.get(rule)
                if inner is None:
                    inner = self._solve(rule)
            head = m1 - (b << 32 * last)
            acc: dict = {}
            for im, ic in inner.terms.items():
                _accumulate(acc, self.mul_mono_mono(head, im).terms, ic, self.params._one)
            e = _element(self.params, acc)
        self._memo[key] = e
        return e

    def _times(self, e: Element, m: Monomial) -> Element:
        """A fresh element: ``e * m``, the sum of c * (t*m) over the terms c*t."""
        one = self.params._one
        mul_mono_mono = self.mul_mono_mono
        acc: dict = {}
        for t, c in e.terms.items():
            _accumulate(acc, mul_mono_mono(t, m).terms, c, one)
        return e._like(acc)

    def _mul_block(self, m: Monomial, g: int, k: int) -> Element:
        """``m * g^k`` for |k| >= 2 and ``m`` not already in order with it.

        The factors of ``m`` up to ``g`` stay in front and only the tail past
        ``g`` moves: ``h*t * g^k = h * (t * g^k)``.  A bare tail splits the
        power as ``t * g^k = (t * g^b) * g^(k-b)`` with b = k/2 rounded
        toward zero, as a single letter splits a left block, so the memo
        gains O(log k) entries per tail, not k.
        """
        head, tail = _head_tail(m, g)
        if head != ONE_MONO:
            return self.mul(self._merged(head), self.mul_mono_mono(tail, _letter_mono((g, k))))
        b = _half(k)
        return self._times(self.mul_mono_mono(m, _letter_mono((g, b))), _letter_mono((g, k - b)))

    def mul(self, a: Element, b: Element) -> Element:
        """``a * b``: each operand coefficient product c1*c2 is built, and
        its exponents checked, before the kernel's term multiplies it, so an
        intermediate past ``coeffs.EXPONENT_LIMIT`` raises ResultTooLarge
        even where the final coefficient is in range (``act`` likewise)."""
        one = self.params._one
        mul_mono_mono = self.mul_mono_mono
        acc: dict = {}
        bterms = b.terms.items()
        for m1, c1 in a.terms.items():
            for m2, c2 in bterms:
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                _accumulate(acc, mul_mono_mono(m1, m2).terms, c, one)
        return a._like(acc)

    def act(self, op: Element, f: Element) -> Element:
        """The vacuum part of ``op * f`` for a form-sector ``f``: the product
        without the terms that still carry an operator letter, which are
        never built."""
        if not f.is_form_sector():
            raise NotAFunctionArgument("the argument must be free of operator factors")
        one = self.params.one()
        acc: dict = {}
        fterms = f.terms.items()
        for mo, co in op.terms.items():
            for mf, cf in fterms:
                c = cf if co is one else co if cf is one else co * cf
                _accumulate(acc, self._act_mono(mo, mf).terms, c, one)
        return op._like(acc)

    def _act_mono(self, mo: Monomial, mf: Monomial) -> Element:
        """``act`` on two monomials, ``mf`` in the form sector: ``mo = u*o``
        (form letters, operator letters) on ``mf = a*rest`` (a the whole
        leading generator block) is u times the sum of c*(t acting on rest)
        over the terms c*t of o*a, as the module docstring explains."""
        key = (mo, mf)
        hit = self._act_memo.get(key)
        if hit is not None:
            return hit
        if mono_is_form(mo):
            return self.mul_mono_mono(mo, mf)
        if mf == ONE_MONO:
            return Element.zero(self.params)
        # mf = block*rest: its first generator block is all of its head
        block, rest = _head_tail(mf, _first_gen(mf))
        u, o = _head_tail(mo, D - 1)
        one = self.params.one()
        acc: dict = {}
        for t, c in self.mul_mono_mono(o, block).terms.items():
            _accumulate(acc, self._act_mono(t, rest).terms, c, one)
        if u != ONE_MONO:
            inner, acc = acc, {}
            for m, c in inner.items():
                _accumulate(acc, self.mul_mono_mono(u, m).terms, c, one)
        e = self._act_memo[key] = _element(self.params, acc)
        return e

    def normalize_word(self, word: Iterable[WordItem]) -> Element:
        e = Element.one(self.params)
        for letter in word_letters(word):
            if letter[0] == D:
                e = self.mul(e, self._d_real)
            else:
                e = self._times(e, _letter_mono(letter))
        return e

    def word(self, *items: WordItem) -> Element:
        return self.normalize_word(items)


def build_rule_table(ct: CalculusType) -> RuleTable:
    return RuleTable.build(ct)


def act_on_function(rt: RuleTable, op: Element, f: Element) -> Element:
    """Apply an operator to a form-valued function: the normal-ordered
    product without every term that still carries derivative or
    inner-derivation factors, computed directly by ``rt.act``.  Raises
    NotAFunctionArgument when ``f`` has an operator factor."""
    return rt.act(op, f)


def exterior_derivative(rt: RuleTable, w: Element) -> Element:
    return act_on_function(rt, rt.d_element(), w)


# ----------------------------------------------------------------------------
# Local confluence audit
# ----------------------------------------------------------------------------

class ConfluenceViolation(namedtuple("ConfluenceViolation", "word first_steps residual")):
    __slots__ = ()


class ConfluenceReport(namedtuple("ConfluenceReport",
                                  "max_len words_checked branch_pairs violations")):
    __slots__ = ()


def _reducible(a: tuple, b: tuple) -> RuleKey | None:
    """Rule key applicable to the adjacent letter pair a, b (or None)."""
    ga, sa = a
    gb, sb = b
    if ga == gb == X:
        return None
    if ga == gb and ga in NILPOTENT:
        return (ga, gb, 0)
    if ga > gb:
        if ga == X:
            return (ga, gb, sa)
        if gb == X:
            return (ga, gb, sb)
        return (ga, gb, 0)
    return None


# the audit's letters: the nine generators, with x also as x^-1
_AUDIT_ALPHABET = tuple([(g, 1) for g in range(NGENS)] + [(X, -1)])


def _flat_mul(rt: RuleTable, a: dict, b: dict) -> dict:
    """a*b for flat elements, dicts (monomial, packed coefficient key) ->
    rational: each kernel product made once, each key tested as
    ``coeffs._lp_mul`` tests one, and a term that cancels dropped."""
    origin2, guard = 2 * rt.params._origin, rt.params._guard
    products: dict = {}   # m2 -> m1 -> the kernel's m1*m2
    out: dict = {}
    get = out.get
    for (m2, k2), c2 in b.items():
        k2 -= origin2
        row = products.setdefault(m2, {})
        for (m1, k1), c1 in a.items():
            terms = row.get(m1)
            if terms is None:
                terms = row[m1] = rt.mul_mono_mono(m1, m2).terms.items()
            k12, c12 = k1 + k2, c1 * c2
            for m, v in terms:
                for k, c in v.packed.items():
                    k += k12
                    if k & guard:
                        raise _exponent_too_large()
                    key = (m, k)
                    c = get(key, 0) + c12 * c
                    if c:
                        out[key] = c
                    else:
                        del out[key]
    return out


def _regrouped(params: ParamSet, flat: dict) -> Element:
    """The flat element ``flat`` as an Element."""
    rows: dict = {}
    for (m, k), c in flat.items():
        rows.setdefault(m, {})[k] = c
    return _element(params, {m: _rational(params, row) for m, row in rows.items()})


def local_confluence_check(rt: RuleTable, max_len: int) -> ConfluenceReport:
    """Rewrite every short word via each applicable first step and compare.

    Words run over all nine generators with x occurring as x or x^-1; a
    violation records the word, the two diverging first steps, and the
    residual difference of the fully normalized branches.  The letter d is
    multiplied as ``rt.d_element()``, so the multiplication core never sees
    d here either, and the step at an out-of-order pair word[i], word[i+1]
    is the product of its two letters, built once per call (for a pair
    without d, the table's rule).

    A branch is built by the letter-by-letter fold: the prefix word[:i]
    folded from 1 one letter at a time, times the step at word[i],
    word[i+1], then times each suffix letter in turn.  The audit makes
    that fold along one depth-first walk of the trie of words up to
    ``max_len`` letters: a word's branch through a step before its last pair
    is the branch on word[:-1] times the last letter, and its branch through
    the last pair is word[:-2] folded times the step, so every product the
    audit makes is one the fold makes, of the same operands in the same
    order (but 1 times a first letter, which is that letter), and sums the
    same kernel products exactly (``_flat_mul``).  Every branch, and every
    residual, is then the one the fold gives, even on a table that is not
    confluent.  A branch equal to the base branch, the one through the first
    step, stays equal once both are multiplied by the same letters, so it is
    counted but no longer built.  Violations are listed by length, then
    lexicographically.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    origin = rt.params._origin
    letters = {a: {(_letter_mono(a), origin): 1} for a in _AUDIT_ALPHABET}
    letters[(D, 1)] = {(m, k): c for m, v in rt.d_element().terms.items()
                       for k, c in v.packed.items()}
    # out-of-order letter pair -> the product of its two letters
    step_rhs = {(a, b): _flat_mul(rt, letters[a], letters[b])
                for a in _AUDIT_ALPHABET for b in _AUDIT_ALPHABET
                if _reducible(a, b) is not None}
    words_checked = branch_pairs = 0
    violations: list[ConfluenceViolation] = []
    # a node of the walk: its word, word[:-1] folded, the word folded (None
    # when no extension needs it), its number of steps, and its (step,
    # branch) pairs still to compare: the branch through its first step, the
    # base, then each later step whose branch differs from the base
    one = {(ONE_MONO, origin): 1}
    stack = [((a,), one, letters[a], 0, []) for a in reversed(_AUDIT_ALPHABET)]
    while stack:
        word, prev, fold, nsteps, paths = stack.pop()
        n = len(word) + 1   # the length of each extension
        children = []
        for a in _AUDIT_ALPHABET:
            ext = word + (a,)
            rhs = step_rhs.get((word[-1], a))
            k = nsteps + (rhs is not None)
            if k >= 2:
                words_checked += 1
                branch_pairs += k - 1
            if n == max_len and len(paths) + (rhs is not None) < 2:
                continue   # a leaf with no branch to compare
            grown = [(i, _flat_mul(rt, b, letters[a])) for i, b in paths]
            if rhs is not None:
                grown.append((n - 2, _flat_mul(rt, prev, rhs)))
            if len(grown) > 1:
                (first, base), *rest = grown
                grown = [grown[0]]
                for i, b in rest:
                    if b != base:
                        residual = _regrouped(rt.params, base) - _regrouped(rt.params, b)
                        violations.append(ConfluenceViolation(ext, (first, i), residual))
                        grown.append((i, b))
            if n < max_len:
                ext_fold = _flat_mul(rt, fold, letters[a]) if n + 1 < max_len else None
                children.append((ext, fold, ext_fold, k, grown))
        stack.extend(reversed(children))
    # found in the walk's lexicographic order; the stable sort puts shorter words first
    violations.sort(key=lambda v: len(v.word))
    return ConfluenceReport(max_len, words_checked, branch_pairs, violations)
