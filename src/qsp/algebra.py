"""Graded operator algebra: generators, canonical monomials, rewrite engine.

Words are normal-ordered into the fixed generator order

    dx < dth < x < th < d < px < pth < ix < ith

(differential forms, then coordinates, then operators).  Every out-of-order
adjacent pair of generators has a rewrite rule whose right-hand side is
already normal-ordered.  Only the defining relations (5), (11) and (12) are
typed in, with ith*ix (97), in one table, ``_RULES``, each right-hand side
written with named coefficients; ``shaped_rules`` fills it with the values
of ``rule_coeffs`` and adds the squares g*g = 0 of the nilpotent generators
(``NILPOTENT``).  ``rule_coeffs`` maps every scalar symbol of a type, so at
``covariance.ansatz_type``, whose symbols are unknowns, it also fills the
(75) and (78) ansatz shapes, one unknown per name, for
``covariance.ansatz_table`` to print their systems.  ``RuleTable.build``
validates its type before it fills the table.  The other rules are derived,
not transcribed: those of px, pth, ix and ith, (34), (36) and (84)-(86),
from the four (11) rules (``derived_rules``), and pth*px from d*d = 0
(``pth_px_rule``).  Rules against x^-1 are solved from the x-rules: a rule
g*x = c*x*g + rest gives g*x^-1 = c^-1 * x^-1*(g - rest*x^-1), and a rule
x*g = c*g*x + rest gives x^-1*g = c^-1 * (g - x^-1*rest)*x^-1.  A product
that first misses one solves it, with each x^-1 rule that solution or its
round trips (g*x*x^-1 = g and the like) meet; the table adopts them once
all pass, and reading ``rules`` solves the rest.

The engine multiplies by folding one generator at a time into a canonical
monomial.  Each table keeps two memos: one for the product of a monomial
with a single letter, one for the product of two monomials, so every product
that needs a rewrite is computed once per table.  A product already in order
is not memoized: it is the merged monomial with the shared unit coefficient
``params.one()``, built directly, which costs less than a memo entry (and a
single-letter right factor is recognized by a table lookup).  Before a
product is memoized, its coefficients are replaced by one canonical instance
per value, which keeps the memos from holding many equal copies.  A sum of
products is accumulated in one plain dict, monomial to coefficient, with a
term dropped as soon as it cancels; a coefficient product is skipped when
either factor is the shared unit, which most memo coefficients are.

Every generator block g^k with |k| >= 2 (a power of x, dth, px or ith) is
split in half, on either side of a product.  A left block passes a letter as
g^(k-b) (g^b letter) with b = k/2 rounded toward zero, and a right block is
multiplied as (m g^b) g^(k-b), so the recursion depth grows as log k.  When m
ends in the generator another monomial starts with, their product merges the
two blocks (or is zero for a nilpotent generator).  Confluence makes normal
forms unique, so neither memo nor split changes an answer.

An action ``act(op, f)`` on a form-sector ``f`` is the vacuum part of op*f:
the product without the terms that still carry an operator letter.  It is
computed directly, in a third memo keyed by monomial pairs, and the terms the
projection drops are never built.  An operator monomial u*o (u its form
letters, o its operator letters) acts on a*rest, with a the whole leading
generator block of the form monomial (x^k or dth^b is one block), as u times
the sum of c*(t acting on rest) over the terms c*t of o*a.  Rules never
create an operator letter, so u commutes with the projection; a monomial
without operator letters acts by plain multiplication, and an operator
monomial kills the unit.  The recursion is at most four blocks deep.

The local-confluence audit rewrites every short word along each applicable
first step and folds the branch one letter at a time.  It walks the words in
lexicographic order and keeps the partial products along the path of the
last audited word, so a prefix or branch shared with the next word is
multiplied once.  Each kept product comes from the same multiplication the
plain fold makes, in the same order, so the audit reports exactly what the
fold would, also on a table that is not confluent.

The exterior-derivative generator d is accepted in input words but is not a
basis letter: the stated commutation relations make d - (dx*px + dth*pth)
a zero divisor killed by 1 - 1/Q, so for a generic deformation d coincides
with dx*px + dth*pth and keeping it independent would break confluence.
A word is therefore read with each d expanded into that realization
(``normalize_word`` multiplies by ``d_element()``), so normal forms are
d-free and the multiplication core never sees d.  The monomial keeps an
always-zero d slot only to fix the audit's order of d between th and px.  No
rule table holds a rule for a pair involving d: the audit alone treats d as
a letter, multiplies it as ``d_element()``, and builds the realized products
for such pairs once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _itproduct
from typing import Iterable, Mapping, Union

from .coeffs import (
    PARAMS_I,
    PARAMS_II,
    PARAMS_III,
    NonMonomialDivisor,
    ParamSet,
    QspError,
    Rat,
    RationalFunction,
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

# Exponent domains: x ranges over all integers, nilpotent generators over
# {0, 1}, the rest over the naturals.
NILPOTENT = frozenset({DX, TH, D, PTH, IX})
OPERATOR_SECTOR = frozenset({D, PX, PTH, IX, ITH})

Monomial = tuple  # length NGENS, integer exponents
ONE_MONO: Monomial = (0,) * NGENS


def mono_parity(m: Monomial) -> int:
    return (m[DX] + m[TH] + m[D] + m[PTH] + m[IX]) & 1


def mono_degree(m: Monomial) -> int:
    return sum(abs(e) for e in m)


def mono_sort_key(m: Monomial):
    # graded order; ties print earlier generators (higher powers) first
    return (mono_degree(m), tuple(-e for e in m))


def mono_letters(m: Monomial):
    """Yield the monomial as atomic letters (gen index, +1/-1), left to right."""
    for g, e in enumerate(m):
        if not e:
            continue
        s = 1 if e > 0 else -1
        for _ in range(abs(e)):
            yield (g, s)


def mono_is_function(m: Monomial) -> bool:
    """True when the monomial is a pure coordinate word (x-powers and theta)."""
    return not any(m[g] for g in (DX, DTH, D, PX, PTH, IX, ITH))


def mono_is_form(m: Monomial) -> bool:
    """True when the monomial lives in the forms-times-coordinates sector."""
    return not any(m[g] for g in OPERATOR_SECTOR)


def mono(**exps: int) -> Monomial:
    e = [0] * NGENS
    for name, k in exps.items():
        if name not in GEN_INDEX:
            raise UnsupportedGenerator(f"unknown generator {name!r}")
        if name == "d":
            raise UnsupportedGenerator("d is not a basis letter; it is expanded in words")
        e[GEN_INDEX[name]] = k
    return tuple(e)


def _letter_mono(letter: tuple) -> Monomial:
    """The monomial g^k of a letter (g, +1/-1) or of a block (g, k)."""
    g, k = letter
    return (0,) * g + (k,) + (0,) * (NGENS - 1 - g)


def _half(k: int) -> int:
    """k/2 rounded toward zero: where a power g^k is split."""
    return k // 2 if k > 0 else -(-k // 2)


# a monomial that is a single letter g^s (s = +1 or -1) -> that letter
_LETTERS = {_letter_mono((g, s)): (g, s) for g in range(NGENS) for s in (1, -1)}


WordItem = Union[str, tuple]


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
    return "*".join(GENS[g] if e == 1 else f"{GENS[g]}^{e}"
                    for g, e in enumerate(m) if e) or "1"


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
            if v.is_zero():
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
    their linear arithmetic.  A result has the type of its left operand and
    shares the attributes named in ``_space`` with it; elements of different
    types or spaces are never equal, not even when both are zero.
    """

    __slots__ = ("params", "terms")
    _space = ("params",)

    def __init__(self, params: ParamSet, terms: dict | None = None):
        self.params = params
        self.terms: dict = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    def _like(self, terms: dict) -> "Element":
        """An element of this type and space holding ``terms`` as given."""
        e = object.__new__(type(self))
        for name in self._space:
            setattr(e, name, getattr(self, name))
        e.terms = terms
        return e

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
        if c.is_zero():
            return
        one = self.params.one()
        if c.is_one():
            c = one
        _accumulate(self.terms, other.terms, c, one)

    def __add__(self, other: "Element") -> "Element":
        out = self._like(dict(self.terms))
        out.add_scaled(other, self.params.one())
        return out

    def __neg__(self) -> "Element":
        return self._like({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Element") -> "Element":
        terms = dict(self.terms)
        get = terms.get
        for m, v in other.terms.items():
            old = get(m)
            if old is None:
                terms[m] = -v
                continue
            v = old - v
            if v.is_zero():
                del terms[m]
            else:
                terms[m] = v
        return self._like(terms)

    def scale(self, coeff) -> "Element":
        c = self.params.rf(coeff)
        if c.is_zero():
            return self._like({})
        return self._like({m: v * c for m, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (type(self) is type(other)
                and all(getattr(self, n) == getattr(other, n) for n in self._space)
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.keys())))

    def substitute(self, assignment: Mapping[str, Rat]) -> "Element":
        e = self._like({})
        for m, c in self.terms.items():
            cc = c.substitute(assignment)
            if not cc.is_zero():
                e.terms[m] = cc
        return e

    def parity(self):
        """0, 1, or None when the element mixes parities (or is zero)."""
        ps = {mono_parity(m) for m in self.terms}
        if len(ps) == 1:
            return ps.pop()
        return None

    def is_function_sector(self) -> bool:
        return all(mono_is_function(m) for m in self.terms)

    def is_form_sector(self) -> bool:
        return all(mono_is_form(m) for m in self.terms)

    def is_scalar(self) -> bool:
        return all(m == ONE_MONO for m in self.terms)

    def scalar_value(self) -> RationalFunction:
        if not self.is_scalar():
            raise ValueError("element is not a scalar")
        return self.terms.get(ONE_MONO, self.params.zero())

    def vacuum(self) -> "Element":
        """Drop every term whose operator-sector exponents are not all zero."""
        return self._like({m: c for m, c in self.terms.items() if mono_is_form(m)})

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "<0>"
        return "<" + " + ".join(f"({c})*{mono_str(m)}" for m, c in self.sorted_terms()) + ">"


def parity_of(e: Element) -> str:
    """Common parity of an element: 'even', 'odd', or 'mixed'."""
    p = e.parity()
    if p == 0:
        return "even"
    if p == 1:
        return "odd"
    return "mixed"


# ----------------------------------------------------------------------------
# Calculus types (the three covariant parameter families)
# ----------------------------------------------------------------------------

# The structure coefficients of (11)-(12), named as a user types them; Qp is Q'.
COEFF_NAMES = ("Q", "Q11", "Q12", "Q21", "Q22", "Qp")


@dataclass(frozen=True)
class CalculusType:
    """One covariant solution family: the six structure coefficients over
    the deformation parameters ``params``.

    The type owns the scalar symbols.  ``symbol`` reads a structure
    coefficient, a parameter, or a parameter that ``specialize`` assigned,
    whose value ``assigned`` records once it is gone from ``params``; the
    parsers, the rule table, ``solve-types`` and the catalog read it.
    """

    params: ParamSet
    Q: RationalFunction
    Q11: RationalFunction
    Q12: RationalFunction
    Q21: RationalFunction
    Q22: RationalFunction
    Qp: RationalFunction
    assigned: tuple = ()   # (parameter, value) pairs, sorted by name

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
        """The five coefficient identities used by the vector-field relations."""
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
# reads them off NILPOTENT.
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
    nilpotent generator but d."""
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
_PAIR = {(a, b): tuple(int(i in (a, b)) for i in range(NGENS))
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
        # a unit coefficient is the shared one, whose products the engine skips
        row.terms.update([(n, one) for n, c in row.terms.items() if c.is_one()])
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
    if len(divisor.lp) > 1:
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

    _solved = None   # a trial's list of the keys it solved, in order

    def __init__(self, ct: CalculusType, rules: dict):
        self.ct = ct
        self.params = ct.params
        self._rules = rules
        # the x^-1 rule keys still to solve: those whose x-rule the table holds
        self._pending = {key for key in _X_INVERSE
                         if key not in rules and key[:2] + (1,) in rules}
        # (monomial, letter) -> product, and (monomial, monomial) -> product
        # for the pairs _memo does not already answer; both hold coefficients
        # interned in _pool (coefficient -> its canonical instance)
        self._memo: dict = {}
        self._pair_memo: dict = {}
        # (operator monomial, form monomial) -> vacuum part of their product
        self._act_memo: dict = {}
        self._pool: dict = {self.params.one(): self.params.one()}
        self._derived_cache: dict = {}
        # bound -> the twisted-Leibniz grid of H and Nb residuals, shared by
        # the eq59 and eq62 identities (calculus)
        self._leibniz_residuals: dict = {}
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
        """Every rule, after solving each x^-1 rule still pending (``_solve``)."""
        if self._pending:
            self._solve([key for key in _X_INVERSE if key in self._pending])
        return self._rules

    def d_element(self) -> Element:
        """The exterior derivative as a normal-ordered element."""
        return self._d_real

    def _solve(self, keys: list) -> Element:
        """Solve the pending x^-1 rules ``keys``; return the last.  A trial
        copy solves them, and in place every x^-1 rule its work misses, then
        runs the round trips of each generator it solved for (the list grows
        as it is walked); the table adopts its rules only if all pass."""
        if self._solved is None:
            trial = RuleTable(self.ct, dict(self._rules))
            trial._solved = []
            trial._solve(keys)
            for key in trial._solved:
                trial._round_trip(_X_INVERSE[key])
            self._rules, self._pending = trial._rules, trial._pending
        else:
            for key in keys:
                if key in self._pending:
                    self._pending.remove(key)
                    self._derive_x_inverse(key)
                    self._solved.append(key)
        return self._rules[keys[-1]]

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

    def _store(self, memo: dict, key, e: Element) -> Element:
        """Intern the coefficients of a fresh product and memoize it."""
        pool = self._pool
        one = self.params.one()
        terms = e.terms
        for m, c in terms.items():
            if c is not one:   # the shared one is most of them; skip its hash
                terms[m] = pool.setdefault(c, c)
        memo[key] = e
        return e

    def _merged(self, m: Monomial) -> Element:
        """The monomial ``m`` with the shared one as its coefficient."""
        e = object.__new__(Element)
        e.params = self.params
        e.terms = {m: self.params.one()}
        return e

    def mul_mono_letter(self, m: Monomial, letter: tuple) -> Element:
        key = (m, letter)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        g, s = letter
        j = -1
        for i in range(NGENS - 1, -1, -1):
            if m[i]:
                j = i
                break
        k = m[j]
        # a letter that needs no rewrite is cheaper to apply than to memoize
        if g >= j:
            if g == j and g in NILPOTENT:
                return Element.zero(self.params)
            mm = list(m)
            mm[g] += s
            return self._merged(tuple(mm))
        # m = h*a^k with a the generator j: m*g = h*a^(k-b) (a^b g), where
        # a^b g is the rule for |k| = 1 and otherwise b = k/2 rounded toward
        # zero, so the recursion depth is logarithmic in k, not linear
        if abs(k) >= 2:
            b = _half(k)
            inner = self.mul_mono_letter(_letter_mono((j, b)), letter)
        else:
            b = k
            rule = (j, g, k if j == X else s if g == X else 0)
            inner = self._rules.get(rule)
            if inner is None:
                if rule not in self._pending:
                    raise UnsupportedGenerator(
                        f"no rewrite rule for {GENS[j]}^{k}*{GENS[g]}^{s if g == X else 1}")
                inner = self._solve([rule])
        head = list(m)
        head[j] = k - b
        head_t = tuple(head)
        out = Element.zero(self.params)
        for im, ic in inner.terms.items():
            out.add_scaled(self.mul_mono_mono(head_t, im), ic)
        return self._store(self._memo, key, out)

    def mul_mono_mono(self, m1: Monomial, m2: Monomial) -> Element:
        letter = _LETTERS.get(m2)
        if letter is not None:
            return self.mul_mono_letter(m1, letter)
        key = (m1, m2)
        hit = self._pair_memo.get(key)
        if hit is not None:
            return hit
        first = 0
        while first < NGENS and not m2[first]:
            first += 1
        last = NGENS - 1
        while last >= 0 and not m1[last]:
            last -= 1
        if last < first or last == first:
            # already in order, or m1 ends in the block m2 starts with: the
            # product is the merged monomial, or zero for a nilpotent block
            if last == first and first in NILPOTENT:
                return Element.zero(self.params)
            return self._merged(tuple(a + b for a, b in zip(m1, m2)))
        if not any(m2[first + 1:]):
            return self._store(self._pair_memo, key, self._mul_block(m1, first, m2[first]))
        e = self._merged(m1)
        for g, k in enumerate(m2):
            if k == 1 or k == -1:
                e = self._times(e, self.mul_mono_letter, (g, k))
            elif k:
                # a power is one factor, which _mul_block splits
                e = self._times(e, self.mul_mono_mono, _letter_mono((g, k)))
        return self._store(self._pair_memo, key, e)

    def _times(self, e: Element, product, factor) -> Element:
        """A fresh element: the sum of c * product(m, factor) over the terms
        c*m of ``e``, for product ``mul_mono_letter`` or ``mul_mono_mono``."""
        one = self.params.one()
        acc: dict = {}
        for m, c in e.terms.items():
            _accumulate(acc, product(m, factor).terms, c, one)
        return e._like(acc)

    def _mul_block(self, m: Monomial, g: int, k: int) -> Element:
        """``m * g^k`` for |k| >= 2 and ``m`` not already in order with it.

        The factors of ``m`` up to ``g`` stay in front and only the tail past
        ``g`` moves: ``h*t * g^k = h * (t * g^k)``.  A bare tail splits the
        power as ``t * g^k = (t * g^b) * g^(k-b)`` with b = k/2 rounded
        toward zero, as ``mul_mono_letter`` splits a left factor, so the memo
        gains O(log k) entries per tail, not k.
        """
        head = m[:g + 1] + (0,) * (NGENS - 1 - g)
        if any(head):
            tail = (0,) * (g + 1) + m[g + 1:]
            return self.mul(self._merged(head), self.mul_mono_mono(tail, _letter_mono((g, k))))
        b = _half(k)
        return self._times(self.mul_mono_mono(m, _letter_mono((g, b))),
                           self.mul_mono_mono, _letter_mono((g, k - b)))

    def mul(self, a: Element, b: Element) -> Element:
        one = self.params.one()
        acc: dict = {}
        bterms = b.terms.items()
        for m1, c1 in a.terms.items():
            for m2, c2 in bterms:
                c = c2 if c1 is one else c1 if c2 is one else c1 * c2
                _accumulate(acc, self.mul_mono_mono(m1, m2).terms, c, one)
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
        if not any(mo[D:]):
            return self.mul_mono_mono(mo, mf)
        if mf == ONE_MONO:
            return Element.zero(self.params)
        g = 0
        while not mf[g]:
            g += 1
        block = [0] * NGENS
        block[g] = mf[g]
        rest = list(mf)
        rest[g] = 0
        rest_t = tuple(rest)
        one = self.params.one()
        acc: dict = {}
        for t, c in self.mul_mono_mono((0,) * D + mo[D:], tuple(block)).terms.items():
            _accumulate(acc, self._act_mono(t, rest_t).terms, c, one)
        u = mo[:D] + (0,) * (NGENS - D)
        if any(u):
            inner, acc = acc, {}
            for m, c in inner.items():
                _accumulate(acc, self.mul_mono_mono(u, m).terms, c, one)
        out = Element(self.params)
        out.terms = acc
        return self._store(self._act_memo, key, out)

    def normalize_word(self, word: Iterable[WordItem]) -> Element:
        e = Element.one(self.params)
        for letter in word_letters(word):
            if letter[0] == D:
                e = self.mul(e, self._d_real)
            else:
                e = self._times(e, self.mul_mono_letter, letter)
        return e

    def normalize(self, w) -> Element:
        """Normal-order a raw word or re-normalize an algebra element."""
        if isinstance(w, Element):
            if type(w) is not Element:
                raise TypeError(f"cannot normalize a {type(w).__name__}")
            out = Element.zero(self.params)
            for m, c in w.terms.items():
                out.add_scaled(self.mul_mono_mono(ONE_MONO, m), c)
            return out
        return self.normalize_word(w)

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


# ----------------------------------------------------------------------------
# Local confluence audit
# ----------------------------------------------------------------------------

@dataclass
class ConfluenceViolation:
    word: tuple
    first_steps: tuple
    residual: Element


@dataclass
class ConfluenceReport:
    max_len: int
    words_checked: int
    branch_pairs: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


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


def _d_rules(rt: RuleTable) -> dict:
    """Rules for the ten out-of-order letter pairs involving d.

    Keyed like ``rt.rules``, each holds the realized product: d*g for a
    letter g up to d in the order (d itself included), g*d for one past it.
    No table keeps them, since a normal form never meets d.
    """
    d = rt.d_element()
    rules = {(D, D, 0): rt.mul(d, d)}
    for a in _AUDIT_ALPHABET:
        e = Element.monomial(rt.params, _letter_mono(a))
        if a[0] < D:
            rules[_reducible((D, 1), a)] = rt.mul(d, e)
        elif a[0] > D:
            rules[_reducible(a, (D, 1))] = rt.mul(e, d)
    return rules


def local_confluence_check(rt: RuleTable, max_len: int) -> ConfluenceReport:
    """Rewrite every short word via each applicable first step and compare.

    Words run over all nine generators with x occurring as x or x^-1; a
    violation records the word, the two diverging first steps, and the
    residual difference of the fully normalized branches.  The letter d is
    multiplied as ``rt.d_element()``, and a pair involving d is rewritten by
    its realized product, built once per call from the table (``_d_rules``),
    so the multiplication core never sees d here either.

    A branch is built by the letter-by-letter fold: the prefix word[:i]
    folded from 1 one letter at a time, times the right-hand side of the
    rule for word[i], word[i+1], then times each suffix letter in turn.
    Each length is walked prefix by prefix, in lexicographic order, a
    depth-first walk of the word trie, so the audit replays that fold along
    the path of the last prefix: every partial product over prefix[:j] is
    kept while the next prefix shares its first j letters.  A branch through
    a step before the last pair is then its branch on the prefix times the
    last letter.  Every product the audit makes is the very ``rt.mul`` call
    the fold makes, with the same operands in the same order, so every
    branch, and every residual, is the one the fold gives, even on a table
    that is not confluent.  And a pair whose branches were equal on the
    prefix stays equal once both are multiplied by the same last letter, so
    such a pair is counted without building either branch.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    rules = {**rt.rules, **_d_rules(rt)}
    letters = {a: Element.monomial(rt.params, _letter_mono(a)) for a in _AUDIT_ALPHABET}
    letters[(D, 1)] = rt.d_element()
    reducible = {(a, b): _reducible(a, b)
                 for a in _AUDIT_ALPHABET for b in _AUDIT_ALPHABET}
    words_checked = 0
    branch_pairs = 0
    violations: list[ConfluenceViolation] = []
    # path of the last prefix `held`: folds[j] is held[:j] folded from 1;
    # paths[i][k] is the branch through rule i times the letters up to
    # held[i+1+k], so it depends on held[:i+2+k] only
    held: tuple = ()
    folds = [Element.one(rt.params)]
    paths: dict[int, list[Element]] = {}

    def fold(j: int) -> Element:
        while len(folds) <= j:
            folds.append(rt.mul(folds[-1], letters[held[len(folds) - 1]]))
        return folds[j]

    def held_branch(i: int) -> Element:
        # the branch through rule i on the whole of `held`, whose keys are `keys`
        path = paths.get(i)
        if path is None:
            path = paths[i] = [rt.mul(fold(i), rules[keys[i]])]
        while len(path) < len(held) - i - 1:
            path.append(rt.mul(path[-1], letters[held[i + 1 + len(path)]]))
        return path[-1]

    # audited words of the last length -> the steps whose branch equalled
    # the base branch; an extension of a word keeps the word's steps and base
    settled: dict[tuple, set] = {}
    for length in range(3, max_len + 1):
        inherited, settled = settled, {}
        last_step = length - 2
        for prefix in _itproduct(_AUDIT_ALPHABET, repeat=length - 1):
            keys = [reducible[pair] for pair in zip(prefix, prefix[1:])]
            prefix_steps = [i for i, key in enumerate(keys) if key is not None]
            if not prefix_steps:
                continue
            equal = inherited.get(prefix, set())
            shared = 0
            for a, b in zip(held, prefix):
                if a != b:
                    break
                shared += 1
            held = prefix
            del folds[shared + 1:]
            for i in list(paths):
                if shared < i + 2:
                    del paths[i]
                else:
                    del paths[i][shared - i - 1:]
            for a in _AUDIT_ALPHABET:
                key = reducible[prefix[-1], a]
                steps = prefix_steps + [last_step] if key is not None else prefix_steps
                if len(steps) < 2:
                    continue
                word = prefix + (a,)
                words_checked += 1
                branch_pairs += len(steps) - 1
                same = set(equal)
                base = None
                for i in steps[1:]:
                    if i in same:
                        continue
                    if base is None:
                        base = rt.mul(held_branch(steps[0]), letters[a])
                    if i == last_step:
                        branch = rt.mul(fold(i), rules[key])
                    else:
                        branch = rt.mul(held_branch(i), letters[a])
                    if branch == base:
                        same.add(i)
                    else:
                        violations.append(ConfluenceViolation(word, (steps[0], i), base - branch))
                if same and length < max_len:
                    settled[word] = same
    return ConfluenceReport(max_len, words_checked, branch_pairs, violations)

