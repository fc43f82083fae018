"""Derived operators, actions, closed forms, and the identity catalog.

Identity ids carry stable display anchors ("eq42-H-x" is the H-versus-x
commutation rule of display (42)).  The suffix "-as-printed" marks a
certificate entry that re-checks a relation exactly as originally displayed
where the engine derives a different coefficient; such entries are expected
to FAIL at the parameter families where the difference is visible, and they
never affect the process exit code.  The suffix is the rule:
``KNOWN_DISCREPANCY_IDS`` is read off it.

Every entry is a function ``residuals(rt)`` that yields residuals,
all zero when the identity holds.  ``verify_identity`` turns them into the
reported certificate by one rule, ``_first_nonzero``: the first nonzero
residual in order (iteration stops there), or zero.  An Element certifies
itself and a RationalFunction that multiple of the unit.  A TensorElement
certifies as the product of its slots, ``hopf.collapse``; when those
products cancel, as its first coefficient.

Entries register through ``_entry(id, anchor, kind, residuals)``, as a call
or a decorator, and ``_word`` registers relations written as text.  An
entry checks finitely many premises that prove it, but eq26 and eq55 check
fixed lists, and eq64-antipode-as-printed scans a fixed set of coordinates
for a witness.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterable
from fnmatch import fnmatchcase
from functools import partial
from itertools import product

from .coeffs import QspError, RationalFunction, qnumber
from .algebra import (
    COEFF_NAMES,
    CalculusType,
    D,
    Element,
    RuleTable,
    act_on_function,
    exterior_derivative,
    local_confluence_check,
    mono,
)
from . import covariance as cov
from . import hopf
# E reads the catalog's relations in the expression language
from .exprio import DERIVED_NAMES, expand_derived, parse_element as E


class UnknownIdentity(QspError):
    pass


# ----------------------------------------------------------------------------
# Actions and closed forms
# ----------------------------------------------------------------------------

def closed_form_H(ct: CalculusType, m: int, eps: int) -> RationalFunction:
    """Scalar eigenvalue of the degree operator on x^m th^eps."""
    return qnumber(m + eps, ct.Q)


def number_op(m: int, eps: int) -> int:
    """Eigenvalue of the number operator on x^m th^eps."""
    return m + eps


# ----------------------------------------------------------------------------
# Verification results
# ----------------------------------------------------------------------------

class VerifyResult(namedtuple("VerifyResult",
                              "identityId paperAnchor status residual elapsedMillis")):
    __slots__ = ()


class Identity(namedtuple("Identity", "identityId paperAnchor kind residuals")):
    """A catalog entry: ``kind`` is WORD or ACTION, and ``residuals(rt)``
    yields the residuals that vanish when the identity holds."""
    __slots__ = ()


def _first_nonzero(rt: RuleTable, residuals: Iterable) -> Element:
    """The certificate of ``residuals`` by the rule of the module docstring."""
    P = rt.params
    for r in residuals:
        if isinstance(r, hopf.TensorElement) and r.terms:
            slots = hopf.collapse(rt, r)
            r = Element.scalar(P, next(iter(r.terms.values()))) if slots.is_zero() else slots
        elif not isinstance(r, Element):
            r = Element.scalar(P, r)
        if not r.is_zero():
            return r
    return Element.zero(P)


# -- catalog construction ------------------------------------------------------

# identity id -> entry, in source-equation order
_CATALOG: dict[str, Identity] = {}

WORD, ACTION = "word-level", "action-level"


def _entry(id_: str, anchor: str, kind: str, residuals=None):
    """Register the entry whose ``residuals(rt)`` ``_first_nonzero``
    certifies, and return ``residuals``.  Without ``residuals``, a decorator
    that registers the function it decorates."""
    if residuals is None:
        return partial(_entry, id_, anchor, kind)
    _CATALOG[id_] = Identity(id_, anchor, kind, residuals)
    return residuals


def _word_residuals(relations: Iterable[str], rt: RuleTable):
    """The residuals of ``lhs == rhs`` relations as words: the differences
    of the two normal forms, in order."""
    for relation in relations:
        lhs, rhs = relation.split("==")
        yield E(rt, lhs) - E(rt, rhs)


def _word(id_: str, anchor: str, *relations: str, kind: str = WORD) -> None:
    _entry(id_, anchor, kind, partial(_word_residuals, relations))


# coordinate and differential module relations --------------------------------

_word("eq5-coordinates", "(5)", "x*th == q*th*x")
_word("eq5-theta-square", "(5)", "th*th == 0")
_word("eq11-x-dx", "(11)", "x*dx == Q*dx*x")
_word("eq11-x-dth", "(11)", "x*dth == Q11*dth*x + Q12*dx*th")
_word("eq11-th-dx", "(11)", "th*dx == Q21*dx*th + Q22*dth*x")
_word("eq11-th-dth", "(11)", "th*dth == dth*th")
_word("eq12-two-form", "(12)", "dx*dth == Qp*dth*dx")
_word("eq12-dx-square", "(12)", "dx*dx == 0")

_entry("eq18-covariance-constraints", "(18)", WORD, lambda rt: rt.ct.covariance_residuals())


@_entry("eq23-25-families", "(23)-(25)", WORD)
def _families_residuals(rt: RuleTable):
    for mode, conditions in cov.FAMILY_SIDE_CONDITIONS:
        want = CalculusType.by_name(mode)
        got = cov.solve_family(conditions, want.params)
        for name in COEFF_NAMES:
            diff = got.symbol(name) - want.symbol(name)
            # report in the engine's coefficient field: nonzero iff mismatch
            yield rt.params.zero() if diff.is_zero() else rt.params.one()


@_entry("eq26-bicovariance", "(26)", ACTION)
def _eq26_residuals(rt: RuleTable):
    for w in [["x"], ["th"], [("x", -1)], ["x", "th"], ["th", "x"], ["x", "x"], [("x", -1), "th"]]:
        yield from cov.bicovariance_residuals(rt, w)


# the generators of the coordinate algebra and of the differential module:
# eq9, eq14 and eq20 check the rules over them first (``hopf.relation_residuals``),
# so that the axioms, checked on the generators, hold everywhere
_COORDINATES = ("x", ("x", -1), "th")
_COORDINATE_MONOS = (mono(x=1), mono(x=-1), mono(th=1))
_DIFFERENTIALS = _COORDINATES + ("dx", "dth")


def _coaction_axioms_residuals(side: str, rt: RuleTable):
    yield from hopf.relation_residuals(rt, partial(hopf.coaction_element, side=side),
                                       hopf.rule_relations(rt, _DIFFERENTIALS))
    for g in _DIFFERENTIALS:
        yield from cov.coaction_axiom_residuals(rt, [g], side)


_entry("eq14-right-coaction-axioms", "(14)", ACTION,
       partial(_coaction_axioms_residuals, "right"))
_entry("eq20-left-coaction-axioms", "(20)", ACTION,
       partial(_coaction_axioms_residuals, "left"))


@_entry("eq17-constraint-extraction", "(17)-(18)", ACTION)
def _eq17_note_residuals(rt: RuleTable):
    cc = cov.generate_covariance_constraints()
    ok = cov.spans_match(cc.right, cov.expected_covariance_constraints()) and not cc.left
    return [rt.params.zero() if ok else rt.params.one()]


@_entry("eq9-hopf-axioms", "(9)", ACTION)
def _eq9_residuals(rt: RuleTable):
    relations = list(hopf.rule_relations(rt, _COORDINATES))
    for f, anti in ((hopf.coproduct_A, False), (hopf._counit, False), (hopf.antipode_A, True)):
        yield from hopf.relation_residuals(rt, f, relations, anti)
    for g in _COORDINATES:
        yield from hopf.hopf_axiom_check(rt, rt.word(g))


# (6) and (12) are about the displayed relations, so they read the typed rules
_entry("eq6-coproduct-kills-relations", "(6)", ACTION, lambda rt: hopf.relation_residuals(
    rt, hopf.coproduct_A, hopf.rule_relations(rt, _COORDINATES, typed=True)))
_entry("eq12-coaction-compatible", "(12)", ACTION, lambda rt: hopf.relation_residuals(
    rt, partial(hopf.coaction_element, side="right"),
    hopf.rule_relations(rt, ("dx", "dth"), typed=True)))


# Cartan-Maurer forms ----------------------------------------------------------

_word("eq28-x-omegax", "(28)", "x*wx == Q*wx*x")
_word("eq28-x-omegath", "(28)", "x*wth == Q11*wth*x")
_word("eq28-th-omegax", "(28)", "th*wx == -Q*wx*th + Q22*wth*x")
_word("eq28-th-omegath", "(28)", "th*wth == Q11*wth*th")
_word("eq29-omega-commute", "(29)", "wx*wth == wth*wx")
_word("eq29-omegax-square", "(29)", "wx*wx == 0")

_entry("eq30-w-coproduct-relations", "(30)", ACTION,
       lambda rt: hopf.w_relation_residuals(rt, "coproduct"))
_entry("eq32-w-antipode-relations", "(32)", ACTION,
       lambda rt: hopf.w_relation_residuals(rt, "antipode"))


# partial derivatives ----------------------------------------------------------

_word("eq33-exterior-via-partials", "(33)", "d == dx*px + dth*pth")
_word("eq34-px-x", "(34)", "px*x == 1 + Q*x*px + Q12*th*pth")
_word("eq34-px-th", "(34)", "px*th == -Q21*th*px")
_word("eq34-pth-x", "(34)", "pth*x == Q11*x*pth")
_word("eq34-pth-th", "(34)", "pth*th == 1 - th*pth - Q22*x*px")
_word("eq35-deriv-commute", "(35)", "px*pth == Qp*pth*px")
_word("eq35-pth-square", "(35)", "pth*pth == 0")
_word("eq36-px-dx", "(36)", "px*dx == Q^-1*dx*px - (1 + Qp^-1*Q21^-1)*dth*pth")
_word("eq36-px-dth", "(36)", "px*dth == Q11^-1*dth*px")
_word("eq36-pth-dx", "(36)", "pth*dx == Q21^-1*dx*pth")
_word("eq36-pth-dth", "(36)", "pth*dth == dth*pth + (1 - Qp*Q11^-1)*dx*px")
_word("eq37-px-d", "(37)", "px*d == Q^-1*d*px")
_word("eq37-pth-d", "(37)", "pth*d == -Q^-1*d*pth")

# quantum Lie superalgebra -----------------------------------------------------

_word("eq38-maurer-dx", "(38)", "wx*x == dx")
_word("eq38-maurer-dth", "(38)", "wx*th + wth*x == dth")
_word("eq39-d-decomposition", "(39)", "wx*H + wth*Nb == d")


_entry("eq40-maurer-closed", "(40)", ACTION, lambda rt: (
    exterior_derivative(rt, expand_derived(rt, w)) for w in ("wx", "wth")))


_word("eq41-Hnabla", "(41)", "H*Nb == Nb*H")
_word("eq41-nabla-square", "(41)", "Nb*Nb == 0")
_word("eq42-H-x", "(42)", "H*x == x + Q*x*H")
_word("eq42-H-th", "(42)", "H*th == th + Q*th*H")
_word("eq42-nabla-x", "(42)", "Nb*x == Q11*x*Nb")
_word("eq42-nabla-th", "(42)", "Nb*th == x - Q11*th*Nb - Q22*x*H")
_word("eq44-H-dx", "(44)", "H*dx == dx*H")
_word("eq44-H-dth", "(44)", "H*dth == dth*H")
_word("eq44-nabla-dx", "(44)", "Nb*dx == Q*Q21^-1*dx*Nb")
_word("eq44-nabla-dth", "(44)", "Nb*dth == Q11*dth*Nb + Q12*dx*H")

_entry("eq45-structure-identities", "(45)", WORD, lambda rt: rt.ct.structure_residuals())

_word("eq46-H-omegax", "(46)", "H*wx == -Q^-1*wx + Q^-1*wx*H")
_word("eq46-H-omegath", "(46)", "H*wth == -Q^-1*wth + Q^-1*wth*H")
_word("eq46-nabla-omegax", "(46)", "Nb*wx == -wx*Nb")
_word("eq46-nabla-omegath", "(46)",
      "Nb*wth == Q^-1*wx + wth*Nb + (1-Q^-1)*wx*H")
_word("eq46-nabla-omegath-as-printed", "(46)",
      "Nb*wth == Q^-1*wx + wth*Nb + (Q-1)*wx*H")
_word("eq48-T-omegax", "(48)", "T*wx == Q^-1*wx*T")
_word("eq48-T-omegath", "(48)", "T*wth == Q^-1*wth*T")
_word("eq48-nabla-omegath", "(48)", "Nb*wth == wth*Nb + Q^-1*wx*T")

_word("eq49-coefficient-relation", "(49)", "Q12 - Q22 == Q - 1")

_word("eq50-px-H", "(50)", "px*H == px + Q*H*px")
_word("eq50-pth-H", "(50)", "pth*H == pth + Q*H*pth")
_word("eq50-px-nabla", "(50)", "px*Nb == pth + Q*Qp*Nb*px")
_word("eq50-pth-nabla", "(50)", "pth*Nb == -Nb*pth")

_word("eq51-first-as-printed", "(51)", "Q12 - Qp*Q21 == 1")
_word("eq51-first-corrected", "(51)", "Q12 - Qp*Q21 == Q")
_word("eq51-second", "(51)", "Q11 == Qp*(Q + Q22)")


# (52)-(54) for every integer m, from finite checks.  On an associative table
# act is a module action, so once H moves past x and x^-1 as below,
# H(x*f) = x*f + Q*x*H(f) and H(x^-1*f) = Q^-1*(x^-1*H(f) - x^-1*f): the
# eigenvalue c(m) of H on x^m th^eps obeys c(m+1) = 1 + Q*c(m) in both
# directions from the base case c = eps on th^eps, so c(m) = [m+eps]_Q.
# Then T = 1 + (Q-1)*H acts by 1 + (Q-1)*[n]_Q = Q^n.
_H_PAST_X = ("H*x == x + Q*x*H", "H*x^-1 == Q^-1*x^-1*H - Q^-1*x^-1")

_word("eq52-H-monomials", "(52)", *_H_PAST_X)


def _closed_form_residuals(eps: int, rt: RuleTable):
    th_eps = Element.monomial(rt.params, mono(th=eps))
    yield act_on_function(rt, expand_derived(rt, "H"), th_eps) - th_eps.scale(eps)
    yield from _word_residuals(_H_PAST_X, rt)


_entry("eq52-H-closed-form", "(52)", ACTION, partial(_closed_form_residuals, 0))
_entry("eq53-H-closed-form", "(53)", ACTION, partial(_closed_form_residuals, 1))


@_entry("eq54-scale-operator-diagonal", "(54)", ACTION)
def _eq54_residuals(rt: RuleTable):
    yield from _word_residuals(["T == 1 + (Q-1)*H"], rt)
    for eps in (0, 1):
        yield from _closed_form_residuals(eps, rt)


_entry("eq55-number-operator", "(55)", WORD,
       lambda rt: [closed_form_H(rt.ct, m, eps) - qnumber(number_op(m, eps), rt.ct.Q)
                   for m in range(-4, 5) for eps in (0, 1)])


# (56) for every m >= 0, as (52)-(54) above: since act is a module action,
# Nb*x == Q11*x*Nb gives Nb(x*f) = Q11*x*Nb(f), so Nb(x^m th) = Q11^m x^(m+1)
# by induction on m from the base case Nb(th) = x.
@_entry("eq56-nabla-action", "(56)", ACTION)
def _eq56_action_residuals(rt: RuleTable):
    yield act_on_function(rt, E(rt, "Nb"), E(rt, "th")) - E(rt, "x")
    yield from _word_residuals(["Nb*x == Q11*x*Nb"], rt)


# The word forms of (56) and (58) at x^m*th for every m >= 0, the same way:
# on an associative table Nb*x == Q11*x*Nb gives Nb*x^m = Q11^m*x^m*Nb, and
# the x*wx and x*wth words give x^m*wx = Q^m*wx*x^m and x^m*wth =
# Q11^m*wth*x^m, so x^m times each th word, Nb, wx or wth moved past x^m, is
# the display at x^m*th.
_word("eq56-nabla-monomials", "(56)", "Nb*x == Q11*x*Nb", "Nb*th == x - Q11*th*Nb - Q22*x*H")

# At x^m*th the printed (56) and (58) differ from the derived ones by
# Q22*(Q11 - Q11^m) and Q22*(Q^m - Q11^m) times a word.  Each difference
# vanishes for every m exactly when it does at m = 0 (56) or m = 1 (58), so
# each twin is the display at that m, where a scan over m first fails.
_word("eq56-nabla-monomials-as-printed", "(56)", "Nb*th == x - Q11*th*Nb - Q11*Q22*x*H")
_word("eq58-monomial-omegax", "(58)",
      "x*wx == Q*wx*x", "th*wx == -Q*wx*th + Q22*wth*x", "x*wth == Q11*wth*x")
_word("eq58-monomial-omegax-as-printed", "(58)", "x*th*wx == -Q^2*wx*x*th + Q*Q22*wth*x^2")
_word("eq58-monomial-omegath", "(58)", "th*wth == Q11*wth*th", "x*wth == Q11*wth*x")


# (59) and (62) for every pair (f, g), as (52)-(54) above: the word W_f of
# hopf.leibniz_residual acts on g as the rule's residual at (f, g).  T is
# multiplicative and W_f kills 1, so on an associative table W_{f1 f2} =
# W_{f1}*f2 - act(W_{f1}, f2) + T(f1)*W_{f2} at H.  At Nb, with V = Q22*Nb, the
# same holds with K for T when f1 = x^±1, W_{f1} = 0 and V(f1) = 0: the zero
# word then gives V(f1*f2) = K(f1)*V(f2), which the V(f)*H term needs.  Every
# function monomial is 1, th or x^±1*f2, so the words at x, x^-1 and th suffice.
def _leibniz_residuals(name: str, rt: RuleTable):
    return (hopf.leibniz_residual(rt, name, f) for f in _COORDINATE_MONOS)


_entry("eq59-H-twisted-leibniz", "(59)", ACTION, partial(_leibniz_residuals, "H"))


@_entry("eq62-nabla-twisted-leibniz", "(62)", ACTION)
def _eq62_residuals(rt: RuleTable):
    yield from _leibniz_residuals("Nb", rt)
    yield from (E(rt, f"Q22*Nb*{f}").vacuum() for f in ("x", "x^-1"))   # V(x^±1)


_entry("eq62-coproduct-square", "(62)", ACTION, lambda rt: [
    rt.params.one() if hopf.u_coproduct_square_nabla(rt.params) else rt.params.zero()])


# the corrected laws are operator identities (their operator is 0, so no
# residual); the as-printed one fails, and |x-degree| <= 6 shows a witness
def _eq64_residuals(gen, variant: str, rt: RuleTable):
    return hopf.antipode_U_residuals(rt, gen(rt.params), variant)


_entry("eq64-antipode-scale", "(64)", ACTION,
       partial(_eq64_residuals, hopf.UElement.gen_K, "corrected"))
_entry("eq64-antipode-corrected", "(64)", ACTION,
       partial(_eq64_residuals, hopf.UElement.gen_nabla, "corrected"))
_entry("eq64-antipode-as-printed", "(64)", ACTION,
       partial(_eq64_residuals, hopf.UElement.gen_nabla, "as-printed"))


@_entry("eq67-pairing-table", "(67)", ACTION)
def _eq67_residuals(rt: RuleTable):
    P = rt.params
    T, nb = hopf.UElement.gen_T(P), hopf.UElement.gen_nabla(P)
    x, th, xth = E(rt, "x"), E(rt, "th"), E(rt, "x*th")
    return [
        hopf.pair(rt, T, x) - rt.ct.Q,
        hopf.pair(rt, T, th),
        hopf.pair(rt, nb, x),
        hopf.pair(rt, nb, th) - P.one(),
        hopf.pair(rt, T, xth),
        hopf.pair(rt, nb, xth) - rt.ct.Q11,
    ]


# (70)-(71) as words, which act on every function
_word("eq70-T-x", "(70)", "T*x == Q*x*T", kind=ACTION)
_word("eq71-T-th", "(71)", "T*th == Q*th*T", kind=ACTION)
_word("eq71-nabla-x", "(71)", "Nb*x == Q11*x*Nb", kind=ACTION)
_word("eq71-nabla-th", "(71)", "Nb*th == x - Q11*th*Nb - Q22*x*H", kind=ACTION)


# (73) for every function f: every term of ix*g and ith*g, g = x, x^-1 or th,
# ends in ix or ith, and an operator kills 1, so ix(f) = ith(f) = 0 by
# induction on f; the (82) words then act on f as ix(df) = px(f), ith(df) = pth(f)
@_entry("eq73-inner-on-exterior", "(73)", ACTION)
def _eq73_residuals(rt: RuleTable):
    for i, g in product(("ix", "ith"), _COORDINATES):
        yield rt.word(i, g).vacuum()
    for id_ in ("eq82-cartan-factor-x", "eq82-cartan-factor-th"):
        yield from _CATALOG[id_].residuals(rt)


@_entry("eq76-inner-kronecker", "(76)", ACTION)
def _eq76_residuals(rt: RuleTable):
    ix, ith, dx, dth = (E(rt, g) for g in ("ix", "ith", "dx", "dth"))
    one = Element.one(rt.params)
    return [
        act_on_function(rt, ix, dx) - one,
        act_on_function(rt, ix, dth),
        act_on_function(rt, ith, dx),
        act_on_function(rt, ith, dth) - one,
    ]


_word("eq75-fifth-as-printed", "(75)", "Q22*(q*Q + 1) == 0")
_entry("eq75-ansatz-system", "(75)", WORD,
       lambda rt: cov.inner_relation_residuals(rt, "inner-coordinate"))
_entry("eq78-ansatz-system", "(78)", WORD,
       lambda rt: cov.inner_relation_residuals(rt, "inner-differential"))

_word("eq83-a8-as-printed", "(83)", "Q11/Q == Qp*(1 + Q22/(Q*Qp))")

_word("eq82-cartan-factor-x", "(82)", "ix*d + Q^-1*d*ix == px")
_word("eq82-cartan-factor-th", "(82)", "ith*d - Q^-1*d*ith == pth")

# inner derivations ------------------------------------------------------------

_word("eq84-ix-x", "(84)", "ix*x == Q*x*ix + Q12*th*ith")
_word("eq84-ix-th", "(84)", "ix*th == Q21*th*ix")
_word("eq84-ith-x", "(84)", "ith*x == Q11*x*ith")
_word("eq84-ith-th", "(84)", "ith*th == th*ith + Q22*x*ix")
_word("eq85-ix-dx", "(85)", "ix*dx == 1 - dx*ix - Q^-1*Q12*dth*ith")
_word("eq85-ix-dth", "(85)", "ix*dth == -Q^-1*Q21*dth*ix")
_word("eq85-ith-dx", "(85)", "ith*dx == Q^-1*Q11*dx*ith")
_word("eq85-ith-dth", "(85)",
      "ith*dth == 1 + Q^-1*dth*ith + Q^-1*Q22*dx*ix")
_word("eq85-ith-dth-as-printed", "(85)",
      "ith*dth == 1 + Q^-1*dth*ith + Q^-1*Qp^-1*Q22*dx*ix")
_word("eq86-ix-px", "(86)", "ix*px == Q^-1*px*ix")
_word("eq86-ix-pth", "(86)", "ix*pth == Q21^-1*pth*ix - Q11^-1*Q21^-1*Q12*px*ith")
_word("eq86-ith-px", "(86)", "ith*px == Q11^-1*px*ith - Q11^-1*Q21^-1*Q22*pth*ix")
_word("eq86-ith-pth", "(86)", "ith*pth == pth*ith")

# Lie derivatives ---------------------------------------------------------------

_word("eq93-Lx-x", "(93)",
      "Lx*x == 1 + Q*x*Lx + Q12*th*Lth + (Q-1)*(dx*ix + Q^-1*Q12*dth*ith)")
_word("eq94-Lx-th", "(94)", "Lx*th == -Q21*th*Lx + Q21*(1-Q^-1)*dth*ix")
_word("eq94-Lth-x", "(94)", "Lth*x == Q11*x*Lth + Q11*(Q^-1-1)*dx*ith")
_word("eq94-Lth-th", "(94)",
      "Lth*th == 1 - th*Lth - Q22*x*Lx + Q22*(Q^-1-1)*dx*ix + (Q^-1-1)*dth*ith")
_word("eq94-Lth-th-as-printed", "(94)",
      "Lth*th == 1 - th*Lth - Q22*x*Lx - Q22*(Q^-1*Qp^-1-1)*dx*ix + (Q^-1-1)*dth*ith")
_word("eq95-Lx-dx", "(95)", "Lx*dx == dx*Lx + Q^-1*Q12*dth*Lth")
_word("eq95-Lx-dth", "(95)", "Lx*dth == -Q^-1*Q21*dth*Lx")
_word("eq95-Lth-dx", "(95)", "Lth*dx == -Q^-1*Q11*dx*Lth")
_word("eq95-Lth-dth", "(95)", "Lth*dth == Q^-1*dth*Lth + Q^-1*Q22*dx*Lx")
_word("eq95-Lth-dth-as-printed", "(95)",
      "Lth*dth == Q^-1*dth*Lth + Q^-1*Qp^-1*Q22*dx*Lx")
_word("eq96-Lx-px", "(96)", "Lx*px == px*Lx")
_word("eq96-Lx-pth", "(96)",
      "Lx*pth == -Q*Q21^-1*pth*Lx + Q*Q11^-1*Q21^-1*Q12*px*Lth")
_word("eq96-Lth-px", "(96)",
      "Lth*px == Q*Q11^-1*px*Lth - Q*Q11^-1*Q21^-1*Q22*pth*Lx")
_word("eq96-Lth-pth", "(96)", "Lth*pth == -Q*pth*Lth")


_word("eq97-innersquare", "(97)", "ix*ix == 0", "ix*ith == -Q11/(Q12-Q)*ith*ix")

_word("eq98-Lx-ix", "(98)", "Lx*ix == ix*Lx")
_word("eq98-Lx-ith", "(98)",
      "Lx*ith == -Q*Q21^-1*ith*Lx + Q12*(Q-Q12)^-1*ix*Lth")
_word("eq98-Lth-ix", "(98)",
      "Lth*ix == -Q*Q11^-1*ix*Lth - Qp^-1*Q21^-1*Q*Q22*ith*Lx")
_word("eq98-Lth-ith", "(98)", "Lth*ith == Q*ith*Lth")
_word("eq98-Lth-ith-as-printed", "(98)", "Lth*ith == Q^-1*ith*Lth")
_word("eq99-lie-commute", "(99)", "Lx*Lth == Q21^-1*(Q12-Q)*Lth*Lx")
_word("eq99-Lth-square", "(99)", "Lth*Lth == 0")


_word("eq100-lie-as-partial", "(100)",
      "Lx == px + (1-Q^-1)*d*ix", "Lth == pth - (1-Q^-1)*d*ith")
_word("eq101-lie-via-fields", "(101)",
      "Lx == x^-1*H - x^-1*th*x^-1*Nb + (1-Q^-1)*d*ix",
      "Lth == x^-1*Nb - (1-Q^-1)*d*ith")


# (3) for every form.  The length-3 audit resolves every overlap of two rules,
# d's included (162 words); the overlaps of x with x^-1 are the round trips
# that RuleTable._round_trip checks when it solves the x^-1 rules.  With
# termination (README), Bergman's diamond lemma makes the table confluent, so
# mul is associative and act a module action: d(d(w)) = act(d*d, w) for every
# form w, and the word d*d normal-orders to 0.
@_entry("eq3-d-squared-zero", "(3)", ACTION)
def _dd_zero_residuals(rt: RuleTable):
    yield from (v.residual for v in local_confluence_check(rt, 3).violations)
    yield from _word_residuals(["d*d == 0"], rt)


# (33) for every form, by construction given one premise, checked on the
# table.  act is linear and d is realized as dx*px + dth*pth, so d(w) =
# act(dx*px, w) + act(dth*pth, w), and RuleTable._act_mono computes
# act(u*o, w) as u*act(o, w).  That is the vacuum part of u*o*w when left
# multiplication by a form never makes an operator letter: when no rule
# between two letters before d has a term with an operator letter.
@_entry("eq33-exterior-action", "(33)", ACTION)
def _eq33_action_residuals(rt: RuleTable):
    return (rhs - rhs.vacuum() for (a, b, _), rhs in rt.rules.items() if a < D and b < D)


# ----------------------------------------------------------------------------
# Catalog API
# ----------------------------------------------------------------------------

# the entries whose failure never affects the exit code: the "-as-printed" ones
KNOWN_DISCREPANCY_IDS = frozenset(i for i in _CATALOG if i.endswith("-as-printed"))


def identity_catalog() -> list[tuple[str, str, str]]:
    """Stable list of (id, anchor, kind), in source-equation order."""
    return [(i.identityId, i.paperAnchor, i.kind) for i in _CATALOG.values()]


def verify_identity(rt: RuleTable, identity_id: str) -> VerifyResult:
    entry = _CATALOG.get(identity_id)
    if entry is None:
        raise UnknownIdentity(f"unknown identity {identity_id!r}")
    t0 = time.monotonic()
    residual = _first_nonzero(rt, entry.residuals(rt))
    elapsed = int((time.monotonic() - t0) * 1000)
    status = "PASS" if residual.is_zero() else "FAIL"
    return VerifyResult(entry.identityId, entry.paperAnchor, status, residual, elapsed)


def run_suite(rt: RuleTable, pattern: str | None = None, *,
              bound: object = None) -> list[VerifyResult]:
    """Verify every entry, or those whose id matches the glob ``pattern``.
    No entry samples, so ``bound`` is ignored; it is accepted only for
    callers that still pass it (the benchmark's catalog workload)."""
    out = []
    for identity_id in _CATALOG:
        if pattern and not fnmatchcase(identity_id, pattern):
            continue
        out.append(verify_identity(rt, identity_id))
    if pattern and not out:
        raise UnknownIdentity(f"no identity matches {pattern!r}")
    return out
