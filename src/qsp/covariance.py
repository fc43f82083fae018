"""Coactions on first-order differentials and covariance constraint solving.

The right and left coactions (``hopf.coaction``) extend the coordinate
coproduct by

    dR(dx) = dx (x) x          dL(dx) = x (x) dx
    dR(dth) = dth (x) x + dx (x) th
    dL(dth) = x (x) dth - th (x) dx

multiplicatively with Koszul signs.

Each constraint system is written once, as a generator of residuals on a
rule table: ``relation_coaction_residuals`` applies a coaction to the rules
(11) by ``hopf.relation_residuals``, and ``inner_relation_residuals`` moves
each inner derivation through the coordinate or the two-form relations,
the systems (75) and (78).  Every printed system reads one table of
unknowns, ``ansatz_table``, where the residuals' coefficients collected are
the system; on an engine table they all vanish when the system holds there,
which is what eq75 and eq78 check.
``solve-types`` solves the four constraints (18) as
``CalculusType.covariance_residuals`` writes them, under the documented side
conditions, for the three parameter families; eq17 checks that this list
spans the system derived from the coactions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from operator import sub

from .coeffs import (
    NonMonomialDivisor,
    ParamSet,
    QspError,
    RationalFunction,
    _grlex_key,
)
from .algebra import (
    COEFF_NAMES,
    CalculusType,
    Element,
    RuleTable,
    exterior_derivative,
    rule_coeffs,
    shaped_rules,
    word_letters,
)
from .hopf import (
    TensorElement,
    coaction,
    coaction_element,
    coaction_mono,
    comodule_residuals,
    coproduct_A,
    relation_residuals,
    rule_relations,
    tensor_map_slot,
)


class UnderdeterminedSystem(QspError):
    pass


class InconsistentSideConditions(QspError):
    pass


# ----------------------------------------------------------------------------
# Coactions on the first-order differential module
# ----------------------------------------------------------------------------

def delta_R(rt: RuleTable, word) -> TensorElement:
    """Right coaction of the coordinate Hopf algebra on a differential word."""
    return coaction(rt, word_letters(word), "right")


def delta_L(rt: RuleTable, word) -> TensorElement:
    """Left coaction on a differential word."""
    return coaction(rt, word_letters(word), "left")


def coaction_axiom_residuals(rt: RuleTable, word, side: str) -> list:
    """Comodule axioms: compatibility with the coproduct and the counit."""
    te = delta_R(rt, word) if side == "right" else delta_L(rt, word)
    return comodule_residuals(rt, te, rt.normalize_word(word), side)


def bicovariance_residuals(rt: RuleTable, word) -> list:
    """The three compatibility identities between d, dR and dL on a word."""
    def d_map(m) -> TensorElement:   # d as a rank-1 tensor
        return TensorElement.of(exterior_derivative(rt, Element.monomial(rt.params, m)))

    e = rt.normalize_word(word)
    de = exterior_derivative(rt, e)
    # on a coordinate element both coactions are the coproduct
    delta = coproduct_A(rt, e)
    res1 = tensor_map_slot(delta, 1, d_map, odd=True) - coaction_element(rt, de, "left")
    res2 = tensor_map_slot(delta, 0, d_map, odd=True) - coaction_element(rt, de, "right")
    lhs = tensor_map_slot(delta, 0, lambda m: coaction_mono(rt, m, "left"))
    rhs = tensor_map_slot(delta, 1, lambda m: coaction_mono(rt, m, "right"))
    return [res1, res2, lhs - rhs]


# ----------------------------------------------------------------------------
# Constraint generation over a symbolic ansatz
# ----------------------------------------------------------------------------

# q, the structure coefficients, and the (75) and (78) ansatz unknowns
ANSATZ_PARAMS = ParamSet("ansatz", ("q",) + COEFF_NAMES
                         + tuple(f"A{i}" for i in range(1, 9))
                         + tuple(f"a{i}" for i in range(1, 9)))

# the deformation parameters, units of the coefficient ring
_UNITS = ("q", "Qp")


def ansatz_type() -> CalculusType:
    """The type whose structure coefficients are unknowns of their own name."""
    return CalculusType(ANSATZ_PARAMS, *map(ANSATZ_PARAMS.var, COEFF_NAMES))


def ansatz_table() -> RuleTable:
    """Every typed rule, (5), (11), (12), (97) and the shapes of (75) and
    (78), each coefficient an unknown of its own name, and the squares of
    the nilpotent generators; the rules that build derives from them are
    left out."""
    ct = ansatz_type()
    return RuleTable(ct, shaped_rules(ct.params, rule_coeffs(ct)))


def _primitive_poly(rf: RationalFunction) -> RationalFunction:
    """A constraint as a polynomial in the unknowns, with its content in the
    units stripped and its grlex leading coefficient 1.

    The deformation parameters are units of the coefficient ring, so every
    power of them is stripped; negative powers of the unknowns are cleared,
    but their positive common factors are meaningful and kept.
    """
    lp = rf.lp
    if not lp:
        return rf
    shift = [min(e) if v in _UNITS else min(0, *e)
             for v, e in zip(rf.params.variables, zip(*lp))]
    lp = {tuple(map(sub, m, shift)): c for m, c in lp.items()}
    lc = lp[max(lp, key=_grlex_key)]
    return RationalFunction(rf.params, {m: Fraction(c, lc) for m, c in lp.items()})


def _collect_constraints(residuals: Iterable[Element]) -> list[RationalFunction]:
    """The distinct nonzero primitive constraints of the residuals'
    coefficients, in the order they first occur."""
    primitive = (_primitive_poly(c)
                 for residual in residuals for c in residual.terms.values())
    return list(dict.fromkeys(p for p in primitive if not p.is_zero()))


class CovarianceConstraints(namedtuple("CovarianceConstraints", "right left")):
    """Output of the constraint pass: generators per side, each a list of
    ``RationalFunction``."""
    __slots__ = ()


def relation_coaction_residuals(rt: RuleTable, side: str):
    """``hopf.relation_residuals`` of the coaction on ``side`` over the rules
    (11) of ``rt``: x*dx, x*dth, th*dx, th*dth.  All vanish when ``rt`` is
    covariant."""
    return relation_residuals(rt, partial(coaction_element, side=side),
                              rule_relations(rt, ("x", "th"), ("dx", "dth")))


def generate_covariance_constraints() -> CovarianceConstraints:
    """The relation coaction residuals on the ansatz table, as constraints.

    Returns the polynomial constraints extracted from the right coaction and
    the (empty, when all goes well) list of new constraints from the left
    coaction.  Two mixed symbols in the paper's displayed expansion are read
    as Q21 and Q22.
    """
    rt = ansatz_table()
    right = _collect_constraints(relation_coaction_residuals(rt, "right"))
    left_all = _collect_constraints(relation_coaction_residuals(rt, "left"))
    left_new = [p for p in left_all if not _in_linear_span(right, [p])]
    return CovarianceConstraints(right, left_new)


def expected_covariance_constraints() -> list[RationalFunction]:
    """The published four-constraint system (18), as primitive polynomials:
    ``CalculusType.covariance_residuals`` at the ansatz."""
    return [_primitive_poly(e) for e in ansatz_type().covariance_residuals()]


# -- linear algebra over rational functions -----------------------------------

def _row_reduce(rows: Iterable[list[RationalFunction]]) -> list[tuple[int, list]]:
    """Fraction-free Gauss-Jordan elimination: the nonzero rows of a
    row-echelon form of ``rows``, each as (pivot column, row), whose pivot
    entry is the only nonzero entry of its column.  A row is combined with a
    pivot row by cross-multiplying and never divided, so a pivot of more
    than one term is no divisor; a caller divides by the pivots it needs."""
    reduced: list[tuple[int, list]] = []
    for row in rows:
        for col, prow in reduced:
            f = row[col]
            if not f.is_zero():
                p = prow[col]
                row = [p * a - f * b for a, b in zip(row, prow)]
        col = next((i for i, c in enumerate(row) if not c.is_zero()), None)
        if col is None:
            continue
        pivot = row[col]
        reduced = [(pc, pr) if pr[col].is_zero()
                   else (pc, [pivot * a - pr[col] * b for a, b in zip(pr, row)])
                   for pc, pr in reduced]
        reduced.append((col, row))
    return reduced


def _in_linear_span(gens: Sequence[RationalFunction],
                    queries: Sequence[RationalFunction]) -> bool:
    """Whether every query lies in the span of gens over rational functions
    of q, with the unknowns entering linearly (affine terms allowed): whether
    the queries leave the rank of gens unchanged."""
    qvar = ParamSet("qline", ("q",))

    def vectorize(p: RationalFunction) -> dict:
        # the q exponent comes first in an ansatz monomial; the rest names a column
        vec: dict = {}
        for m, c in p.lp.items():
            cur = vec.setdefault(m[1:], {})
            cur[m[:1]] = cur.get(m[:1], 0) + c
        return {k: RationalFunction(qvar, v) for k, v in vec.items()}

    rows = [vectorize(p) for p in gens]
    cols = sorted({c for row in rows for c in row} |
                  {m[1:] for p in queries for m in p.lp})

    def to_row(vec: dict) -> list:
        return [vec.get(c, qvar.zero()) for c in cols]

    basis = [row for _, row in _row_reduce(to_row(r) for r in rows)]
    return len(_row_reduce(basis + [to_row(vectorize(p)) for p in queries])) == len(basis)


def spans_match(a: Sequence[RationalFunction], b: Sequence[RationalFunction]) -> bool:
    return _in_linear_span(a, b) and _in_linear_span(b, a)


# ----------------------------------------------------------------------------
# Inner-derivation ansatz systems
# ----------------------------------------------------------------------------

# kind -> the relation symbol c and the relations the inner derivations pass
# through: a pair (pair = c * reversed pair) and a square (square = 0)
_INNER_RELATIONS = {
    "inner-coordinate": ("q", ("x", "th"), ("th", "th")),
    "inner-differential": ("Qp", ("dx", "dth"), ("dx", "dx")),
}


def inner_relation_residuals(rt: RuleTable, kind: str):
    """Each inner derivation moved through both sides of a relation in
    ``rt``: for kind 'inner-coordinate' the coordinate relations
    (x th = q th x, th^2 = 0), for 'inner-differential' the two-form
    relations (dx dth = Qp dth dx, dx^2 = 0).  All vanish when the rules of
    ``ix`` and ``ith`` are consistent with those relations."""
    if kind not in _INNER_RELATIONS:
        raise ValueError(f"unknown ansatz kind {kind!r}")
    symbol, pair, square = _INNER_RELATIONS[kind]
    c = rt.ct.symbol(symbol)
    for mover in ("ix", "ith"):
        yield (rt.normalize_word((mover,) + pair)
               - rt.normalize_word((mover,) + pair[::-1]).scale(c))
        yield rt.normalize_word((mover,) + square)


def generate_ansatz_constraints(kind: str) -> list[RationalFunction]:
    """Consistency constraints of the inner-derivation ansatz: the residuals
    of ``inner_relation_residuals`` on the ansatz table, whose ``ix`` and
    ``ith`` rules carry the unknowns A1..A8 and a1..a8."""
    return _collect_constraints(inner_relation_residuals(ansatz_table(), kind))


# ----------------------------------------------------------------------------
# Family solving
# ----------------------------------------------------------------------------

# The side conditions that single out each covariant family, by the name of
# its type; the type's own parameters are the field they are solved over.
FAMILY_SIDE_CONDITIONS = (
    ("I", {"Q12": 0, "Q22": 0}),
    ("II", {"Q22": 0, "Q": "r"}),
    ("III", {"Q12": 0, "Q": "p"}),
)


def solve_family(side_conditions: Mapping[str, "RationalFunction | int | str"],
                 params: ParamSet) -> CalculusType:
    """Solve (18), the list ``CalculusType.covariance_residuals``, under the
    side conditions; eq17 ties that list to the system derived from the
    coactions.  It is affine in (Q, Q11, Q12, Q21, Q22) over the rational
    functions in the mode parameters, so the column of a free unknown is the
    list at it 1 minus the list at it 0, and elimination gives the unknowns
    that the side conditions leave.  Qp is set by the structure identity
    Q*(Q11 - Qp) = Q11*Q12.
    """
    zero = params.zero()
    unknowns = COEFF_NAMES[:-1]   # Qp follows from the others
    fixed = {name: params.rf(v) for name, v in side_conditions.items()}
    for name in fixed:
        if name not in unknowns:
            raise InconsistentSideConditions(f"unknown coefficient {name!r}")
    free = [u for u in unknowns if u not in fixed]

    def residuals(**values) -> list[RationalFunction]:
        values = {**dict.fromkeys(free, zero), **fixed, **values}
        return CalculusType(params, Qp=zero, **values).covariance_residuals()

    def quotient(name: str, a: RationalFunction, b: RationalFunction) -> RationalFunction:
        if len(b.packed) > 1:
            raise NonMonomialDivisor(f"side conditions {dict(side_conditions)} give {name} only "
                                     f"as a quotient by {b}, a divisor of more than one term")
        return a / b

    const = residuals()
    columns = [residuals(**{u: params.one()}) for u in free]
    matrix = [[col[i] - c for col in columns] + [-c] for i, c in enumerate(const)]
    reduced = _row_reduce(matrix)
    pivots = {col for col, _ in reduced}
    if len(free) in pivots:
        raise InconsistentSideConditions(f"side conditions {dict(side_conditions)} "
                                         "contradict the constraints")
    missing = [u for i, u in enumerate(free) if i not in pivots]
    if missing:
        raise UnderdeterminedSystem(f"side conditions {dict(side_conditions)} leave "
                                    f"unconstrained coefficients: {missing}")
    values = dict(fixed)
    values.update((free[col], quotient(free[col], row[-1], row[col])) for col, row in reduced)
    Q, Q11, Q12 = values["Q"], values["Q11"], values["Q12"]
    if Q.is_zero():
        raise InconsistentSideConditions(f"side conditions {dict(side_conditions)} give "
                                         "Q = 0, but Q must be invertible")
    ct = CalculusType(params, Qp=quotient("Qp", Q * Q11 - Q11 * Q12, Q), **values)
    try:
        ct.validate()
    except QspError as e:
        raise type(e)(f"side conditions {dict(side_conditions)} give a type "
                      f"that fails validation: {e}") from e
    return ct
