"""Coactions on first-order differentials and covariance constraint solving.

The right and left coactions (``hopf.coaction``) extend the coordinate
coproduct by

    dR(dx) = dx (x) x          dL(dx) = x (x) dx
    dR(dth) = dth (x) x + dx (x) th
    dL(dth) = x (x) dth - th (x) dx

multiplicatively with Koszul signs.  Applying dR to the differential-module
relations with unknown structure coefficients and collecting tensor-basis
coefficients yields a linear constraint system.  ``solve-types`` solves the
four constraints (18) as ``CalculusType.covariance_residuals`` writes them,
under the documented side conditions, for the three parameter families;
eq17 checks that this list spans the system derived from the coactions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .coeffs import (
    PARAMS_I,
    PARAMS_II,
    PARAMS_III,
    ParamSet,
    Poly,
    QspError,
    RationalFunction,
    _poly_monic,
    _poly_substitute_rf,
)
from .algebra import (
    DX, DTH, X, TH, IX,
    CalculusType,
    Element,
    RuleTable,
    inner_rules,
    mono,
    word_letters,
)
from .hopf import (
    TensorElement,
    coaction,
    coaction_element,
    coaction_mono,
    comodule_residuals,
    coproduct_A,
    tensor_apply_slot,
    tensor_expand_slot,
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
    def d_map(a: Element) -> Element:
        return rt.act(rt.d_element(), a)

    e = rt.normalize_word(word)
    de = d_map(e)
    # on a coordinate element both coactions are the coproduct
    delta = coproduct_A(rt, e)
    res1 = tensor_apply_slot(delta, 1, d_map, fn_parity=1) - coaction_element(rt, de, "left")
    res2 = tensor_apply_slot(delta, 0, d_map, fn_parity=1) - coaction_element(rt, de, "right")
    lhs = tensor_expand_slot(delta, 0, lambda m: coaction_mono(rt, m, "left"))
    rhs = tensor_expand_slot(delta, 1, lambda m: coaction_mono(rt, m, "right"))
    return [res1, res2, lhs - rhs]


# ----------------------------------------------------------------------------
# Constraint generation over a symbolic ansatz
# ----------------------------------------------------------------------------

ANSATZ_PARAMS = ParamSet("ansatz", ("q", "Q", "Q11", "Q12", "Q21", "Q22", "Qp"))


def ansatz_type() -> CalculusType:
    P = ANSATZ_PARAMS
    return CalculusType(P, P.var("Q"), P.var("Q11"), P.var("Q12"),
                        P.var("Q21"), P.var("Q22"), P.var("Qp"))


def ansatz_table() -> RuleTable:
    return RuleTable.build(ansatz_type(), validate=False)


def _primitive_poly(params: ParamSet, rf: RationalFunction,
                    units: tuple = ("q", "Qp")) -> Poly:
    """Numerator of a constraint with invertible-parameter content stripped.

    Only the deformation parameters (units of the coefficient ring) are
    stripped; common factors in the unknowns are meaningful and kept.
    """
    num = rf.num
    if not num:
        return {}
    unit_idx = [i for i, v in enumerate(params.variables) if v in units]
    content = None
    for m in num:
        cur = tuple(m[i] for i in unit_idx)
        content = cur if content is None else tuple(min(a, b) for a, b in zip(content, cur))
    if content and any(content):
        shift = {i: c for i, c in zip(unit_idx, content)}
        num = {tuple(e - shift.get(i, 0) for i, e in enumerate(m)): c
               for m, c in num.items()}
    return _poly_monic(num)


def _collect_constraints(params: ParamSet,
                         residuals: Iterable[Element]) -> list[Poly]:
    """The distinct nonzero primitive numerators of the residuals'
    coefficients, in the order they first occur."""
    out: dict = {}
    for residual in residuals:
        for c in residual.terms.values():
            p = _primitive_poly(params, c)
            if p:
                out.setdefault(tuple(sorted(p.items())), p)
    return list(out.values())


_MODULE_RELATIONS = (
    # (left word, [(coefficient name, right word), ...]) for x*dx = Q dx*x etc.
    ((("x", 1), ("dx", 1)), (("Q", (("dx", 1), ("x", 1))),)),
    ((("x", 1), ("dth", 1)), (("Q11", (("dth", 1), ("x", 1))), ("Q12", (("dx", 1), ("th", 1))))),
    ((("th", 1), ("dx", 1)), (("Q21", (("dx", 1), ("th", 1))), ("Q22", (("dth", 1), ("x", 1))))),
    ((("th", 1), ("dth", 1)), (("one", (("dth", 1), ("th", 1))),)),
)


class CovarianceConstraints:
    """Output of the constraint pass: generators per side plus notes."""

    def __init__(self, right: list[Poly], left: list[Poly], notes: list[str]):
        self.right = right
        self.left = left
        self.notes = notes


def generate_covariance_constraints() -> CovarianceConstraints:
    """Apply both coactions to the differential-module relations symbolically.

    Returns the polynomial constraints extracted from the right coaction, the
    (empty, when all goes well) list of new constraints from the left
    coaction, and human-readable notes.
    """
    rt = ansatz_table()
    P = rt.params
    notes = [
        "two mixed symbols in the displayed expansion are read as Q21 and Q22",
        "the left-coaction pass adds no constraints beyond the right-coaction set",
    ]

    def rel_residuals(side: str):
        for lhs_word, rhs in _MODULE_RELATIONS:
            te = coaction(rt, word_letters(lhs_word), side)
            for coeff_name, rhs_word in rhs:
                c = P.one() if coeff_name == "one" else P.var(coeff_name)
                te.add_scaled(coaction(rt, word_letters(rhs_word), side), -c)
            yield te

    right = _collect_constraints(P, rel_residuals("right"))
    left_all = _collect_constraints(P, rel_residuals("left"))
    left_new = [p for p in left_all if not _in_linear_span(right, [p])]
    return CovarianceConstraints(right, left_new, notes)


def expected_covariance_constraints() -> list[Poly]:
    """The published four-constraint system (18), as primitive polynomials:
    ``CalculusType.covariance_residuals`` at the ansatz."""
    return [_primitive_poly(ANSATZ_PARAMS, e) for e in ansatz_type().covariance_residuals()]


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


def _in_linear_span(gens: Sequence[Poly], queries: Sequence[Poly]) -> bool:
    """Membership of each query in the span of gens over rational functions
    of q, with the unknowns entering linearly (affine terms allowed)."""
    qvar = ParamSet("qline", ("q",))

    def vectorize(p: Poly) -> dict:
        # the q exponent comes first in an ansatz monomial; the rest names a column
        vec: dict = {}
        for m, c in p.items():
            cur = vec.setdefault(m[1:], {})
            cur[m[:1]] = cur.get(m[:1], Fraction(0)) + c
        return {k: RationalFunction(qvar, {e: c for e, c in v.items() if c},
                                    {(0,): Fraction(1)})
                for k, v in vec.items()}

    rows = [vectorize(p) for p in gens]
    cols = sorted({c for row in rows for c in row} |
                  {m[1:] for p in queries for m in p})

    def to_row(vec: dict) -> list:
        return [vec.get(c, qvar.zero()) for c in cols]

    basis = [row for _, row in _row_reduce(to_row(r) for r in rows)]
    return all(len(_row_reduce(basis + [to_row(vectorize(p))])) == len(basis)
               for p in queries)


def spans_match(a: Sequence[Poly], b: Sequence[Poly]) -> bool:
    return _in_linear_span(a, b) and _in_linear_span(b, a)


# ----------------------------------------------------------------------------
# Inner-derivation ansatz systems
# ----------------------------------------------------------------------------

INNER_COORD_PARAMS = ParamSet("inner-coordinate",
                              ("q",) + tuple(f"A{i}" for i in range(1, 9)))
INNER_DIFF_PARAMS = ParamSet("inner-differential",
                             ("Qp",) + tuple(f"a{i}" for i in range(1, 9)))


def generate_ansatz_constraints(kind: str) -> list[Poly]:
    """Consistency constraints of the inner-derivation ansatz.

    kind 'inner-coordinate': reorder each inner derivation through both sides
    of the coordinate relations (x th = q th x, th^2 = 0).  kind
    'inner-differential': likewise through the two-form relations
    (dx dth = Qp dth dx, dx^2 = 0).
    """
    if kind == "inner-coordinate":
        P = INNER_COORD_PARAMS
        q = P.var("q")
        rules = {(TH, X, 1): Element.monomial(P, mono(x=1, th=1), P.one() / q),
                 (TH, TH, 0): Element.zero(P)}
        relations = [
            (("x", "th"), q, ("th", "x")),      # x th - q th x
            (("th", "th"), P.zero(), ("th", "th")),
        ]
    elif kind == "inner-differential":
        P = INNER_DIFF_PARAMS
        Qp = P.var("Qp")
        rules = {(DTH, DX, 0): Element.monomial(P, mono(dx=1, dth=1), P.one() / Qp),
                 (DX, DX, 0): Element.zero(P)}
        relations = [
            (("dx", "dth"), Qp, ("dth", "dx")),
            (("dx", "dx"), P.zero(), ("dx", "dx")),
        ]
    else:
        raise ValueError(f"unknown ansatz kind {kind!r}")
    rules[(IX, IX, 0)] = Element.zero(P)
    # the unknowns A1..A8 or a1..a8 follow the parameter of the relations
    rules.update(inner_rules(P, {v: P.var(v) for v in P.variables[1:]}))
    one = P.one()   # placeholder structure coefficients, which no product reads
    rt = RuleTable(CalculusType(P, one, one, P.zero(), one, P.zero(), one), rules)

    def residuals():
        for mover in ("ix", "ith"):
            for lhs, coeff, rhs in relations:
                e = rt.normalize_word((mover,) + lhs)
                if not coeff.is_zero():
                    e = e - rt.normalize_word((mover,) + rhs).scale(coeff)
                yield e

    return _collect_constraints(P, residuals())


def evaluate_system(system: Sequence[Poly], source: ParamSet,
                    assignment: Mapping[str, RationalFunction],
                    target: ParamSet) -> list[RationalFunction]:
    """Evaluate ansatz polynomials at rational-function values per variable."""
    values = {source.index(name): rf for name, rf in assignment.items()}
    return [_poly_substitute_rf(p, values, target) for p in system]


# ----------------------------------------------------------------------------
# Family solving
# ----------------------------------------------------------------------------

# The side conditions that single out each covariant family, with the
# parameter field of its type.
FAMILY_SIDE_CONDITIONS = (
    ("I", {"Q12": 0, "Q22": 0}, PARAMS_I),
    ("II", {"Q22": 0, "Q": "r"}, PARAMS_II),
    ("III", {"Q12": 0, "Q": "p"}, PARAMS_III),
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
    unknowns = ("Q", "Q11", "Q12", "Q21", "Q22")
    fixed = {name: params.rf(v) for name, v in side_conditions.items()}
    for name in fixed:
        if name not in unknowns:
            raise InconsistentSideConditions(f"unknown coefficient {name!r}")
    free = [u for u in unknowns if u not in fixed]

    def residuals(**values) -> list[RationalFunction]:
        values = {**dict.fromkeys(free, zero), **fixed, **values}
        return CalculusType(params, Qprime=zero, **values).covariance_residuals()

    const = residuals()
    columns = [residuals(**{u: params.one()}) for u in free]
    matrix = [[col[i] - c for col in columns] + [-c] for i, c in enumerate(const)]
    reduced = _row_reduce(matrix)
    pivots = {col for col, _ in reduced}
    if len(free) in pivots:
        raise InconsistentSideConditions("side conditions contradict the constraints")
    missing = [u for i, u in enumerate(free) if i not in pivots]
    if missing:
        raise UnderdeterminedSystem(f"unconstrained coefficients: {missing}")
    values = dict(fixed)
    values.update((free[col], row[-1] / row[col]) for col, row in reduced)
    Q, Q11, Q12 = values["Q"], values["Q11"], values["Q12"]
    if Q.is_zero():
        raise InconsistentSideConditions("Q must be invertible")
    qprime = (Q * Q11 - Q11 * Q12) / Q
    ct = CalculusType(params, Q, Q11, Q12, values["Q21"], values["Q22"], qprime)
    ct.validate()
    return ct
