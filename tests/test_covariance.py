"""Coactions, constraint generation, ansatz systems, family solving."""

import hashlib
import re
from fractions import Fraction

import pytest

from qsp.algebra import (
    _RULES,
    COEFF_NAMES,
    GENS,
    CalculusType,
    Element,
    InconsistentType,
    RuleTable,
    build_rule_table,
    mono,
    shaped_rules,
)
from qsp.calculus import verify_identity
from qsp.coeffs import PARAMS_I, PARAMS_II, PARAMS_III
from qsp.coeffs import DivisionByZero, NonMonomialDivisor
from qsp.covariance import (
    ANSATZ_PARAMS,
    InconsistentSideConditions,
    UnderdeterminedSystem,
    ansatz_table,
    bicovariance_residuals,
    coaction_axiom_residuals,
    delta_L,
    delta_R,
    expected_covariance_constraints,
    generate_ansatz_constraints,
    generate_covariance_constraints,
    inner_relation_residuals,
    relation_coaction_residuals,
    solve_family,
    spans_match,
)
from qsp.exprio import print_canonical
from qsp.hopf import TensorElement


@pytest.fixture(scope="module")
def t2():
    return build_rule_table(CalculusType.type_ii())


def test_delta_R_examples(t2):
    P = t2.params
    got = delta_R(t2, ["dth"])
    want = TensorElement(P, 2, {
        (mono(dth=1), mono(x=1)): P.one(),
        (mono(dx=1), mono(th=1)): P.one(),
    })
    assert got == want
    got = delta_R(t2, ["dx", "x"])
    assert got == TensorElement(P, 2, {(mono(dx=1, x=1), mono(x=2)): P.one()})


def test_delta_L_examples(t2):
    P = t2.params
    got = delta_L(t2, ["dth"])
    want = TensorElement(P, 2, {
        (mono(x=1), mono(dth=1)): P.one(),
        (mono(th=1), mono(dx=1)): -P.one(),
    })
    assert got == want


def test_coaction_axioms(family_table):
    rt = family_table
    words = [["x"], ["th"], ["dx"], ["dth"], [("x", -1)],
             ["x", "th"], ["x", "dth"], ["th", "dx"], ["dx", "th"], ["dx", "dth"]]
    for w in words:
        for side in ("right", "left"):
            for res in coaction_axiom_residuals(rt, w, side):
                assert res.is_zero(), (w, side)


def test_bicovariance(t2):
    for w in (["x"], ["th"], ["x", "th"], ["th", "x"], [("x", -1)], ["x", "x"]):
        for res in bicovariance_residuals(t2, w):
            assert res.is_zero(), w


def test_constraint_generation_matches_published_span():
    cc = generate_covariance_constraints()
    assert spans_match(cc.right, expected_covariance_constraints())
    assert not cc.left  # the left pass adds nothing
    # in the order the residuals first give them
    assert _strings(cc.right) == ["q*Q - q*Q12 - Q11", "q*Q21 + Q + Q22",
                                  "q*Q21 + Q12 + 1", "q*Q22 - q + Q11"]
    assert _strings(expected_covariance_constraints()) == [
        "q*Q - q*Q12 - Q11", "q*Q22 - q + Q11", "q*Q21 + Q12 + 1", "q*Q21 + Q + Q22"]


def test_relation_coactions_vanish_at_families(family_table):
    # the system (11) that eq17 spans holds on each family's own table
    for side in ("right", "left"):
        for res in relation_coaction_residuals(family_table, side):
            assert res.is_zero(), side


def _strings(system):
    return [str(p) for p in system]


def test_inner_coordinate_system():
    system = generate_ansatz_constraints("inner-coordinate")
    # the consistency system: A4- and A8-multiples, with the two cross terms,
    # in the order eq75 reports their residuals
    assert _strings(system) == [
        "q^2*A4*A6 - A2*A8",
        "q*A4*A5 - A1*A4",                   # A4(A1 - q A5) up to sign scale
        "q*A4*A7 + A3*A4",                   # A4(A3 + q A7)
        "A4*A8",
        "q^2*A2*A8 - A4*A6",
        "q*A1*A8 - A5*A8",                   # A8(A5 - q A1)
        "q*A3*A8 + A7*A8",                   # A8(q A3 + A7): consistent variant
    ]


def _ansatz_values(rt):
    """The value of each (75) and (78) unknown A1..A8, a1..a8 in the rules
    of ``rt``: the coefficient of its term in the rule its shape types."""
    zero = rt.params.zero()
    return {name: rt._rules[key].terms.get(m, zero)
            for key, rhs in _RULES.items() for name, m in rhs if name and name[0] in "Aa"}


def test_inner_coordinate_printed_fifth_fails_at_type_iii():
    ct = CalculusType.type_iii()
    A = _ansatz_values(build_rule_table(ct))
    q = ct.params.var("q")
    assert not (A["A8"] * (q * A["A1"] + A["A7"])).is_zero()
    # while the engine-derived variant vanishes
    assert (A["A8"] * (q * A["A3"] + A["A7"])).is_zero()


def test_inner_differential_system():
    system = generate_ansatz_constraints("inner-differential")
    # in the order eq78 reports their residuals
    assert _strings(system) == [
        "Qp*a3 - a2 - 1",                    # a2 = Qp a3 - 1
        "Qp^2*a4*a6 - a2*a8",
        "Qp*a2*a3 - a2*a7",                  # a2 (a7 - Qp a3)
        "a1 + 1",
        "Qp*a1*a2 + a2*a5",
        "a2*a6",
        "Qp*a8 + Qp - a5",                   # a5 = Qp (1 + a8)
        "Qp^2*a2*a8 - a4*a6",
        "Qp*a6*a7 - a3*a6",
        "Qp*a5*a6 + a1*a6",
        "a6",
    ]


def test_inner_relations_vanish_at_families(family_table):
    # the systems (75) and (78) hold on each family's own table
    for kind in ("inner-coordinate", "inner-differential"):
        for res in inner_relation_residuals(family_table, kind):
            assert res.is_zero(), kind


@pytest.mark.parametrize("name, point", [("I", {"q": 3}), ("II", {"q": 2, "r": 5}),
                                         ("III", {"q": Fraction(1, 2), "p": 7})])
def test_printed_systems_vanish_at_family_values(name, point):
    # every constraint of the (11), (75) and (78) systems, over the one set
    # of unknowns, is zero at q and the engine's coefficients of a family
    ct = CalculusType.by_name(name).specialize(point)
    c = {**{v: ct.symbol(v) for v in COEFF_NAMES}, **_ansatz_values(build_rule_table(ct))}
    values = {"q": point["q"], **{v: c[v].eval({}) for v in ANSATZ_PARAMS.variables[1:]}}
    systems = [generate_covariance_constraints().right,
               generate_ansatz_constraints("inner-coordinate"),
               generate_ansatz_constraints("inner-differential")]
    for system in systems:
        assert system and all(p.params == ANSATZ_PARAMS for p in system)
        for p in system:
            assert p.eval(values) == 0, (name, str(p))


def _type_iii_reading(**coeffs):
    """A type III table whose transcribed rules read ``coeffs`` in place of
    the engine's values."""
    rt = build_rule_table(CalculusType.type_iii())
    rt._rules.update(shaped_rules(rt.params, {**_ansatz_values(rt), **coeffs}))
    return rt


def test_ansatz_systems_fail_on_perturbed_tables():
    # each entry checks its system on the table it is given: doubling the
    # ix*x rule breaks (75) alone, and the printed a8 = Q22/(Q*Qp) (78) alone
    ct = CalculusType.type_iii()
    c = _ansatz_values(build_rule_table(ct))
    two = ct.params.const(2)
    doubled = _type_iii_reading(A1=two * c["A1"], A2=two * c["A2"])
    printed = _type_iii_reading(a8=ct.Q22 / (ct.Q * ct.Qp))
    for rt, fails in ((doubled, "eq75-ansatz-system"), (printed, "eq78-ansatz-system")):
        for id_ in ("eq75-ansatz-system", "eq78-ansatz-system"):
            assert verify_identity(rt, id_).status == ("FAIL" if id_ == fails else "PASS"), id_


# sha256 of the 19 rules of the table of unknowns, squares included, one
# "left right sign: rhs" line per key in key order, as test_algebra's
# RULES_SHA256 hashes the engine tables
ANSATZ_RULES_SHA256 = "5707e66a84d1072e3538ca465c9ff136ee6c4284592f2fa74a9b59961f63572a"


def test_ansatz_table_rules_are_pinned():
    rules = ansatz_table()._rules
    text = "".join(f"{GENS[a]} {GENS[b]} {s}: {print_canonical(e)}\n"
                   for (a, b, s), e in sorted(rules.items()))
    assert len(rules) == 19
    assert hashlib.sha256(text.encode()).hexdigest() == ANSATZ_RULES_SHA256


def test_tables_solve_x_inverse_rules_on_first_use():
    # however a table is built, each x^-1 rule whose x-rule it holds is
    # solved when a product first needs it
    P = ANSATZ_PARAMS
    assert ansatz_table().word("th", ("x", -1)) == Element.monomial(P, mono(x=-1, th=1), P.var("q"))
    ct = CalculusType.type_ii()
    rt = RuleTable(ct, dict(build_rule_table(ct)._rules))
    assert rt.word("px", ("x", -1)) == build_rule_table(ct).word("px", ("x", -1))


def test_solve_family_reproduces_tables():
    for mode, conditions, params in (
        ("I", {"Q12": 0, "Q22": 0}, PARAMS_I),
        ("II", {"Q22": 0, "Q": "r"}, PARAMS_II),
        ("III", {"Q12": 0, "Q": "p"}, PARAMS_III),
    ):
        got = solve_family(conditions, params)
        want = CalculusType.by_name(mode)
        for name in ("Q", "Q11", "Q12", "Q21", "Q22", "Qp"):
            assert got.symbol(name) == want.symbol(name), (mode, name)


def test_solve_family_errors():
    # every error names the side conditions and keeps its class
    with pytest.raises(UnderdeterminedSystem,
                       match=r"^side conditions \{'Q22': 0\} leave unconstrained coefficients: "):
        solve_family({"Q22": 0}, PARAMS_II)
    with pytest.raises(InconsistentSideConditions,
                       match=r"^side conditions \{'Q22': 0, 'Q12': 0, 'Q': 'r'\} contradict"):
        solve_family({"Q22": 0, "Q12": 0, "Q": "r"}, PARAMS_II)
    with pytest.raises(InconsistentSideConditions,
                       match=r"^side conditions \{'Q': 0, 'Q22': 0\} give Q = 0, but Q must be invertible"):
        solve_family({"Q": 0, "Q22": 0}, PARAMS_II)
    # Qp is not an unknown of (18); the structure identity sets it
    with pytest.raises(InconsistentSideConditions):
        solve_family({"Q22": 0, "Qp": 1}, PARAMS_II)
    # Q = 1 - q here, so Qp = (Q*Q11 - Q11*Q12)/Q divides by two terms: the
    # error names the side conditions and the unknown, not a division
    with pytest.raises(NonMonomialDivisor,
                       match=r"^side conditions \{'Q12': 0, 'Q22': 'q'\} give Qp only as a quotient"):
        solve_family({"Q12": 0, "Q22": "q"}, PARAMS_II)
    # a solved type that fails validation keeps the error's class, and the
    # message names the side conditions
    for conditions, error in (({"Q": 1, "Q12": "q"}, NonMonomialDivisor),
                              ({"Q": 1, "Q11": 0}, DivisionByZero),
                              ({"Q": 1, "Q11": 1}, InconsistentType)):
        with pytest.raises(error, match=rf"^side conditions {re.escape(str(conditions))} give a type"):
            solve_family(conditions, PARAMS_II)


def test_q_prime_compatible_with_two_form_coaction(t2):
    te = (delta_R(t2, ["dx", "dth"])
          - delta_R(t2, ["dth", "dx"]).scale(t2.ct.Qp))
    assert te.is_zero()
