"""Derived operators, actions, closed forms, and catalog behaviour."""

from pathlib import Path

import pytest

from qsp.algebra import (
    DTH, DX, TH, X,
    CalculusType,
    Element,
    NotAFunctionArgument,
    build_rule_table,
    mono,
)
from qsp.calculus import (
    E,
    KNOWN_DISCREPANCY_IDS,
    UnknownIdentity,
    _acts_residuals,
    _first_nonzero,
    _word_residuals,
    act_on_function,
    closed_form_H,
    expand_derived,
    exterior_derivative,
    identity_catalog,
    number_op,
    run_suite,
    verify_identity,
)
from qsp.coeffs import qnumber
from qsp.hopf import TensorElement


@pytest.fixture(scope="module")
def t2():
    return build_rule_table(CalculusType.type_ii())


@pytest.fixture(scope="module")
def t1():
    return build_rule_table(CalculusType.type_i())


def test_expand_H(t2):
    P = t2.params
    want = Element.monomial(P, mono(x=1, px=1)) + Element.monomial(P, mono(th=1, pth=1))
    assert expand_derived(t2, "H") == want


def test_expand_T_is_unit_at_type_i(t1):
    assert expand_derived(t1, "T") == Element.one(t1.params)


def test_expand_Lx_matches_cartan_combination(t2):
    # Lx == px + (1 - Q^-1) d ix as algebra elements
    assert expand_derived(t2, "Lx") == E(t2, "px + (1-Q^-1)*d*ix")
    assert expand_derived(t2, "Lth") == E(t2, "pth - (1-Q^-1)*d*ith")


def test_act_H_on_monomial(t2):
    P = t2.params
    r = P.var("r")
    f = Element.monomial(P, mono(x=2, th=1))
    got = act_on_function(t2, expand_derived(t2, "H"), f)
    assert got == f.scale(P.one() + r + r * r)


def test_act_nabla_vacuum_projection(t2):
    P = t2.params
    q = P.var("q")
    got = act_on_function(t2, expand_derived(t2, "Nb"), Element.monomial(P, mono(x=1, th=1)))
    assert got == Element.monomial(P, mono(x=2), q)


def test_act_inner_on_differential(t2):
    got = act_on_function(t2, E(t2, "ix"), E(t2, "dx"))
    assert got == Element.one(t2.params)


def test_act_rejects_operator_argument(t2):
    with pytest.raises(NotAFunctionArgument):
        act_on_function(t2, E(t2, "px"), E(t2, "px"))


def test_exterior_derivative(t2):
    assert exterior_derivative(t2, E(t2, "x")) == E(t2, "dx")
    assert exterior_derivative(t2, expand_derived(t2, "wx")).is_zero()
    # d(x th) = dx th + x dth, reordered to the canonical form basis
    got = exterior_derivative(t2, E(t2, "x*th"))
    want = E(t2, "dx*th + x*dth")
    assert got == want
    assert exterior_derivative(t2, exterior_derivative(t2, E(t2, "x*th"))).is_zero()


def test_closed_form_H_values(t2):
    ct = t2.ct
    Q = ct.Q
    one = t2.params.one()
    assert closed_form_H(ct, 3, 0) == one + Q + Q * Q
    assert closed_form_H(ct, 0, 0).is_zero()
    assert closed_form_H(ct, 2, 1) == one + Q + Q * Q
    assert closed_form_H(ct, -1, 0) == qnumber(-1, Q)


def test_number_op():
    assert number_op(5, 1) == 6
    assert number_op(0, 0) == 0
    assert number_op(1, 0) == 1


def test_catalog_contract():
    cat = identity_catalog()
    ids = [i for i, _, _ in cat]
    assert len(ids) == len(set(ids))
    assert len(cat) >= 30
    for required in ("eq29-omega-commute", "eq100-lie-as-partial", "eq41-Hnabla",
                     "eq51-first-as-printed", "eq51-first-corrected",
                     "eq97-innersquare", "eq64-antipode-as-printed"):
        assert required in ids, required
    kinds = {k for _, _, k in cat}
    assert kinds == {"word-level", "action-level"}


def test_catalog_is_pinned():
    # every entry's id, anchor and kind, in catalog order: the reports sort
    # by id and omit the kind, so only this pin sees a moved or re-kinded entry
    path = Path(__file__).parent / "reference" / "identity_catalog.tsv"
    want = [tuple(line.split("\t")) for line in path.read_text().splitlines()]
    assert identity_catalog() == want
    kinds = [k for _, _, k in want]
    assert (len(want), kinds.count("word-level"), kinds.count("action-level")) == (138, 109, 29)


def test_verify_pass_and_fail(t2):
    ok = verify_identity(t2, "eq41-Hnabla")
    assert ok.status == "PASS" and ok.residual.is_zero()

    bad = verify_identity(t2, "eq51-first-as-printed")
    assert bad.status == "FAIL"
    r = t2.params.var("r")
    assert bad.residual == Element.scalar(t2.params, r - t2.params.one())
    good = verify_identity(t2, "eq51-first-corrected")
    assert good.status == "PASS"


def test_eq97_coefficient_evaluates_to_q():
    for name in ("II", "III"):
        ct = CalculusType.by_name(name)
        coeff = -(ct.Q11 / (ct.Q12 - ct.Q))
        q = ct.params.var("q")
        assert coeff == q, name
        rt = build_rule_table(ct)
        assert verify_identity(rt, "eq97-innersquare").status == "PASS"


def test_relation_templates(t2):
    # the catalog's word and action residuals, certified without a catalog entry
    def word(*relations):
        return _first_nonzero(t2, _word_residuals(relations, t2, 6))

    def acts(relation):
        return _first_nonzero(t2, _acts_residuals(relation, t2, 6))

    assert word("ix == 0") == E(t2, "ix")
    assert acts("ix == 0").is_zero()   # ix kills every function
    # several relations report the first nonzero residual, in order
    assert word("x*th == q*th*x", "px*x == Q*x*px") == E(t2, "1 + Q12*th*pth")
    assert word("x*th == q*th*x", "px*x == 1 + Q*x*px + Q12*th*pth").is_zero()
    # an action residual is the first nonzero one over x^-6, x^-6*th, ...:
    # T*x - Q11*x*T on x^-6 is r^-5*x^-5 - q*x*r^-6*x^-6 at type II
    r, q = t2.params.var("r"), t2.params.var("q")
    want = Element.monomial(t2.params, mono(x=-5), r ** -5 - q * r ** -6)
    assert acts("T*x == Q11*x*T") == want
    assert acts("T*x == Q*x*T").is_zero()


def test_unknown_identity(t2):
    with pytest.raises(UnknownIdentity):
        verify_identity(t2, "eq0-missing")


def test_suite_filter(t2):
    results = run_suite(t2, bound=3, pattern="eq51-*")
    assert {r.identityId for r in results} == {
        "eq51-first-as-printed", "eq51-first-corrected", "eq51-second"}
    with pytest.raises(UnknownIdentity):
        run_suite(t2, pattern="zz-*")


def test_lie_derivative_leibniz_word_level(t2):
    # normalize(Lx * f * g) computed with either association agrees, and
    # moving Lx through f with the catalog relations reproduces it
    Lx = expand_derived(t2, "Lx")
    for f_text, g_text in (("x", "th"), ("th", "x"), ("x*x", "x*th"), ("th", "th")):
        f, g = E(t2, f_text), E(t2, g_text)
        direct = t2.mul(Lx, t2.mul(f, g))
        assoc = t2.mul(t2.mul(Lx, f), g)
        assert direct == assoc


def test_eq58_relations_word_level(t2):
    assert verify_identity(t2, "eq58-monomial-omegax").status == "PASS"
    assert verify_identity(t2, "eq58-monomial-omegath").status == "PASS"


def test_action_closed_forms_up_to_ten(t2):
    H = expand_derived(t2, "H")
    P = t2.params
    for m in range(-10, 11):
        for eps in (0, 1):
            w = Element.monomial(P, mono(x=m, th=eps))
            assert act_on_function(t2, H, w) == w.scale(closed_form_H(t2.ct, m, eps))


def test_lie_commutation_coefficient_is_q_prime():
    # the eq99 reordering coefficient Q21^-1 (Q12 - Q) equals Qp, mirroring
    # the derivative relation px*pth = Qp*pth*px
    for name in ("II", "III"):
        ct = CalculusType.by_name(name)
        assert (ct.Q12 - ct.Q) / ct.Q21 == ct.Qp, name


def test_corrected_scalar_evaluates_per_family():
    # Q12 - Qp*Q21 equals the deformation scale Q at every family
    for name in ("I", "II", "III"):
        ct = CalculusType.by_name(name)
        assert ct.Q12 - ct.Qp * ct.Q21 == ct.Q, name


def test_full_suite_at_numeric_specialization():
    # exact rational cross-check: every identity behaves identically after
    # substituting generic-position numeric parameters
    from fractions import Fraction
    cases = (
        ("II", {"q": Fraction(3, 2), "r": Fraction(5, 7)}),
        ("III", {"q": Fraction(2, 3), "p": Fraction(7, 4)}),
    )
    for name, point in cases:
        ct = CalculusType.by_name(name).specialize(point)
        rt = build_rule_table(ct)
        for r in run_suite(rt, bound=3):
            if r.identityId in KNOWN_DISCREPANCY_IDS:
                continue
            assert r.status == "PASS", (name, r.identityId)


def test_first_nonzero_certificates(t2):
    P = t2.params
    q = P.var("q")
    x, th = E(t2, "x"), E(t2, "th")
    # a scalar is that multiple of the unit, an element is itself
    assert _first_nonzero(t2, [P.zero(), q]) == Element.scalar(P, q)
    assert _first_nonzero(t2, [Element.zero(P), x, th]) == x
    # a tensor is its coefficients times the products of its slots
    te = TensorElement.of(x, th) - TensorElement.of(th, x)
    assert _first_nonzero(t2, [te]) == t2.mul(x, th) - t2.mul(th, x)
    assert not _first_nonzero(t2, [te]).is_zero()
    # ... and its first coefficient when those products cancel (th*th = 0)
    assert _first_nonzero(t2, [TensorElement.of(th, th).scale(q)]) == Element.scalar(P, q)
    # nothing nonzero: the zero element
    zeros = [P.zero(), Element.zero(P), TensorElement(P, 2), te - te]
    assert _first_nonzero(t2, zeros) == Element.zero(P)


def test_first_nonzero_stops_at_the_first_nonzero_residual(t2):
    def residuals():
        yield Element.zero(t2.params)
        yield E(t2, "x")
        raise AssertionError("consumed past the first nonzero residual")

    assert _first_nonzero(t2, residuals()) == E(t2, "x")
    assert _first_nonzero(t2, [E(t2, "th"), E(t2, "x")]) == E(t2, "th")


# the identities certified from tensor residuals, split by the rule whose
# scaling breaks them
TENSOR_CERTIFIED = {
    (TH, X, 1): ("eq6-coproduct-kills-relations", "eq9-hopf-axioms",
                 "eq14-right-coaction-axioms", "eq20-left-coaction-axioms",
                 "eq26-bicovariance"),
    (DTH, DX, 0): ("eq12-coaction-compatible", "eq30-w-coproduct-relations"),
}


@pytest.mark.parametrize("name", ["I", "II", "III"])
@pytest.mark.parametrize("rule", list(TENSOR_CERTIFIED), ids=["th*x", "dth*dx"])
def test_tensor_certificates_fail_on_broken_table(name, rule):
    # with the th*x or the dth*dx rule scaled by 2 (memos cleared, as in
    # test_algebra._broken_table), exactly the identities that rule enters
    # fail, each with a nonzero certificate
    rt = build_rule_table(CalculusType.by_name(name))
    rt.rules[rule] = rt.rules[rule].scale(2)
    rt._memo.clear()
    rt._pair_memo.clear()
    for key, ids in TENSOR_CERTIFIED.items():
        for identity_id in ids:
            r = verify_identity(rt, identity_id)
            assert r.passed is (key != rule), (identity_id, r.status)
            assert r.residual.is_zero() is r.passed, identity_id
