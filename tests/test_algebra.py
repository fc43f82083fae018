"""Rewrite engine: rule tables, normal ordering, confluence, specialization."""

import gc
import hashlib
import random
import re
import weakref
from fractions import Fraction
from itertools import product

import pytest

from qsp.algebra import (
    GENS,
    D,
    DTH,
    DX,
    IX,
    ITH,
    NGENS,
    PTH,
    PX,
    TH,
    X,
    CalculusType,
    Element,
    InconsistentType,
    RuleTable,
    UnsupportedGenerator,
    _d_rules,
    _letter_mono,
    _reducible,
    build_rule_table,
    derived_rules,
    local_confluence_check,
    mono,
    parity_of,
    pth_px_rule,
    rule_coeffs,
    shaped_rules,
)
from qsp.calculus import DERIVED_NAMES, expand_derived, identity_catalog, run_suite, verify_identity
from qsp.coeffs import PARAMS_I, NonMonomialDivisor
from qsp.covariance import ansatz_type
from qsp.exprio import print_canonical


@pytest.fixture(scope="module")
def t2():
    return build_rule_table(CalculusType.type_ii())


@pytest.fixture(scope="module")
def t3():
    return build_rule_table(CalculusType.type_iii())


@pytest.fixture(scope="module")
def t1():
    return build_rule_table(CalculusType.type_i())


def test_family_values_validate():
    for ct in (CalculusType.type_i(), CalculusType.type_ii(), CalculusType.type_iii()):
        ct.validate()


def test_validate_rejects_inconsistent_values():
    ct = CalculusType.type_ii()
    bad = CalculusType(ct.params, ct.Q, ct.Q11, ct.Q12, ct.Q21, ct.params.one(), ct.Qp)
    with pytest.raises(InconsistentType):
        bad.validate()


def test_rule_ix_x_type_ii(t2):
    P = t2.params
    r = P.var("r")
    want = (Element.monomial(P, mono(x=1, ix=1), r)
            + Element.monomial(P, mono(th=1, ith=1), r - P.one()))
    assert t2.word("ix", "x") == want


def test_rule_pth_th_type_ii(t2):
    P = t2.params
    want = Element.one(P) - Element.monomial(P, mono(th=1, pth=1))
    assert t2.word("pth", "th") == want


def test_rule_th_x(t2):
    P = t2.params
    q = P.var("q")
    assert t2.word("th", "x") == Element.monomial(P, mono(x=1, th=1), P.one() / q)


def test_normalize_px_x(t2):
    P = t2.params
    r = P.var("r")
    want = (Element.one(P) + Element.monomial(P, mono(x=1, px=1), r)
            + Element.monomial(P, mono(th=1, pth=1), r - P.one()))
    assert t2.word("px", "x") == want


def test_normalize_nilpotents(t2):
    assert t2.word("th", "th").is_zero()
    assert t2.word("dx", "dx").is_zero()
    assert t2.word("pth", "pth").is_zero()
    assert t2.word("ix", "ix").is_zero()


def test_normalize_ix_dx(t2):
    P = t2.params
    q, r = P.var("q"), P.var("r")
    want = (Element.one(P) - Element.monomial(P, mono(dx=1, ix=1))
            - Element.monomial(P, mono(dth=1, ith=1), (r - P.one()) / r))
    assert t2.word("ix", "dx") == want


def test_derived_px_x_inverse(t2):
    # px*x^-1 = Q^-1 x^-1 px - Q^-1 x^-2 - q Q^-1 Q12 Q11^-1 x^-2 th pth
    P = t2.params
    q, r = P.var("q"), P.var("r")
    Qi = P.one() / r
    want = (Element.monomial(P, mono(x=-1, px=1), Qi)
            - Element.monomial(P, mono(x=-2), Qi)
            - Element.monomial(P, mono(x=-2, th=1, pth=1), q * Qi * (r - P.one()) / q))
    assert t2.word("px", ("x", -1)) == want


def test_derived_x_inverse_dth(t2):
    # x^-1*dth = Q11^-1 dth x^-1 - q Q^-1 Q11^-1 Q12 dx x^-2 th
    P = t2.params
    q, r = P.var("q"), P.var("r")
    want = (Element.monomial(P, mono(dth=1, x=-1), P.one() / q)
            - Element.monomial(P, mono(dx=1, x=-2, th=1), q * (r - P.one()) / (r * q)))
    assert t2.word(("x", -1), "dth") == want


# sha256 of the 39 rules of each table, one "left right sign: rhs" line per
# key in key order, as the tables printed when the x^-1 rules were derived at
# build time; the r=1 and p=1 specializations print as type I
RULES_SHA256 = {
    "I": "fc23201f68a7bd0210bb9f11ed6f559efbb7a5ad6fff85a423992f71616f1fb0",
    "II": "b03b2d3b47537847f13d858b94f25d9af6051be8425c32c7ebc7f4d4e119a11f",
    "III": "4115251c9a4d8368501ba56fdaffd643e6493880be82176686ffd76a28ba6d6f",
}


TABLES = pytest.mark.parametrize("name,assignment", [("I", {}), ("II", {}), ("III", {}),
                                                      ("II", {"r": 1}), ("III", {"p": 1})],
                                  ids=["I", "II", "III", "II-r1", "III-p1"])


def _rules_sha256(rt):
    text = "".join(f"{GENS[a]} {GENS[b]} {s}: {print_canonical(e)}\n"
                   for (a, b, s), e in sorted(rt.rules.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def _x_inverse_keys(rt):
    return {key for key in rt._rules if key[2] == -1}


@TABLES
def test_x_inverse_rules_derived_on_first_use(name, assignment):
    # a fresh table holds the 32 rules of build and keeps them through
    # products that meet no x^-1 rule; the first product that misses an x^-1
    # rule solves that rule and the ones its solution and round trips meet,
    # and reading `rules` completes the same 39 rules as ever
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct.specialize(assignment) if assignment else ct)
    assert len(rt._rules) == 32 and not _x_inverse_keys(rt)
    rt.word("px", "x", "th", "dth", "ix")
    assert len(rt._rules) == 32
    rt.word("px", ("x", -1))
    # px*x^-1 meets pth*x^-1 (through d's round trip) and, at II, th*x^-1
    needed = {(PX, X, -1), (PTH, X, -1)}
    if name == "II" and not assignment:
        needed.add((TH, X, -1))
    assert _x_inverse_keys(rt) == needed and len(rt._rules) == 32 + len(needed)
    assert _rules_sha256(rt) == RULES_SHA256[name if not assignment else "I"]
    assert len(rt._rules) == 39
    # a table read before any product is complete too
    fresh = build_rule_table(ct.specialize(assignment) if assignment else ct)
    assert fresh.rules == rt.rules


@TABLES
@pytest.mark.parametrize("g", [TH, PTH, ITH, PX, IX, DX, DTH], ids=lambda g: GENS[g])
def test_x_inverse_solving_order_does_not_matter(name, assignment, g):
    # whichever x^-1 rule a fresh table meets first, it adopts that rule, and
    # the rules a full read completes afterwards hash as ever
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct.specialize(assignment) if assignment else ct)
    key, word = ((X, g, -1), [("x", -1), GENS[g]]) if g < X else ((g, X, -1), [GENS[g], ("x", -1)])
    rt.word(*word)
    assert key in rt._rules
    if g == TH:
        assert _x_inverse_keys(rt) == {key} and len(rt._rules) == 33
    assert _rules_sha256(rt) == RULES_SHA256[name if not assignment else "I"]


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_eq34_checks_rules_read_off_d(name):
    # the four (34) rules are derived from the rules for x*dx, x*dth, th*dx
    # and th*dth, so eq34 compares a derivation with the display: a table
    # whose x*dx rule, or the Q21 term of its th*dx rule, is scaled fails it
    ct = CalculusType.by_name(name)
    P = ct.params
    rules = build_rule_table(ct)._rules
    keys = [(PX, X, 1), (PX, TH, 0), (PTH, X, 1), (PTH, TH, 0)]
    derived = derived_rules(rules, P)
    assert {k: derived[k] for k in keys} == {k: rules[k] for k in keys}
    # and so are the other 16 of the table's rules of px, pth, ix and ith
    assert len(derived) == 20 and derived == {k: rules[k] for k in derived}

    def verdicts(key, rhs):
        table = {**rules, key: rhs}
        table.update(derived_rules(table, P))
        return {r.identityId: r.status for r in run_suite(RuleTable(ct, table), pattern="eq34-*")}

    assert set(verdicts((X, DX, 1), rules[(X, DX, 1)]).values()) == {"PASS"}
    assert verdicts((X, DX, 1), rules[(X, DX, 1)].scale(2))["eq34-px-x"] == "FAIL"
    th_dx = rules[(TH, DX, 0)]
    q21_term = Element.monomial(P, mono(dx=1, th=1), th_dx.terms[mono(dx=1, th=1)])
    assert verdicts((TH, DX, 0), th_dx + q21_term)["eq34-px-th"] == "FAIL"


# an entry of (36) or (84)-(86) -> an (11) rule and the term of it whose
# doubling at type II the entry catches once the table is derived again
_PERTURBATIONS = {
    "eq36-px-dx": ((X, DTH, 1), mono(dx=1, th=1)),
    "eq36-px-dth": ((TH, DX, 0), mono(dx=1, th=1)),
    "eq36-pth-dx": ((X, DTH, 1), mono(dth=1, x=1)),
    "eq36-pth-dth": ((TH, DTH, 0), mono(dth=1, th=1)),
    "eq84-ix-x": ((X, DX, 1), mono(dx=1, x=1)),
    "eq84-ix-th": ((TH, DX, 0), mono(dx=1, th=1)),
    "eq84-ith-x": ((X, DTH, 1), mono(dth=1, x=1)),
    "eq84-ith-th": ((TH, DTH, 0), mono(dth=1, th=1)),
    "eq85-ix-dx": ((X, DX, 1), mono(dx=1, x=1)),
    "eq85-ix-dth": ((TH, DX, 0), mono(dx=1, th=1)),
    "eq85-ith-dx": ((X, DTH, 1), mono(dth=1, x=1)),
    "eq85-ith-dth": ((TH, DTH, 0), mono(dth=1, th=1)),
    "eq86-ix-px": ((X, DX, 1), mono(dx=1, x=1)),
    "eq86-ix-pth": ((X, DTH, 1), mono(dth=1, x=1)),
    "eq86-ith-px": ((TH, DX, 0), mono(dx=1, th=1)),
    "eq86-ith-pth": ((TH, DTH, 0), mono(dth=1, th=1)),
}


def test_derived_entries_fail_on_a_perturbed_relation():
    # (36) and (84)-(86) are read off the (11) rules, so each of their
    # entries checks a derivation: doubling one term of one (11) rule and
    # deriving the table again makes it fail
    ids = {i for i, _, _ in identity_catalog()
           if i.split("-")[0] in ("eq36", "eq84", "eq85", "eq86") and not i.endswith("-as-printed")}
    assert set(_PERTURBATIONS) == ids and len(ids) == 16
    ct = CalculusType.type_ii()
    P = ct.params
    rules = build_rule_table(ct)._rules
    for id_, (key, m) in _PERTURBATIONS.items():
        assert verify_identity(RuleTable(ct, dict(rules)), id_).status == "PASS", id_
        table = {**rules, key: rules[key] + Element.monomial(P, m, rules[key].terms[m])}
        table.update(derived_rules(table, P))
        table.update(pth_px_rule(table, P))
        assert verify_identity(RuleTable(ct, table), id_).status == "FAIL", id_


@TABLES
def test_d_squares_to_zero(name, assignment):
    # pth*px is read off d*d = 0, as Qp^-1*px*pth
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct.specialize(assignment) if assignment else ct)
    d = rt.d_element()
    assert rt.mul(d, d).is_zero()
    assert rt.rules[(PTH, PX, 0)] == Element.monomial(rt.params, mono(px=1, pth=1),
                                                      rt.params.one() / rt.ct.Qp)


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_eq35_checks_the_rule_read_off_d(name):
    # pth*px is derived from the rules of px and pth past dx and dth, so a
    # table whose px*dth rule is doubled derives another pth*px: d still
    # squares to zero there, and eq35-deriv-commute fails
    ct = CalculusType.by_name(name)
    P = ct.params
    rules = build_rule_table(ct)._rules
    assert pth_px_rule(rules, P) == {(PTH, PX, 0): rules[(PTH, PX, 0)]}
    table = {**rules, (PX, DTH, 0): rules[(PX, DTH, 0)].scale(2)}
    table.update(pth_px_rule(table, P))
    rt = RuleTable(ct, table)
    assert rt.mul(rt.d_element(), rt.d_element()).is_zero()
    verdicts = {r.identityId: r.status for r in run_suite(rt, pattern="eq35-*")}
    assert verdicts == {"eq35-deriv-commute": "FAIL", "eq35-pth-square": "PASS"}


def test_pth_px_rule_names_a_divisor_of_more_than_one_term():
    # d*d = 0 gives pth*px as a quotient by c2 + c5*w, a single term on every
    # family table; where it is not, the error names the rule, its source and
    # the divisor: at the symbolic type, and at II with the x*dth rule doubled
    ct = ansatz_type()
    rules = shaped_rules(ct.params, rule_coeffs(ct))
    rules.update(derived_rules(rules, ct.params))
    with pytest.raises(NonMonomialDivisor, match=re.escape(
            "d*d = 0 gives pth*px only as a quotient by (-Q*Qp + Q12*Qp - Q11 + Qp)/(Q*Qp),")):
        pth_px_rule(rules, ct.params)
    ct = CalculusType.type_ii()
    rules = build_rule_table(ct)._rules
    table = {**rules, (X, DTH, 1): rules[(X, DTH, 1)].scale(2)}
    table.update(derived_rules(table, ct.params))
    with pytest.raises(NonMonomialDivisor, match=re.escape(
            "d*d = 0 gives pth*px only as a quotient by (-r - 1)/(r), a divisor of more than one term")):
        pth_px_rule(table, ct.params)


def test_d_realizes_to_differential(t2):
    P = t2.params
    want = Element.monomial(P, mono(dx=1, px=1)) + Element.monomial(P, mono(dth=1, pth=1))
    assert t2.word("d") == want
    assert t2.word("d", "d").is_zero()
    assert t2.word("d", "d", "x", "th").is_zero()


def test_d_leibniz_as_elements(t2):
    # d*x == dx + x*d and d*th == dth - th*d hold for the realized d
    lhs = t2.word("d", "x")
    rhs = t2.word("dx") + t2.word("x", "d")
    assert lhs == rhs
    lhs = t2.word("d", "th")
    rhs = t2.word("dth") - t2.word("th", "d")
    assert lhs == rhs
    # d is expanded where a word is read; no monomial may carry it
    with pytest.raises(UnsupportedGenerator):
        mono(d=1)


def test_multiply_unit_and_examples(t2):
    P = t2.params
    w = t2.word("ix", "x", "dth")
    assert t2.mul(Element.one(P), w) == w
    # dx*dth is canonical; dth*dx picks up 1/Q'
    qp = t2.ct.Qp
    assert t2.word("dth", "dx") == Element.monomial(P, mono(dx=1, dth=1), P.one() / qp)
    assert t2.mul(t2.word("pth"), t2.word("pth")).is_zero()


def test_parity(t2):
    assert parity_of(t2.word("x", "th")) == "odd"
    assert parity_of(t2.word("dth")) == "even"
    assert parity_of(t2.word("x") + t2.word("th")) == "mixed"
    assert parity_of(t2.word("ix")) == "odd"
    assert parity_of(t2.word("ith")) == "even"


def test_unsupported_generator(t2):
    with pytest.raises(UnsupportedGenerator):
        t2.word("y")


def test_substitute_params_recovers_type_i(t2, t1):
    # the Type II rule px*x specialized at r=1 is the Type I rule
    e2 = t2.word("px", "x").substitute({"r": 1})
    e1 = t1.word("px", "x")
    assert _project_terms(e2, PARAMS_I) == e1.terms


def test_substitute_classical_limit(t2):
    e = t2.word("th", "x").substitute({"q": 1, "r": 1})
    assert e == Element.monomial(t2.params, mono(x=1, th=1))


def _project_terms(e, target):
    return {m: c.project(target) for m, c in e.terms.items()}


def test_specialize_projects_and_records_values():
    ct = CalculusType.type_ii().specialize({"r": 2})
    assert ct.params.variables == ("q",)
    assert ct.assigned == (("r", 2),)
    assert ct.symbol("r") == ct.Q == ct.params.const(2)
    assert ct.symbol("q") == ct.q == ct.params.var("q")
    assert ct.symbol("Qp") == ct.params.var("q") / ct.params.const(2)
    assert ct.symbol("y") is None
    both = ct.specialize({"q": 3})
    assert both.params.variables == () and both.assigned == (("q", 3), ("r", 2))
    assert both.q == both.params.const(3) and both.symbol("r") == both.params.const(2)
    assert both.Q21 == both.params.const(Fraction(-2, 3))


def test_rule_tables_cohere_across_types(t1, t2, t3):
    # Type II at r=1 and Type III at p=1 match Type I entry by entry
    for (key, rule1) in t1.rules.items():
        for other, var in ((t2, "r"), (t3, "p")):
            rule = other.rules[key]
            specialized = {m: c.substitute({var: 1}).project(PARAMS_I)
                           for m, c in rule.terms.items()}
            specialized = {m: c for m, c in specialized.items() if not c.is_zero()}
            assert specialized == rule1.terms, (key, specialized, rule1.terms)
    assert set(t1.rules) == set(t2.rules) == set(t3.rules)


D_RULE_KEYS = {(D, DX, 0), (D, DTH, 0), (D, X, 1), (D, X, -1), (D, TH, 0), (D, D, 0),
               (PX, D, 0), (PTH, D, 0), (IX, D, 0), (ITH, D, 0)}


def test_audit_d_rules_cohere_across_types(t1, t2, t3):
    # the audit's rules for pairs involving d: one per out-of-order pair,
    # none shadowing a table rule, and Type II at r=1 and Type III at p=1
    # match Type I entry by entry
    rules1 = _d_rules(t1)
    assert set(rules1) == D_RULE_KEYS
    for other, var in ((t2, "r"), (t3, "p")):
        rules = _d_rules(other)
        assert set(rules) == D_RULE_KEYS and not D_RULE_KEYS & set(other.rules)
        for key, rule in rules.items():
            specialized = {m: c.substitute({var: 1}).project(PARAMS_I)
                           for m, c in rule.terms.items()}
            specialized = {m: c for m, c in specialized.items() if not c.is_zero()}
            assert specialized == rules1[key].terms, (key, specialized, rules1[key].terms)


def _involves_d(key):
    return any(m[D] if len(m) == NGENS else m[0] == D for m in key)


@pytest.mark.parametrize("name,assignment", [("I", {}), ("II", {}), ("III", {}),
                                             ("II", {"r": 1}), ("III", {"p": 1})],
                         ids=["I", "II", "III", "II-r1", "III-p1"])
def test_fresh_table_computes_no_d_product(name, assignment):
    # building a table computes none of the audit's rules for pairs involving
    # d: no rule is keyed by such a pair, no memo key holds d, and no memo
    # holds a product of the realization with dx, dth, th, itself or an
    # operator (the first read of rt.rules runs the round trips, which pass
    # it x and x^-1, on a trial table whose memos are dropped)
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct.specialize(assignment) if assignment else ct)
    assert not [key for key in rt.rules if D in key[:2]]
    assert not [key for key in rt._memo if _involves_d(key)]
    assert not [key for key in rt._pair_memo if _involves_d(key)]
    real = list(rt.d_element().terms)
    assert not [m for m in real for g in (DX, DTH, TH) if (m, (g, 1)) in rt._memo]
    assert not [(a, b) for a in real + [mono(px=1), mono(pth=1), mono(ix=1), mono(ith=1)]
                for b in real if (a, b) in rt._pair_memo]


def test_catalog_and_audit_compute_no_d_product():
    # the multiplication core never sees d: the catalog expands it where a
    # word is read, the audit multiplies the letter d by its realization
    rt = build_rule_table(CalculusType.type_ii())
    run_suite(rt, bound=6)
    local_confluence_check(rt, 4)
    assert rt._act_memo
    for memo in (rt._memo, rt._pair_memo, rt._act_memo):
        assert not [key for key in memo if _involves_d(key)]


def test_idempotence_and_specialization_commute(t2):
    rng = random.Random(4711)
    rt_spec = build_rule_table(CalculusType.type_ii().specialize({"r": 2}))
    alphabet = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1), ("d", 1),
                ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1)]
    for _ in range(60):
        word = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 5))]
        e = t2.normalize_word(word)
        assert t2.normalize(e) == e
        # the specialized table's coefficients are over the parameters left
        assert (_project_terms(e.substitute({"r": 2}), rt_spec.params)
                == rt_spec.normalize_word(word).terms)


def test_associativity_on_random_words(t2):
    rng = random.Random(20270405)
    alphabet = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1), ("d", 1),
                ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1)]
    for _ in range(80):
        words = []
        for _ in range(3):
            n = rng.randint(1, 2)
            words.append([alphabet[rng.randrange(len(alphabet))] for _ in range(n)])
        a, b, c = (t2.normalize_word(w) for w in words)
        assert t2.mul(t2.mul(a, b), c) == t2.mul(a, t2.mul(b, c))


def test_grading_multiplicative(t2):
    rng = random.Random(99)
    alphabet = [("x", 1), ("th", 1), ("dx", 1), ("dth", 1),
                ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1)]
    for _ in range(40):
        wa = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 3))]
        wb = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 3))]
        a, b = t2.normalize_word(wa), t2.normalize_word(wb)
        pa, pb = a.parity(), b.parity()
        if pa is None or pb is None or a.is_zero() or b.is_zero():
            continue
        prod = t2.mul(a, b)
        if not prod.is_zero():
            assert prod.parity() == (pa + pb) % 2


def test_local_confluence_small(t2, t3):
    for rt in (t2, t3):
        report = local_confluence_check(rt, 3)
        assert report.ok, report.violations[:3]


@pytest.mark.parametrize("name,assignment", [("II", {"r": 1}), ("III", {"p": 1})],
                         ids=["II-r1", "III-p1"])
def test_specialized_tables_pass_the_length_4_audit(name, assignment):
    # the contract's two specialized tables audit as the family tables do
    report = local_confluence_check(
        build_rule_table(CalculusType.by_name(name).specialize(assignment)), 4)
    assert (report.words_checked, report.branch_pairs) == (4969, 5386)
    assert report.ok, report.violations[:2]


def _reference_audit(rt, max_len):
    # the audit written out as the plain letter-by-letter fold, rebuilding
    # every branch from scratch; the letter d is multiplied as its realization
    d = rt.d_element()

    def letter(a):
        return d if a == (D, 1) else Element.monomial(rt.params, _letter_mono(a))

    # the rules for pairs involving d are the products with its realization
    rules = dict(rt.rules)
    for g, s in ((DX, 1), (DTH, 1), (X, 1), (X, -1), (TH, 1)):
        rules[(D, g, s if g == X else 0)] = rt.mul(d, letter((g, s)))
    rules[(D, D, 0)] = rt.mul(d, d)
    for g in (PX, PTH, IX, ITH):
        rules[(g, D, 0)] = rt.mul(letter((g, 1)), d)
    alphabet = [(g, 1) for g in range(NGENS)] + [(X, -1)]
    words = branch_pairs = 0
    violations = []
    for length in range(3, max_len + 1):
        for word in product(alphabet, repeat=length):
            steps = [i for i in range(length - 1)
                     if _reducible(word[i], word[i + 1]) is not None]
            if len(steps) < 2:
                continue
            words += 1
            branches = []
            for i in steps:
                out = Element.one(rt.params)
                for a in word[:i]:
                    out = rt.mul(out, letter(a))
                out = rt.mul(out, rules[_reducible(word[i], word[i + 1])])
                for a in word[i + 2:]:
                    out = rt.mul(out, letter(a))
                branches.append(out)
            for i, branch in zip(steps[1:], branches[1:]):
                branch_pairs += 1
                residual = branches[0] - branch
                if not residual.is_zero():
                    violations.append((word, (steps[0], i), residual))
    return words, branch_pairs, violations


def _broken_table(name):
    # scale one rule by 2: the table is no longer confluent, and the rules for
    # pairs involving d, built from it, carry the scaled rule too
    rt = build_rule_table(CalculusType.by_name(name))
    rt.rules[(PX, DX, 0)] = rt.rules[(PX, DX, 0)].scale(2)
    rt._memo.clear()
    rt._pair_memo.clear()
    return rt


@pytest.mark.parametrize("name,max_len", [("I", 3), ("II", 4), ("III", 3)])
def test_audit_matches_reference_fold_on_broken_table(name, max_len):
    # the audit replays partial products along the word trie; on a table that
    # is not confluent it must still report exactly what the plain fold does
    report = local_confluence_check(_broken_table(name), max_len)
    words, pairs, violations = _reference_audit(_broken_table(name), max_len)
    assert (report.words_checked, report.branch_pairs) == (words, pairs)
    assert violations, "the scaled rule must break confluence"
    assert [(v.word, v.first_steps, v.residual) for v in report.violations] == violations


def test_audit_builds_no_branch_of_a_pair_settled_on_the_prefix(monkeypatch):
    # a pair whose branches agree on word[:-1] agrees on word, so neither
    # branch is built again; rebuilding both for every pair takes 11,714
    # products here
    rt = build_rule_table(CalculusType.type_ii())
    rt.rules  # derive the x^-1 rules before counting
    calls = 0
    mul = RuleTable.mul

    def counted(self, a, b):
        nonlocal calls
        calls += 1
        return mul(self, a, b)

    monkeypatch.setattr(RuleTable, "mul", counted)
    report = local_confluence_check(rt, 4)
    assert (report.words_checked, report.branch_pairs, report.ok) == (4969, 5386, True)
    assert calls < 10_000


def test_audit_keeps_no_table_alive():
    # with the cycle collector off, the table must die as soon as the last
    # reference to it goes: the audit may leave no reference cycle behind
    gc.disable()
    try:
        rt = build_rule_table(CalculusType.type_ii())
        ref = weakref.ref(rt)
        report = local_confluence_check(rt, 3)
        del rt
        assert ref() is None
    finally:
        gc.enable()
    assert report.ok


def test_confluence_rejects_short_bound(t2):
    with pytest.raises(ValueError):
        local_confluence_check(t2, 2)


def test_stored_elements_survive_in_place_accumulation():
    # normal ordering accumulates into fresh elements in place; the memos,
    # the rule table and the derived-symbol cache must never be written through
    rt = build_rule_table(CalculusType.type_ii())
    rng = random.Random(4)
    alphabet = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1), ("d", 1),
                ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1)]

    def word():
        return [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 4))]

    for _ in range(60):
        rt.normalize_word(word())
    derived = [expand_derived(rt, name) for name in DERIVED_NAMES]

    def snapshot():
        return [{k: dict(e.terms) for k, e in store.items()}
                for store in (rt._memo, rt._pair_memo, rt.rules, rt._derived_cache)]

    before = snapshot()
    assert before[1], "the words above must fill the pair memo"
    local_confluence_check(rt, 3)
    for _ in range(10):
        a, b = rt.normalize_word(word()), rt.normalize_word(word())
        rt.mul(a, b)
        rt.mul(derived[rng.randrange(len(derived))], a)
        rt.normalize(rt.mul(a, rt.d_element()))
    after = snapshot()
    for stored, now in zip(before, after):
        assert all(now[k] == terms for k, terms in stored.items())


POWERS = (1, 2, 7, 64, 2000, 5000)


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_powers_of_x_past_differentials_match_closed_forms(name):
    # x^k dx = Q^k dx x^k and x^k dth = A_k dth x^k + B_k dx x^(k-1) th with
    # A_0 = 1, B_0 = 0, A_(k+1) = Q11 A_k, B_(k+1) = Q B_k + Q12 q^-k Q11^k:
    # the expected values come from the coefficient field alone
    ct = CalculusType.by_name(name)
    rt = build_rule_table(ct)
    P = ct.params
    one = P.one()
    dx, dth = Element.monomial(P, mono(dx=1)), Element.monomial(P, mono(dth=1))
    q_k, a_k, b_k, q_inv_k = one, one, P.zero(), one
    for k in range(1, max(POWERS) + 1):
        a_k, b_k = ct.Q11 * a_k, ct.Q * b_k + ct.Q12 * q_inv_k * a_k
        q_k, q_inv_k = ct.Q * q_k, q_inv_k / ct.q
        if k not in POWERS:
            continue
        xk = Element.monomial(P, mono(x=k))
        assert rt.mul(xk, dx) == Element.monomial(P, mono(dx=1, x=k), q_k), k
        along_dth = rt.mul(xk, dth)
        assert along_dth == (Element.monomial(P, mono(dth=1, x=k), a_k)
                             + Element.monomial(P, mono(dx=1, x=k - 1, th=1), b_k)), k
        x_inv_k = Element.monomial(P, mono(x=-k))
        assert rt.mul(x_inv_k, along_dth) == dth, k
        assert rt.mul(x_inv_k, rt.mul(xk, dx)) == dx, k


RIGHT_X_CASES = [mono(px=1), mono(pth=1), mono(ix=1), mono(ith=1), mono(th=1),
                 mono(x=3, px=1), mono(dx=1, th=1, pth=1), mono(dth=2, x=-1, ith=2),
                 mono(th=1, px=1, pth=1, ix=1, ith=1),
                 mono(dth=3, px=2), mono(px=3, ith=2), mono(x=-2, dth=2, ith=3)]
# right factors g^k for k = s, 2s, ..., 64s, each also followed by a later
# letter t where one exists
RIGHT_BLOCKS = [(X, 1, TH), (X, -1, TH), (DTH, 1, TH), (PX, 1, ITH), (ITH, 1, None)]


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_right_x_power_matches_letter_fold(name):
    # m * g^k splits the power in log depth, as do the powers in m; a fresh
    # table folds the same product one letter at a time
    rt = build_rule_table(CalculusType.by_name(name))
    ref = build_rule_table(CalculusType.by_name(name))

    def fold(e, letter):
        acc = Element.zero(ref.params)
        for mm, c in e.terms.items():
            acc.add_scaled(ref.mul_mono_letter(mm, letter), c)
        return acc

    for m in RIGHT_X_CASES:
        for g, s, t in RIGHT_BLOCKS:
            want = Element.monomial(ref.params, m)
            for k in range(s, 65 * s, s):
                want = fold(want, (g, s))
                block = _letter_mono((g, k))
                assert rt.mul_mono_mono(m, block) == want, (m, g, k)
                if t is not None:
                    right = tuple(a + b for a, b in zip(block, _letter_mono((t, 1))))
                    assert rt.mul_mono_mono(m, right) == fold(want, (t, 1)), (m, g, k, t)


@pytest.mark.parametrize("tail", [{}, {"th": 1}])
def test_right_x_power_memo_grows_logarithmically(tail):
    # px * x^10000 memoizes O(log k) products, not one per letter
    rt = build_rule_table(CalculusType.type_ii())
    before = len(rt._memo) + len(rt._pair_memo)
    e = rt.mul_mono_mono(mono(px=1), mono(x=10_000, **tail))
    assert len(rt._memo) + len(rt._pair_memo) - before < 300
    want = rt.params.var("r") ** 10_000
    if tail:
        want = want * rt.mul_mono_mono(mono(px=1), mono(th=1)).terms[mono(th=1, px=1)]
    assert e.terms[mono(x=10_000, px=1, **tail)] == want
