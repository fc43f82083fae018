"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All equality checks are exact (no tolerances); the stated runtime budgets are
asserted with `time.monotonic`.
"""

import json
import time
from pathlib import Path

import pytest

from qsp.algebra import (
    CalculusType,
    Element,
    build_rule_table,
    local_confluence_check,
    mono,
)
from qsp.calculus import (
    E,
    act_on_function,
    closed_form_H,
    expand_derived,
    exterior_derivative,
    run_suite,
    verify_identity,
)
from qsp.coeffs import PARAMS_I, PARAMS_II, PARAMS_III
from qsp.covariance import (
    expected_covariance_constraints,
    generate_ansatz_constraints,
    generate_covariance_constraints,
    inner_relation_residuals,
    solve_family,
    spans_match,
)
from qsp.exprio import emit_report, print_canonical
from qsp.hopf import (
    UElement,
    coordinate_basis,
    coproduct_A,
    coproduct_U_residuals,
    hopf_axiom_check,
    left_act,
    pair,
    tensor_multiply,
    u_coproduct_square_nabla,
)


@pytest.fixture(scope="module")
def engines():
    return {name: build_rule_table(CalculusType.by_name(name))
            for name in ("I", "II", "III")}


def _report(line):
    print(f"\n[PASS] {line}")


def test_criterion_1_family_tables():
    t0 = time.monotonic()
    cases = (
        ("I", {"Q12": 0, "Q22": 0}, PARAMS_I),
        ("II", {"Q22": 0, "Q": "r"}, PARAMS_II),
        ("III", {"Q12": 0, "Q": "p"}, PARAMS_III),
    )
    for mode, conditions, params in cases:
        got = solve_family(conditions, params)
        want = CalculusType.by_name(mode)
        for name in ("Q", "Q11", "Q12", "Q21", "Q22", "Qp"):
            assert got.symbol(name) == want.symbol(name), (mode, name)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"family solving took {elapsed:.2f}s"
    _report(f"criterion 1: family tables reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_constraint_derivation(engines):
    t0 = time.monotonic()
    cc = generate_covariance_constraints()
    assert spans_match(cc.right, expected_covariance_constraints())
    assert not cc.left, "left coaction must add no constraints"

    coord = generate_ansatz_constraints("inner-coordinate")
    diff = generate_ansatz_constraints("inner-differential")
    assert len(coord) >= 5 and len(diff) >= 6
    for name, rt in engines.items():
        for kind in ("inner-coordinate", "inner-differential"):
            assert all(r.is_zero() for r in inner_relation_residuals(rt, kind)), (name, kind)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"constraint derivation took {elapsed:.2f}s"
    _report(f"criterion 2: covariance and ansatz systems derived and "
            f"annihilated ({elapsed:.3f}s)")


WORD_SUITE_PREFIXES = (
    "eq28-", "eq29-", "eq33-exterior-via-partials", "eq35-", "eq36-", "eq37-",
    "eq39-", "eq41-", "eq42-", "eq44-", "eq46-", "eq48-", "eq50-",
    "eq51-first-corrected", "eq51-second", "eq58-", "eq93-", "eq94-", "eq95-",
    "eq96-", "eq97-", "eq98-", "eq99-", "eq100-",
)


def test_criterion_3_word_level_suite(engines):
    t0 = time.monotonic()
    for name in ("II", "III"):
        rt = engines[name]
        results = run_suite(rt, bound=6)
        for r in results:
            wanted = (any(r.identityId.startswith(p) for p in WORD_SUITE_PREFIXES)
                      and not r.identityId.endswith("-as-printed"))
            if wanted:
                assert r.status == "PASS", (name, r.identityId,
                                            print_canonical(r.residual))
                assert r.residual.is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0, f"word-level suite took {elapsed:.2f}s"
    _report(f"criterion 3: word-level suite exact at generic Type II and III "
            f"({elapsed:.2f}s)")


def test_criterion_4_action_level_checks(engines):
    for name in ("II", "III"):
        rt = engines[name]
        P = rt.params
        H = expand_derived(rt, "H")
        nb = expand_derived(rt, "Nb")
        for m in range(-10, 11):
            for eps in (0, 1):
                w = Element.monomial(P, mono(x=m, th=eps))
                assert act_on_function(rt, H, w) == w.scale(closed_form_H(rt.ct, m, eps))
        for m in range(0, 11):
            w = Element.monomial(P, mono(x=m, th=1))
            want = Element.monomial(P, mono(x=m + 1), rt.ct.Q11 ** m)
            assert act_on_function(rt, nb, w) == want
        for m in range(-6, 7):
            for eps in (0, 1):
                for b in (0, 1, 2):
                    w = Element.monomial(P, mono(dth=b, x=m, th=eps))
                    dd = exterior_derivative(rt, exterior_derivative(rt, w))
                    assert dd.is_zero(), (name, m, eps, b)
    _report("criterion 4: closed-form actions and d^2 = 0 exact on the basis")


def test_criterion_5_hopf_suite(engines):
    for name in ("II", "III"):
        rt = engines[name]
        letters = [("x", 1), ("x", -1), ("th", 1)]
        words = [[]]
        for _ in range(3):
            words += [w + [l] for w in words for l in letters]
        for w in words:
            e = rt.normalize_word(w)
            if e.is_zero():
                continue
            for res in hopf_axiom_check(rt, e):
                assert res.is_zero(), (name, w)
        relation = E(rt, "x*th - q*th*x")
        assert coproduct_A(rt, relation).is_zero()
        th = coproduct_A(rt, E(rt, "th"))
        assert tensor_multiply(rt, th, th).is_zero()
        for f in coordinate_basis(4):
            for g in coordinate_basis(4):
                r1, r2 = coproduct_U_residuals(rt, f, g)
                assert r1.is_zero() and r2.is_zero(), (name, f, g)
        assert u_coproduct_square_nabla(rt.params) == []
    _report("criterion 5: Hopf axioms, relation coproducts, twisted Leibniz "
            "rules exact")


def test_criterion_6_pairing_and_actions(engines):
    rt = engines["II"]
    P = rt.params
    q, r = P.var("q"), P.var("r")
    T, nb = UElement.gen_T(P), UElement.gen_nabla(P)
    x, th = rt.word("x"), rt.word("th")
    assert pair(rt, T, x) == r
    assert pair(rt, T, th).is_zero()
    assert pair(rt, nb, x).is_zero()
    assert pair(rt, nb, th) == P.one()
    # operator relations through the dual left action on the basis
    for m in coordinate_basis(6):
        f = Element.monomial(P, m)
        assert left_act(rt, T, rt.mul(x, f)) == rt.mul(x, left_act(rt, T, f)).scale(r)
        assert left_act(rt, T, rt.mul(th, f)) == rt.mul(th, left_act(rt, T, f)).scale(r)
        assert left_act(rt, nb, rt.mul(x, f)) == rt.mul(x, left_act(rt, nb, f)).scale(q)
        want = rt.mul(x, f) - rt.mul(th, left_act(rt, nb, f)).scale(q)
        assert left_act(rt, nb, rt.mul(th, f)) == want
    assert left_act(rt, T, rt.word("x", "th")) == rt.word("x", "th").scale(r * r)
    assert pair(rt, nb, rt.word("x", "th")) == q
    _report("criterion 6: pairing table, operator relations, and brute-force "
            "pairings confirmed")


def test_criterion_7_discrepancy_certificates(engines):
    for name, var in (("II", "r"), ("III", "p")):
        rt = engines[name]
        P = rt.params
        res = verify_identity(rt, "eq51-first-as-printed")
        assert res.status == "FAIL"
        assert res.residual == Element.scalar(P, P.var(var) - P.one())
        assert (rt.ct.Q12 - rt.ct.Qp * rt.ct.Q21 - P.one()) == P.var(var) - P.one()

        bad = verify_identity(rt, "eq64-antipode-as-printed", bound=6)
        good = verify_identity(rt, "eq64-antipode-corrected", bound=6)
        assert bad.status == "FAIL" and good.status == "PASS"

        results = run_suite(rt, bound=3)
        ids = {r.identityId for r in results}
        assert "eq51-first-as-printed" in ids
        assert "eq64-antipode-as-printed" in ids
    _report("criterion 7: discrepancy certificates fail as printed, with the "
            "stated residuals, in every full report")


def test_criterion_8_rewriting_soundness(engines):
    t0 = time.monotonic()
    for name in ("II", "III"):
        report = local_confluence_check(engines[name], 4)
        assert report.ok, (name, report.violations[:2])
        assert (report.words_checked, report.branch_pairs) == (4969, 5386), name

    import random
    rng = random.Random(8128)
    rt = engines["II"]
    alphabet = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1), ("d", 1),
                ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1)]
    for _ in range(1000):
        word = [alphabet[rng.randrange(len(alphabet))]
                for _ in range(rng.randint(1, 6))]
        e = rt.normalize_word(word)
        assert rt.normalize(e) == e
        cut1 = rng.randint(0, len(word))
        cut2 = rng.randint(cut1, len(word))
        a = rt.normalize_word(word[:cut1])
        b = rt.normalize_word(word[cut1:cut2])
        c = rt.normalize_word(word[cut2:])
        assert rt.mul(rt.mul(a, b), c) == rt.mul(a, rt.mul(b, c))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"rewriting soundness took {elapsed:.2f}s"
    _report(f"criterion 8: local confluence at length 4 plus idempotence and "
            f"associativity on 1000 random words ({elapsed:.2f}s)")


def _normalized_report(rt, label):
    results = run_suite(rt, bound=4)
    payload = emit_report(results, "json", "TYPE", None)
    doc = json.loads(payload)
    for r in doc["results"]:
        r.pop("elapsedMillis")
    return doc


def test_criterion_9_cross_type_coherence(engines):
    base = _normalized_report(engines["I"], "I")
    spec_ii = build_rule_table(CalculusType.type_ii().specialize({"r": 1}))
    spec_iii = build_rule_table(CalculusType.type_iii().specialize({"p": 1}))
    for rt in (spec_ii, spec_iii):
        doc = _normalized_report(rt, "specialized")
        assert doc == base, rt.ct.params.mode
    _report("criterion 9: Type I report identical to Type II at r=1 and "
            "Type III at p=1 (modulo the type label)")


CATALOG_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "catalog.json"


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_catalog_report_matches_reference(name):
    # the report contract: the JSON report of run_suite(rt, bound=6) on a
    # fresh table, elapsedMillis stripped, equals the benchmark's reference
    # answer (captured from the engine as first seeded); the file is only read
    with open(CATALOG_REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)[name]
    rt = build_rule_table(CalculusType.by_name(name))
    doc = json.loads(emit_report(run_suite(rt, bound=6), "json", name))
    for r in doc["results"]:
        r.pop("elapsedMillis")
    assert doc == want
