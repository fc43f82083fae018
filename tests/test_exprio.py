"""Expression language: parsing, printing, round trips, reports."""

import gc
import json
from fractions import Fraction
import random
import weakref

import pytest

from qsp.coeffs import NonMonomialDivisor
from qsp.algebra import CalculusType, Element, build_rule_table, mono
from qsp.calculus import VerifyResult
from qsp.exprio import (
    BadExponent,
    ExprSyntaxError,
    UnknownSymbol,
    emit_report,
    parse_element,
    parse_uelement,
    print_canonical,
    print_tensor,
)
from qsp.hopf import UElement, coproduct_A


@pytest.fixture(scope="module")
def t2():
    return build_rule_table(CalculusType.type_ii())


def P(t2, text):
    return parse_element(t2, text)


def test_parse_products(t2):
    assert P(t2, "px*x") == t2.word("px", "x")
    assert P(t2, "x^-3*th") == t2.word(("x", -3), "th")
    assert P(t2, "xi") == t2.word(("x", -1))
    assert P(t2, "xi^2") == t2.word(("x", -2))


def test_parse_sum_with_coefficients(t2):
    got = P(t2, "ix*dx + (q^-1)*(r-1)*dth*ith")
    q, r = t2.params.var("q"), t2.params.var("r")
    want = t2.word("ix", "dx") + t2.word("dth", "ith").scale((r - t2.params.one()) / q)
    assert got == want


def test_parse_rational_literals(t2):
    e = P(t2, "3/2*x - 1/2*x")
    assert e == t2.word("x")


def test_whitespace_insensitive(t2):
    assert P(t2, "  px *  x ") == P(t2, "px*x")


def test_nilpotent_power_is_zero_but_parses(t2):
    assert P(t2, "dx^2").is_zero()
    assert P(t2, "th^2").is_zero()


def test_syntax_errors(t2):
    with pytest.raises(ExprSyntaxError):
        P(t2, "x^q")
    with pytest.raises(ExprSyntaxError):
        P(t2, "x +")
    with pytest.raises(ExprSyntaxError):
        P(t2, "(x")
    with pytest.raises(ExprSyntaxError):
        P(t2, "x x")  # juxtaposition is not multiplication
    err = None
    try:
        P(t2, "x + $")
    except ExprSyntaxError as exc:
        err = exc
    assert err is not None and err.position == 4


def test_unknown_symbol_and_bad_exponent(t2):
    with pytest.raises(UnknownSymbol):
        P(t2, "y*x")
    with pytest.raises(BadExponent):
        P(t2, "th^-1")
    with pytest.raises(BadExponent):
        P(t2, "H^-1")
    with pytest.raises(BadExponent):
        P(t2, "x/dx")


def test_division_by_scalar(t2):
    from fractions import Fraction
    assert P(t2, "x/2") == t2.word("x").scale(t2.params.const(Fraction(1, 2)))
    assert P(t2, "(q*x)/(q)") == t2.word("x")


def test_print_examples(t2):
    e = t2.word("px", "x")
    assert print_canonical(e) == "1 + r*x*px + (r - 1)*th*pth"
    assert print_canonical(Element.zero(t2.params)) == "0"
    assert print_canonical(t2.word("x", "th")) == "x*th"
    assert print_canonical(-t2.word("x")) == "-x"


def test_print_laurent_coefficients(t2):
    q = t2.params.var("q")
    e = Element.monomial(t2.params, mono(x=1), t2.params.one() / q)
    assert print_canonical(e) == "q^-1*x"
    e = Element.monomial(t2.params, mono(x=1), -(t2.params.var("r") / q))
    assert print_canonical(e) == "-r*q^-1*x"


def test_roundtrip_random_elements(t2):
    rng = random.Random(365)
    letters = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1),
               ("px", 1), ("pth", 1), ("ix", 1), ("ith", 1), ("d", 1)]
    q, r = t2.params.var("q"), t2.params.var("r")
    third = t2.params.const(Fraction(1, 3))
    coeffs = [t2.params.one(), q, -r, q / r, (r - t2.params.one()) / q,
              third * (q + r) / r, t2.params.const(3) / (q * r), third / q]
    for _ in range(200):
        e = Element.zero(t2.params)
        for _ in range(rng.randint(1, 3)):
            w = [letters[rng.randrange(len(letters))] for _ in range(rng.randint(0, 4))]
            e = e + t2.normalize_word(w).scale(coeffs[rng.randrange(len(coeffs))])
        back = P(t2, print_canonical(e))
        assert back == e, print_canonical(e)


def test_print_tensor_roundtrip_shape(t2):
    te = coproduct_A(t2, t2.word("x", "th"))
    s = print_tensor(te)
    assert "(x)" in s and "x*th" in s


def test_parse_uelement(t2):
    P_ = t2.params
    u = parse_uelement(t2.ct, "T^2*Nb")
    assert u == UElement(P_, {(2, 0, 1): P_.one()})
    assert parse_uelement(t2.ct, "Nb*Nb").is_zero()
    u = parse_uelement(t2.ct, "K^-1 - K")
    assert u == UElement(P_, {(0, -1, 0): P_.one(), (0, 1, 0): -P_.one()})
    with pytest.raises(UnknownSymbol):
        parse_uelement(t2.ct, "H")


@pytest.mark.parametrize("text, exc, message", [
    ("T/2", BadExponent, "no division in the dual language"),
    ("(T)^2", BadExponent, "powers apply to symbols in the dual language"),
    ("Nb^-1", BadExponent, "Nb is nilpotent; negative powers do not exist"),
    ("H", UnknownSymbol, "unknown dual-sector symbol 'H'"),
])
def test_parse_uelement_errors(t2, text, exc, message):
    with pytest.raises(exc) as info:
        parse_uelement(t2.ct, text)
    assert str(info.value) == message


def test_parsing_keeps_no_table_alive():
    # with the cycle collector off, the table must die as soon as the last
    # reference to it goes: evaluation may leave no reference cycle behind
    gc.disable()
    try:
        rt = build_rule_table(CalculusType.type_ii())
        ref = weakref.ref(rt)
        e = parse_element(rt, "(x*th + 2/q)^2 - H/3")
        u = parse_uelement(rt.ct, "T^-2*K*(Nb - 1)")
        del rt
        assert ref() is None
    finally:
        gc.enable()
    assert not e.is_zero() and not u.is_zero()


def test_emit_report_json(t2):
    res = [
        VerifyResult("eq51-first-as-printed", "(51)", "FAIL",
                     Element.scalar(t2.params, t2.params.var("r") - t2.params.one()), 3),
        VerifyResult("eq41-Hnabla", "(41)", "PASS", Element.zero(t2.params), 1),
    ]
    payload = emit_report(res, "json", "II", None)
    doc = json.loads(payload)
    assert doc["type"] == "II"
    assert doc["paramAssignment"] is None
    assert [r["id"] for r in doc["results"]] == ["eq41-Hnabla", "eq51-first-as-printed"]
    assert doc["results"][0]["residual"] == "0"
    assert doc["results"][1]["residual"] == "r - 1"
    assert doc["results"][1]["status"] == "FAIL"

    empty = json.loads(emit_report([], "json", "II", None))
    assert empty == {"type": "II", "paramAssignment": None, "results": []}


def test_emit_report_text(t2):
    res = [VerifyResult("eq41-Hnabla", "(41)", "PASS", Element.zero(t2.params), 1)]
    text = emit_report(res, "text", "I", {"q": 2}).decode()
    assert "eq41-Hnabla" in text and "PASS" in text


@pytest.mark.parametrize("text", ["H", "1+r", "x*px + th", "2*q - r^-1", "1/3 + q",
                                  "-2/3*q*r^-2"])
def test_powers_match_repeated_product(t2, text):
    # scalar powers square and multiply; every power equals the plain product,
    # and only a single-term scalar has negative powers
    e = P(t2, f"({text})")
    want = Element.one(t2.params)
    for k in range(1, 10):
        want = t2.mul(want, e)
        assert P(t2, f"({text})^{k}") == want
    if e.is_scalar() and len(e.scalar_value().lp) > 1:
        with pytest.raises(NonMonomialDivisor):
            P(t2, f"({text})^-2")
    elif e.is_scalar():
        inv = Element.scalar(t2.params, t2.params.one() / e.scalar_value())
        want = Element.one(t2.params)
        for k in range(1, 10):
            want = t2.mul(want, inv)
            assert P(t2, f"({text})^-{k}") == want
    else:
        with pytest.raises(BadExponent):
            P(t2, f"({text})^-2")
