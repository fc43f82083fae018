"""Coefficient field: canonical forms, arithmetic, evaluation, q-numbers."""

from fractions import Fraction
import random

import pytest

from qsp.algebra import CalculusType
from qsp.coeffs import (
    PARAMS_I,
    PARAMS_II,
    PARAMS_III,
    MissingVariable,
    ParamSet,
    PoleAtAssignment,
    ZeroDenominator,
    poly_gcd,
    qnumber,
    rf_arith,
    rf_eval,
    rf_make,
)

P2 = PARAMS_II
q = P2.var("q")
r = P2.var("r")
one = P2.one()


def poly_of(rf):
    assert rf.den == {(0,) * rf.params.nvars: Fraction(1)}
    return rf.num


def test_make_cancels_polynomial_factor():
    # (1 - q^2) / (1 - q) = 1 + q
    num = ((one - q * q)).num
    den = (one - q).num
    got = rf_make(P2, num, den)
    assert got == one + q


def test_make_zero_normalizes_to_zero_over_one():
    got = rf_make(P2, {}, {(0, 0): Fraction(7)})
    assert got == P2.zero()
    assert got.num == {}
    assert got.den == {(0, 0): Fraction(1)}


def test_make_cancels_common_monomial():
    # (q*r - r) / r = q - 1
    num = (q * r - r).num
    den = r.num
    assert rf_make(P2, num, den) == q - one


def test_make_rejects_zero_denominator():
    with pytest.raises(ZeroDenominator):
        rf_make(P2, q.num, {})


def test_arith_examples():
    assert rf_arith("add", q, -q) == P2.zero()
    # (q/r) * (-r/q) = -1, the Type II product Q' * Q21 without the q-factors
    qr = q / r
    mrq = -(r / q)
    assert rf_arith("mul", qr, mrq) == -one
    assert rf_arith("div", one, q) == rf_make(P2, one.num, q.num)


def test_eval_examples():
    assert rf_eval(one + q, {"q": Fraction(3, 2), "r": 1}) == Fraction(5, 2)
    geo = (one - q ** 3) / (one - q)
    assert rf_eval(geo, {"q": 2, "r": 1}) == 7
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at q=1, r=5/2$"):
        rf_eval(one / (one - q), {"q": 1, "r": Fraction(5, 2)})
    with pytest.raises(MissingVariable):
        rf_eval(q, {"r": 2})


def random_rf(rng, params):
    def rand_poly():
        p = params.zero()
        for _ in range(rng.randint(1, 3)):
            term = params.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for v in params.variables:
                term = term * params.var(v) ** rng.randint(0, 2)
            p = p + term
        return p

    num = rand_poly()
    den = params.zero()
    while den.is_zero():
        den = rand_poly()
    return num / den


def test_field_axioms_on_random_samples():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = (random_rf(rng, P2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * (one / a) == one


def test_canonical_uniqueness_bit_for_bit():
    rng = random.Random(7)
    for _ in range(25):
        a = random_rf(rng, P2)
        scale = P2.zero()
        while scale.is_zero():
            scale = random_rf(rng, P2)
        b = rf_make(P2, (a.num and (a * scale).num) or {}, (a * scale).den if not a.is_zero() else one.num)
        # same fraction, independently constructed representative
        blown_num = {}
        for m, cc in a.num.items():
            blown_num[m] = cc
        blown = rf_make(P2, _mul_poly(blown_num, scale.num), _mul_poly(a.den, scale.num))
        assert blown.num == a.num and blown.den == a.den


def _mul_poly(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_eval_is_a_homomorphism():
    rng = random.Random(99)
    point = {"q": Fraction(5, 3), "r": Fraction(7, 2)}
    for _ in range(25):
        a, b = random_rf(rng, P2), random_rf(rng, P2)
        try:
            va, vb = a.eval(point), b.eval(point)
        except PoleAtAssignment:
            continue
        assert (a + b).eval(point) == va + vb
        assert (a * b).eval(point) == va * vb


def test_qnumber_examples():
    Q = r
    assert qnumber(3, Q) == one + Q + Q * Q
    assert qnumber(0, Q) == P2.zero()
    # negative index: (1 - Q^-1)/(1 - Q) = -Q^-1
    assert qnumber(-1, Q) == -(one / Q)


def test_qnumber_identity():
    Q = q * r  # an arbitrary nonconstant base
    for m in range(-8, 9):
        assert qnumber(m, Q) * (one - Q) + Q ** m == one


def test_qnumber_safe_at_base_one():
    assert qnumber(5, P2.one()) == P2.const(5)
    assert qnumber(-3, P2.one()) == P2.const(-3)


def test_gcd_multivariate():
    a = ((q + r) * (q - r)).num
    b = ((q + r) * q).num
    g = poly_gcd(a, b)
    assert g == (q + r).num


def test_substitute_partial():
    f = (q * r + r) / (q + r)
    g = f.substitute({"r": 1})
    assert g == (q + one) / (q + one) == one
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at r=1$"):
        ((one / (one - r))).substitute({"r": 1})
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at q=1/2$"):
        ((one / (one - q - q))).substitute({"q": Fraction(1, 2)})


def test_project_across_paramsets():
    f = (q + one).substitute({})  # q-only content over (q, r)
    g = f.project(PARAMS_I)
    assert g.params == PARAMS_I
    assert str(g) == "q + 1"
    with pytest.raises(ValueError):
        (q * r).project(PARAMS_I)


def test_paramset_rejects_duplicates():
    with pytest.raises(ValueError):
        ParamSet("bad", ("q", "q"))


def test_str_forms():
    assert str(P2.zero()) == "0"
    assert str(one + q) == "q + 1"
    assert str((one - q) / r) == "(-q + 1)/(r)"
    assert str(PARAMS_III.var("p") ** 2) == "p^2"


def test_power_matches_repeated_product():
    # __pow__ squares and multiplies; negative powers invert first
    for base in (q + r, q / (one - r), P2.const(Fraction(2, 3)) * r, -one):
        want = one
        for k in range(10):
            assert base ** k == want
            assert base ** -k == one / want
            want = want * base


@pytest.mark.parametrize("ctype, assignment", [
    ("I", {}), ("II", {}), ("III", {}), ("II", {"r": 1}), ("III", {"p": 1}),
    ("II", {"r": Fraction(1, 2)})], ids=["I", "II", "III", "II-r=1", "III-p=1", "II-r=1/2"])
def test_qnumber_matches_geometric_sum(ctype, assignment):
    ct = CalculusType.by_name(ctype).specialize(assignment)
    Q, P = ct.Q, ct.params
    for m in range(-60, 61):
        k = abs(m)
        total = P.zero()
        for i in range(k):
            total = total + Q ** i
        want = total if m >= 0 else -(Q ** m) * total
        assert qnumber(m, Q) == want, m
