"""Coefficient field: canonical forms, arithmetic, evaluation, q-numbers."""

from fractions import Fraction
import random

import pytest

from qsp.algebra import CalculusType
from qsp.coeffs import (
    PARAMS_I,
    PARAMS_II,
    PARAMS_III,
    DivisionByZero,
    NonMonomialDivisor,
    ParamSet,
    PoleAtAssignment,
    RationalFunction,
    qnumber,
    term_str,
)

P2 = PARAMS_II
q = P2.var("q")
r = P2.var("r")
one = P2.one()


def test_make_cancels_polynomial_factor():
    # (1 - q^2)*q*r / (3*q*r) = (1 - q^2)/3
    got = RationalFunction(P2, ((one - q * q) * q * r).lp) / RationalFunction(P2, {(1, 1): 3})
    assert got == (one - q * q) * P2.const(Fraction(1, 3))
    assert got.fraction() == ({(0, 0): Fraction(1, 3), (2, 0): Fraction(-1, 3)},
                              {(0, 0): 1})
    # a divisor of more than one term is an input error, even where it
    # divides the numerator: (1 - q^2) / (1 - q)
    with pytest.raises(NonMonomialDivisor):
        (one - q * q) / (one - q)


def test_make_zero_normalizes_to_zero_over_one():
    got = RationalFunction(P2, {(0, 0): 0, (1, -2): Fraction(0)})
    assert got == P2.zero()
    assert got.lp == {}
    assert got.fraction() == ({}, {(0, 0): 1})


def test_make_cancels_common_monomial():
    # (q*r - r) / r = q - 1
    num = RationalFunction(P2, {(1, 1): 1, (0, 1): -1})
    assert num / RationalFunction(P2, {(0, 1): 1}) == q - one


def test_make_rejects_zero_denominator():
    with pytest.raises(DivisionByZero):
        q / RationalFunction(P2, {(0, 0): 0})


def test_arith_examples():
    assert q + (-q) == P2.zero()
    # (q/r) * (-r/q) = -1, the Type II product Q' * Q21 without the q-factors
    qr = q / r
    mrq = -(r / q)
    assert qr * mrq == -one
    assert one / q == RationalFunction(P2, {(-1, 0): 1})


def test_eval_examples():
    assert (one + q).substitute({"q": Fraction(3, 2), "r": 1}) == P2.const(Fraction(5, 2))
    quot = (one - q ** 3) / (P2.const(2) * q * r)
    assert quot.substitute({"q": 2, "r": 1}) == P2.const(Fraction(-7, 4))
    assert quot.substitute({"q": Fraction(1, 2), "r": -1}) == P2.const(Fraction(-7, 8))
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at q=0, r=5/2$"):
        (one + one / q).substitute({"q": 0, "r": Fraction(5, 2)})


def random_term(rng, params):
    """A nonzero single term with a rational coefficient."""
    term = params.const(Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)))
    for v in params.variables:
        term = term * params.var(v) ** rng.randint(0, 2)
    return term


def random_rf(rng, params):
    """A Laurent polynomial over Q: a polynomial over a single term."""
    num = params.zero()
    for _ in range(rng.randint(1, 3)):
        num = num + random_term(rng, params)
    return num / random_term(rng, params)


def test_field_axioms_on_random_samples():
    rng = random.Random(20240817)
    for _ in range(40):
        a, b, c = (random_rf(rng, P2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        u = random_term(rng, P2) / random_term(rng, P2)
        assert u * (one / u) == one
        assert (a / u) * u == a


def test_canonical_uniqueness_bit_for_bit():
    rng = random.Random(7)
    for _ in range(25):
        a = random_rf(rng, P2)
        scale = random_term(rng, P2)
        # same fraction, independently constructed representative
        num, den = a.fraction()
        blown = (RationalFunction(P2, _mul_poly(num, scale.lp))
                 / RationalFunction(P2, _mul_poly(den, scale.lp)))
        assert blown.fraction() == (num, den)
        assert blown.lp == a.lp and hash(blown) == hash(a)


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
            va, vb = a.substitute(point), b.substitute(point)
        except PoleAtAssignment:
            continue
        assert (a + b).substitute(point) == va + vb
        assert (a * b).substitute(point) == va * vb


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
    # a common factor of (q + r)*(q - r)*q*r and 2*q*r: the single-term part
    # cancels, and a common factor of more than one term is never sought
    a = (q + r) * (q - r) * q * r
    assert a / (P2.const(2) * q * r) == (q * q - r * r) * P2.const(Fraction(1, 2))
    with pytest.raises(NonMonomialDivisor):
        a / ((q + r) * q)


def test_substitute_partial():
    from test_coeff_oracle import assert_stored_form
    f = (q * r + r) / (q * r)
    assert f.substitute({"r": 1}) == (q + one) / q
    half = f.substitute({"r": Fraction(1, 2)})
    assert half == f.substitute({"r": 1})
    assert_stored_form(half)
    assert all(type(c) is int for c in half.packed.values())
    g = (q * r + r).substitute({"r": Fraction(1, 2)})
    assert g == (q + one) * P2.const(Fraction(1, 2))
    assert_stored_form(g)
    assert all(type(c) is Fraction for c in g.packed.values())
    assert (P2.const(2) * q * r).substitute({"r": Fraction(1, 2)}).lp == {(1, 0): 1}
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at r=0$"):
        (q + one / r).substitute({"r": 0})
    with pytest.raises(PoleAtAssignment, match=r"^denominator vanishes at q=0$"):
        (one / (P2.const(2) * q * q)).substitute({"q": 0})


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


@pytest.mark.parametrize("m, c, want", [
    ((-1, 1), -1, (-1, "r*q^-1")),
    ((3, -1), Fraction(1, 2), (1, "1/2*q^3*r^-1")),
    ((0, -2), -3, (-1, "3*r^-2")),
    ((0, 0), -1, (-1, "1")),
    ((0, 0), Fraction(2, 3), (1, "2/3")),
])
def test_term_str(m, c, want):
    # positive powers before negative ones, each in parameter order; |c| is
    # written unless it is 1 and a power is present
    assert term_str(m, c, P2.variables) == want


def test_power_matches_repeated_product():
    # __pow__ squares and multiplies; negative powers invert first, which
    # only a single term can
    for base in (q + r, (q - r) / (P2.const(3) * r), P2.const(Fraction(2, 3)) * r, -one,
                 q ** -2 * r):
        want = one
        for k in range(10):
            assert base ** k == want
            if len(base.lp) == 1:
                assert base ** -k == one / want
            elif k:
                with pytest.raises(NonMonomialDivisor):
                    base ** -k
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
