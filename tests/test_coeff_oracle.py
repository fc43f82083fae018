"""Property tests of the coefficient fast paths against an independent oracle.

``RationalFunction`` stores an integer Laurent polynomial directly and a
reduced fraction otherwise, promoting and demoting between the two forms;
``__mul__`` short-circuits unit operands, ``_poly_div_exact`` divides by a
single-term divisor term by term, and ``Element.add_scaled`` accumulates in
place.  Products, sums and quotients are checked against SymPy's ``cancel``,
the stored form against the shape of SymPy's reduced fraction, exact division
against ``sympy.div``, and in-place accumulation against ``a + b.scale(c)``.
Both libraries are test-only dependencies.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    CalculusType, Element, build_rule_table, local_confluence_check, mono)
from qsp.calculus import run_suite  # noqa: E402
from qsp.coeffs import PARAMS_II, _poly_div_exact, rf_make  # noqa: E402
from qsp.exprio import parse_element  # noqa: E402
from qsp.hopf import TensorElement, UElement  # noqa: E402

P = PARAMS_II
SQ, SR = sympy.symbols("q r")

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = small.filter(bool)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, nonzero, min_size=1, max_size=4)


@st.composite
def rational_functions(draw):
    """Zero, one, constants, polynomials and fractions over PARAMS_II."""
    kind = draw(st.sampled_from(
        ["zero", "one", "const", "poly", "monomial-den", "general-den"]))
    if kind == "zero":
        return P.zero()
    if kind == "one":
        return P.one()
    if kind == "const":
        return P.const(draw(nonzero))
    num = draw(polys)
    if kind == "poly":
        return rf_make(P, num, {(0, 0): Fraction(1)})
    if kind == "monomial-den":
        return rf_make(P, num, {draw(exponents): draw(nonzero)})
    return rf_make(P, num, draw(polys))


def sympy_poly(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * SQ**a * SR**b
                for (a, b), c in p.items()), sympy.Integer(0))


def to_sympy(rf):
    return sympy_poly(rf.num) / sympy_poly(rf.den)


def canonical_from_sympy(expr):
    """(num, den) as engine-style dicts, denominator monic in grlex order."""
    n, d = sympy.fraction(sympy.cancel(expr))
    lc = sympy.Poly(d, SQ, SR).LC(order="grlex")
    pn, pd = (sympy.Poly(e / lc, SQ, SR, domain="QQ") for e in (n, d))

    def as_dict(p):
        return {m: Fraction(int(c.p), int(c.q)) for m, c in p.as_dict().items() if c}
    return as_dict(pn), as_dict(pd)


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_product_matches_sympy_cancel(a, b):
    got = a * b
    num, den = canonical_from_sympy(to_sympy(a) * to_sympy(b))
    assert (got.num, got.den) == (num, den)
    assert b * a == got


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_sum_matches_sympy_together(a, b):
    got = a + b
    expr = sympy.together(to_sympy(a) + to_sympy(b))
    assert (got.num, got.den) == canonical_from_sympy(expr)
    assert b + a == got


@settings(max_examples=200, deadline=None)
@given(polys, exponents, nonzero)
def test_single_term_division_matches_sympy_div(a, m, c):
    b = {m: c}
    quot, rem = sympy.div(sympy_poly(a), sympy_poly(b), SQ, SR, domain="QQ")
    if rem == 0:
        assert sympy.expand(sympy_poly(_poly_div_exact(a, b)) - quot) == 0
    else:
        with pytest.raises(ArithmeticError):
            _poly_div_exact(a, b)


@settings(max_examples=100, deadline=None)
@given(rational_functions())
def test_unit_product_is_the_operand(a):
    one = P.one()
    assert a * one == a == one * a
    if not a.is_zero() and not a.is_one():
        assert a * one is a and one * a is a


MONOS = [mono(), mono(x=1), mono(x=-2, th=1), mono(dx=1, px=1), mono(dth=1, ith=2)]
elements = st.dictionaries(st.sampled_from(MONOS), rational_functions(), max_size=4)


@settings(max_examples=100, deadline=None)
@given(elements, elements, rational_functions(), st.booleans())
def test_add_scaled_matches_add_and_scale(ta, tb, c, cancel):
    a, b = Element(P, ta), Element(P, tb)
    if cancel and not c.is_zero():
        # make some (or all) of c*b cancel against a
        a = a - Element(P, dict(list(b.terms.items())[::2])).scale(c)
    b_before = dict(b.terms)
    acc = Element(P, dict(a.terms))
    acc.add_scaled(b, c)
    assert acc == a + b.scale(c)
    assert not any(v.is_zero() for v in acc.terms.values())
    assert b.terms == b_before


# ----------------------------------------------------------------------------
# The Laurent / general boundary
# ----------------------------------------------------------------------------

laurent_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def laurents(draw, min_size=1):
    """Integer Laurent polynomials, negative exponents included."""
    terms = draw(st.dictionaries(laurent_exponents, st.integers(-4, 4).filter(bool),
                                 min_size=min_size, max_size=4))
    low = tuple(min(0, *e) for e in zip(*terms)) if terms else (0, 0)
    num = {tuple(a - b for a, b in zip(m, low)): Fraction(c) for m, c in terms.items()}
    return rf_make(P, num, {tuple(-b for b in low): Fraction(1)})


@st.composite
def boundary_values(draw):
    """Laurent values, fractions of non-unit literals like 1/3, and general
    fractions with a non-monomial denominator."""
    kind = draw(st.sampled_from(["laurent", "literal", "general"]))
    if kind == "laurent":
        return draw(laurents())
    if kind == "literal":
        return draw(laurents()) * P.const(draw(small.filter(lambda c: c.denominator > 1)))
    return rf_make(P, draw(polys), draw(polys.filter(lambda p: len(p) > 1)))


def assert_canonical(rf, expr):
    """``rf`` is the reduced fraction SymPy gives for ``expr``, stored in
    Laurent form exactly when that fraction has a monomial denominator and an
    integral numerator, and rebuilding it from its view gives the same value."""
    num, den = canonical_from_sympy(expr)
    assert (rf.num, rf.den) == (num, den)
    laurent = len(den) == 1 and all(c.denominator == 1 for c in num.values())
    assert (rf.lp is not None) == laurent
    rebuilt = rf_make(P, rf.num, rf.den)
    assert rebuilt == rf and hash(rebuilt) == hash(rf)


@settings(max_examples=100, deadline=None)
@given(laurents(min_size=0), laurents(min_size=0))
def test_laurent_arithmetic_matches_sympy(a, b):
    # the int dict loops: no gcd, negative exponents, cancellation to zero
    assert a.lp is not None and b.lp is not None
    assert_canonical(a * b, to_sympy(a) * to_sympy(b))
    assert_canonical(a + b, sympy.together(to_sympy(a) + to_sympy(b)))
    assert_canonical(a - b, sympy.together(to_sympy(a) - to_sympy(b)))
    assert (a - a).is_zero() and (a - a).lp == {}


@settings(max_examples=60, deadline=None)
@given(boundary_values(), boundary_values())
def test_mixed_forms_match_sympy(a, b):
    # Laurent x general, literal x Laurent, general + general, in both orders
    assert_canonical(a * b, to_sympy(a) * to_sympy(b))
    assert_canonical(b * a, to_sympy(a) * to_sympy(b))
    assert_canonical(a + b, sympy.together(to_sympy(a) + to_sympy(b)))


@settings(max_examples=100, deadline=None)
@given(laurents(), laurents())
def test_laurent_quotient_matches_sympy(a, b):
    # a unit divisor stays Laurent; any other divisor promotes, and the
    # quotient demotes again when the divisor cancels
    assert_canonical(a / b, sympy.cancel(to_sympy(a) / to_sympy(b)))
    assert_canonical((a * b) / b, to_sympy(a))
    assert_canonical(b ** -2, sympy.cancel(to_sympy(b) ** -2))


@settings(max_examples=80, deadline=None)
@given(laurents(min_size=0), boundary_values())
def test_sum_cancelling_the_denominator_is_laurent(a, g):
    # (a + g) - g leaves the general form and must come back as Laurent
    s = a + g
    assert_canonical(s, sympy.together(to_sympy(a) + to_sympy(g)))
    back = s - g
    assert back == a and hash(back) == hash(a)
    assert back.lp is not None


@pytest.mark.parametrize("n,d", [(1, 3), (-2, 3), (5, 2), (7, 12)])
def test_fraction_literals_promote_and_demote(n, d):
    c = P.const(Fraction(n, d))
    assert c.lp is None
    assert_canonical(c, sympy.Rational(n, d))
    assert_canonical(c * P.const(d), sympy.Integer(n))
    rt = build_rule_table(CalculusType.type_ii())
    e = parse_element(rt, f"{n}/{d}*r^-1*x")
    (coeff,) = e.terms.values()
    assert_canonical(coeff, sympy.Rational(n, d) / SR)
    (coeff,) = e.scale(P.const(d) * P.var("r")).terms.values()
    assert coeff.lp == {(0, 0): n}


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_memoized_coefficients_are_laurent(name):
    # every coefficient normal ordering memoizes must take the Laurent fast
    # path: stored as an int dict, and the form rf_make gives its own view
    rt = build_rule_table(CalculusType.by_name(name))
    assert local_confluence_check(rt, 3).ok
    assert run_suite(rt, bound=6)
    pool = list(rt._pool)
    assert len(pool) > 20
    for c in pool:
        assert c.lp is not None, c
        rebuilt = rf_make(rt.params, c.num, c.den)
        assert rebuilt == c and hash(rebuilt) == hash(c)
        assert rebuilt.lp == c.lp


# ----------------------------------------------------------------------------
# One-pass subtraction: the same value as adding the negation
# ----------------------------------------------------------------------------

TENSOR_KEYS = [(mono(), mono()), (mono(x=1), mono(th=1)), (mono(x=-1), mono()),
               (mono(dx=1), mono(x=2))]
U_KEYS = [(0, 0, 0), (1, 0, 0), (0, -1, 1), (2, 1, 0)]
SPACES = {"element": (MONOS, lambda t: Element(P, t)),
          "tensor": (TENSOR_KEYS, lambda t: TensorElement(P, 2, t)),
          "u": (U_KEYS, lambda t: UElement(P, t))}


@st.composite
def same_space_pairs(draw):
    """Two elements of one type and space; with some luck, the second
    repeats terms of the first exactly, so that they cancel."""
    keys, make = SPACES[draw(st.sampled_from(sorted(SPACES)))]
    terms = st.dictionaries(st.sampled_from(keys), rational_functions(), max_size=4)
    x, tb = make(draw(terms)), draw(terms)
    if draw(st.booleans()):
        tb.update(list(x.terms.items())[::2])
    return x, make(tb)


@settings(max_examples=80, deadline=None)
@given(st.one_of(rational_functions(), boundary_values()),
       st.one_of(rational_functions(), boundary_values()))
def test_difference_is_sum_with_negation(a, b):
    d = a - b
    assert d == a + (-b) and hash(d) == hash(a + (-b))
    assert (a - a).is_zero()


@settings(max_examples=80, deadline=None)
@given(same_space_pairs())
def test_element_difference_is_sum_with_negation(pair):
    x, y = pair
    x_before, y_before = dict(x.terms), dict(y.terms)
    d = x - y
    assert d == x + (-y)
    assert type(d) is type(x)
    assert all(getattr(d, n) == getattr(x, n) for n in x._space)
    assert not any(v.is_zero() for v in d.terms.values())
    assert not any(x.terms.get(m) == c and m in d.terms for m, c in y.terms.items())
    assert x.terms == x_before and y.terms == y_before
    z = x - x
    assert type(z) is type(x) and z.is_zero() and z == x._like({})
