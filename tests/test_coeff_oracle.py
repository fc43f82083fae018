"""Property tests of the coefficient fast paths against an independent oracle.

``RationalFunction.__mul__`` short-circuits unit operands and products of
polynomials, ``_poly_div_exact`` divides by a single-term divisor term by
term, and ``Element.add_scaled`` accumulates in place.  Products and sums are
checked against SymPy's ``cancel``, exact division against ``sympy.div``, and
in-place accumulation against ``a + b.scale(c)``.  Both libraries are
test-only dependencies.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qsp.algebra import Element, mono  # noqa: E402
from qsp.coeffs import PARAMS_II, _poly_div_exact, rf_make  # noqa: E402

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
