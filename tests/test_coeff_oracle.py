"""Property tests of the coefficient field against an independent oracle.

``RationalFunction`` stores a Laurent polynomial over the rationals, with
``int`` coefficients where they are integral and ``Fraction`` ones
elsewhere; ``__mul__`` short-circuits unit operands, a quotient by a single
term is a Laurent polynomial again, and ``Element.add_scaled`` accumulates in
place.  Products, sums and quotients are checked against SymPy's ``cancel``,
the constructor against the same terms built by arithmetic, the stored form
against the shape of SymPy's reduced fraction, a quotient by a single term
against the product that undoes it, and in-place accumulation against
``a + b.scale(c)``.  Both libraries are test-only
dependencies.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    CalculusType, Element, build_rule_table, local_confluence_check, mono)
from qsp.calculus import run_suite  # noqa: E402
from qsp.coeffs import PARAMS_II, NonMonomialDivisor, RationalFunction  # noqa: E402
from qsp.exprio import parse_element  # noqa: E402
from qsp.hopf import TensorElement, UElement  # noqa: E402

P = PARAMS_II
SQ, SR = sympy.symbols("q r")

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
nonzero = small.filter(bool)
exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
integers = st.integers(-4, 4).filter(bool)


@st.composite
def laurents(draw, coefficients=nonzero, min_size=1, max_size=4):
    """Laurent polynomials over PARAMS_II, negative exponents included."""
    return RationalFunction(P, draw(st.dictionaries(exponents, coefficients,
                                           min_size=min_size, max_size=max_size)))


@st.composite
def rational_functions(draw):
    """Zero, one, constants, monomials and Laurent polynomials over Q."""
    kind = draw(st.sampled_from(["zero", "one", "const", "monomial", "laurent"]))
    if kind == "zero":
        return P.zero()
    if kind == "one":
        return P.one()
    if kind == "const":
        return P.const(draw(nonzero))
    return draw(laurents(max_size=1 if kind == "monomial" else 4))


def sympy_poly(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * SQ**a * SR**b
                for (a, b), c in p.items()), sympy.Integer(0))


def to_sympy(rf):
    return sympy_poly(rf.lp)


def canonical_from_sympy(expr):
    """(num, den) as engine-style dicts, denominator monic in grlex order."""
    n, d = sympy.fraction(sympy.cancel(expr))
    lc = sympy.Poly(d, SQ, SR).LC(order="grlex")
    pn, pd = (sympy.Poly(e / lc, SQ, SR, domain="QQ") for e in (n, d))

    def as_dict(p):
        return {m: Fraction(int(c.p), int(c.q)) for m, c in p.as_dict().items() if c}
    return as_dict(pn), as_dict(pd)


def assert_canonical(rf, expr):
    """``rf`` is the reduced fraction SymPy gives for ``expr``, whose
    denominator is a single term; each coefficient is stored as an ``int``
    exactly when it is integral, and ``integral`` says whether all are; and
    rebuilding the value from its terms, each as a ``Fraction``, gives the
    same value."""
    num, den = canonical_from_sympy(expr)
    assert rf.fraction() == (num, den)
    assert len(den) == 1
    for c in rf.lp.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), rf.lp
    assert rf.integral == all(type(c) is int for c in rf.lp.values())
    rebuilt = RationalFunction(P, {m: Fraction(c) for m, c in rf.lp.items()})
    assert rebuilt == rf and hash(rebuilt) == hash(rf)
    assert rebuilt.lp == rf.lp and rebuilt.integral == rf.integral


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(exponents, st.one_of(small, st.integers(-4, 4)), max_size=5))
def test_constructor_matches_term_arithmetic(terms):
    # zero coefficients, integral Fractions and negative exponents are drawn
    snapshot = [(m, type(c), c) for m, c in terms.items()]
    rf = RationalFunction(P, terms)
    want = P.zero()
    for (i, j), c in terms.items():
        want = want + P.const(c) * P.var("q") ** i * P.var("r") ** j
    assert rf == want and hash(rf) == hash(want) and rf.lp == want.lp
    assert 0 not in rf.lp.values()
    for c in rf.lp.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), rf.lp
    assert rf.integral == all(Fraction(c).denominator == 1 for c in terms.values())
    # the caller's dict is copied: neither changed nor shared
    assert [(m, type(c), c) for m, c in terms.items()] == snapshot
    terms.clear()
    terms[0, 0] = 5
    assert rf == want and rf.lp == want.lp


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_product_matches_sympy_cancel(a, b):
    got = a * b
    assert_canonical(got, to_sympy(a) * to_sympy(b))
    assert b * a == got


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_sum_matches_sympy_together(a, b):
    got = a + b
    assert_canonical(got, sympy.together(to_sympy(a) + to_sympy(b)))
    assert b + a == got


@settings(max_examples=200, deadline=None)
@given(laurents(), exponents, nonzero)
def test_single_term_division_matches_sympy_div(a, m, c):
    # a quotient by c*q^i*r^j is the Laurent polynomial SymPy cancels to
    b = RationalFunction(P, {m: c})
    got = a / b
    assert_canonical(got, sympy.cancel(to_sympy(a) / to_sympy(b)))
    assert got * b == a


divisor_coefficients = st.one_of(st.sampled_from([1, -1]), integers, nonzero)


@settings(max_examples=200, deadline=None)
@given(laurents(st.one_of(integers, nonzero)), exponents, divisor_coefficients)
def test_single_term_division_is_exact_and_canonical(a, m, c):
    # each term is divided on its own; the quotient keeps an int where it is
    # exact, keeps no integral Fraction, and says whether it is integral
    b = RationalFunction(P, {m: c})
    got = a / b
    assert got * b == a
    assert 0 not in got.lp.values()
    for v in got.lp.values():
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), got.lp
    assert got.integral == all(type(v) is int for v in got.lp.values())
    assert got == RationalFunction(P, {e: Fraction(v) for e, v in got.lp.items()})


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
# The int / Fraction boundary
# ----------------------------------------------------------------------------

@st.composite
def boundary_values(draw):
    """Integral Laurent values, integral ones scaled by a non-integral
    literal like 1/3, and values with non-integral coefficients."""
    kind = draw(st.sampled_from(["integral", "literal", "rational"]))
    if kind == "integral":
        return draw(laurents(integers))
    if kind == "literal":
        return draw(laurents(integers)) * P.const(draw(small.filter(lambda c: c.denominator > 1)))
    return draw(laurents(small.filter(lambda c: c.denominator > 1)))


@settings(max_examples=100, deadline=None)
@given(laurents(integers, min_size=0), laurents(integers, min_size=0))
def test_laurent_arithmetic_matches_sympy(a, b):
    # the int dict loops: negative exponents, cancellation to zero
    assert a.integral and b.integral
    assert_canonical(a * b, to_sympy(a) * to_sympy(b))
    assert_canonical(a + b, sympy.together(to_sympy(a) + to_sympy(b)))
    assert_canonical(a - b, sympy.together(to_sympy(a) - to_sympy(b)))
    assert (a - a).is_zero() and (a - a).lp == {}


@settings(max_examples=60, deadline=None)
@given(boundary_values(), boundary_values())
def test_mixed_forms_match_sympy(a, b):
    # integral x rational, literal x integral, rational + rational, both orders
    assert_canonical(a * b, to_sympy(a) * to_sympy(b))
    assert_canonical(b * a, to_sympy(a) * to_sympy(b))
    assert_canonical(a + b, sympy.together(to_sympy(a) + to_sympy(b)))


@settings(max_examples=100, deadline=None)
@given(boundary_values(), laurents(st.one_of(integers, nonzero), max_size=3),
       st.integers(1, 3))
def test_laurent_quotient_matches_sympy(a, b, k):
    # a single-term divisor and its negative powers stay Laurent; a divisor
    # of more than one term is an input error, and so are its negative powers
    if len(b.lp) == 1:
        assert_canonical(a / b, sympy.cancel(to_sympy(a) / to_sympy(b)))
        assert_canonical((a * b) / b, to_sympy(a))
        assert_canonical(b ** -k, sympy.cancel(to_sympy(b) ** -k))
        assert (a * b ** k) * b ** -k == a
    else:
        with pytest.raises(NonMonomialDivisor):
            a / b
        with pytest.raises(NonMonomialDivisor):
            b ** -k


@settings(max_examples=80, deadline=None)
@given(laurents(integers, min_size=0), boundary_values())
def test_sum_cancelling_the_denominator_is_laurent(a, g):
    # (a + g) - g cancels every non-integral coefficient: back to ints
    s = a + g
    assert_canonical(s, sympy.together(to_sympy(a) + to_sympy(g)))
    back = s - g
    assert back == a and hash(back) == hash(a)
    assert back.integral and all(type(c) is int for c in back.lp.values())


@pytest.mark.parametrize("n,d", [(1, 3), (-2, 3), (5, 2), (7, 12)])
def test_fraction_literals_promote_and_demote(n, d):
    c = P.const(Fraction(n, d))
    assert not c.integral
    assert_canonical(c, sympy.Rational(n, d))
    assert_canonical(c * P.const(d), sympy.Integer(n))
    rt = build_rule_table(CalculusType.type_ii())
    e = parse_element(rt, f"{n}/{d}*r^-1*x")
    (coeff,) = e.terms.values()
    assert_canonical(coeff, sympy.Rational(n, d) / SR)
    (coeff,) = e.scale(P.const(d) * P.var("r")).terms.values()
    assert coeff.lp == {(0, 0): n} and type(coeff.lp[0, 0]) is int


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_memoized_coefficients_are_laurent(name):
    # every coefficient normal ordering memoizes is an integer Laurent
    # polynomial, stored with int coefficients: an integral value held as a
    # Fraction would leave the int fast path
    rt = build_rule_table(CalculusType.by_name(name))
    assert local_confluence_check(rt, 3).ok
    assert run_suite(rt, bound=6)
    pool = list(rt._pool)
    assert len(pool) > 20
    for c in pool:
        assert c.integral, c
        assert all(type(v) is int for v in c.lp.values()), c.lp


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
