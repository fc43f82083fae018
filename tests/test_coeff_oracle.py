"""Property tests of the coefficient field against an independent oracle.

``RationalFunction`` stores a Laurent polynomial over the rationals, with
``int`` coefficients where they are whole and ``Fraction`` ones elsewhere
(``assert_stored_form`` reads this off the stored dict); ``__mul__``
short-circuits unit operands, a quotient by a single term is a Laurent
polynomial again, and ``Element.add_scaled`` accumulates in place.
Products, sums and quotients are checked in SymPy's field of rational
functions in q and r, each operand converted into it once; a product of two
single terms also against the general dict loop, the constructor against the
same terms built by arithmetic, the stored form against the shape of SymPy's
reduced fraction, a quotient by a single term against the product that
undoes it, and in-place accumulation against ``a + b.scale(c)``.  Both
libraries are test-only dependencies.

The packed exponent keys are checked against plain loops over exponent
tuples (``tuple_product`` below is the reference product), over one, two
and five parameters, with exponents at and next to both ends of the stored
range: a result inside the range must equal the loop's, and one with an
exponent outside it must raise ``ResultTooLarge``, never alias another key.
"""

from fractions import Fraction
from operator import add, sub

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    CalculusType, Element, build_rule_table, local_confluence_check, mono)
from qsp.calculus import run_suite  # noqa: E402
from qsp.coeffs import (  # noqa: E402
    EXPONENT_LIMIT, PARAMS_I, PARAMS_II, NonMonomialDivisor, ParamSet, RationalFunction,
    ResultTooLarge)
from qsp.exprio import parse_element  # noqa: E402
from qsp.hopf import TensorElement, UElement  # noqa: E402

P = PARAMS_II
# the oracle's field: its elements are reduced fractions of polynomials in
# (q, r) over QQ, and LC reads the leading coefficient in grlex order
FIELD, _, FR = sympy.field("q,r", sympy.QQ, sympy.polys.orderings.grlex)

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


def tuple_product(a, b):
    """The product of two {exponent tuple: rational} dicts by the plain
    dict loop, each term product a tuple sum: the reference for the packed
    products."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def to_field(rf):
    """``rf`` as an element of FIELD: its terms over the single term that
    clears its negative exponents."""
    ring, lp = FIELD.ring, rf.lp
    low = [min(0, *e) for e in zip(*lp)] if lp else [0, 0]
    return FIELD.new(ring({tuple(map(sub, m, low)): c for m, c in lp.items()}),
                     ring({tuple(-e for e in low): 1}))


def canonical_from_field(f):
    """(num, den) as engine-style dicts, denominator monic in grlex order."""
    lc = f.denom.LC

    def as_dict(p):
        return {m: Fraction(int(c.numerator), int(c.denominator))
                for m, c in p.quo_ground(lc).items() if c}
    return as_dict(f.numer), as_dict(f.denom)


def assert_stored_form(rf):
    """``rf.packed`` is in its one stored form: each coefficient is an
    ``int`` or a ``Fraction`` whose denominator is not 1, none is zero, and
    no key has a guard bit set (no exponent outside the stored range)."""
    for k, c in rf.packed.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), rf.packed
        assert c != 0, rf.packed
        assert not k & rf.params._guard, rf.packed


def assert_canonical(rf, f):
    """``rf`` is the reduced fraction ``f`` of FIELD, whose
    denominator is a single term; each coefficient is stored as an ``int``
    exactly when it is whole; and rebuilding the value from its terms, each
    as a ``Fraction``, gives the same value in the same stored form."""
    num, den = canonical_from_field(f)
    assert rf.fraction() == (num, den)
    assert len(den) == 1
    for c in rf.lp.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), rf.lp
    assert_stored_form(rf)
    rebuilt = RationalFunction(P, {m: Fraction(c) for m, c in rf.lp.items()})
    assert rebuilt == rf and hash(rebuilt) == hash(rf)
    assert rebuilt.lp == rf.lp
    assert_stored_form(rebuilt)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(exponents, st.one_of(small, st.integers(-4, 4)), max_size=5))
def test_constructor_matches_term_arithmetic(terms):
    # zero coefficients, whole Fractions and negative exponents are drawn
    snapshot = [(m, type(c), c) for m, c in terms.items()]
    rf = RationalFunction(P, terms)
    want = P.zero()
    for (i, j), c in terms.items():
        want = want + P.const(c) * P.var("q") ** i * P.var("r") ** j
    assert rf == want and hash(rf) == hash(want) and rf.lp == want.lp
    assert 0 not in rf.lp.values()
    for c in rf.lp.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), rf.lp
    assert_stored_form(rf)
    assert (all(type(c) is int for c in rf.packed.values())
            == all(Fraction(c).denominator == 1 for c in terms.values()))
    # the caller's dict is copied: neither changed nor shared
    assert [(m, type(c), c) for m, c in terms.items()] == snapshot
    terms.clear()
    terms[0, 0] = 5
    assert rf == want and rf.lp == want.lp


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_product_matches_sympy_cancel(a, b):
    got = a * b
    assert_canonical(got, to_field(a) * to_field(b))
    assert b * a == got


@settings(max_examples=200, deadline=None)
@given(rational_functions(), rational_functions())
def test_sum_matches_sympy_together(a, b):
    got = a + b
    assert_canonical(got, to_field(a) + to_field(b))
    assert b + a == got


@settings(max_examples=200, deadline=None)
@given(laurents(), exponents, nonzero)
def test_single_term_division_matches_sympy_div(a, m, c):
    # a quotient by c*q^i*r^j is the Laurent polynomial SymPy cancels to
    b = RationalFunction(P, {m: c})
    got = a / b
    assert_canonical(got, to_field(a) / to_field(b))
    assert got * b == a


divisor_coefficients = st.one_of(st.sampled_from([1, -1]), integers, nonzero)


@settings(max_examples=200, deadline=None)
@given(laurents(st.one_of(integers, nonzero)), exponents, divisor_coefficients)
def test_single_term_division_is_exact_and_canonical(a, m, c):
    # each term is divided on its own; the quotient keeps an int where it is
    # exact and keeps no Fraction of denominator 1
    b = RationalFunction(P, {m: c})
    got = a / b
    assert got * b == a
    assert 0 not in got.lp.values()
    for v in got.lp.values():
        assert type(v) is (int if Fraction(v).denominator == 1 else Fraction), got.lp
    assert_stored_form(got)
    assert got == RationalFunction(P, {e: Fraction(v) for e, v in got.lp.items()})


@settings(max_examples=100, deadline=None)
@given(rational_functions())
def test_unit_product_is_the_operand(a):
    one = P.one()
    assert a * one == a == one * a
    if not a.is_zero() and not a.is_one():
        assert a * one is a and one * a is a


@settings(max_examples=100, deadline=None)
@given(laurents(max_size=1), laurents(), exponents, nonzero, nonzero)
def test_every_value_equal_to_one_is_the_shared_one(a, b, m, u, w):
    # whichever way a value equal to 1 is built, it is P.one() itself, so the
    # engine's unit skips (``c is one``) see every unit
    one = P.one()
    i, j = m
    t = RationalFunction(P, {m: 1 / (u ** i * w ** j)})
    at_u = t.substitute({"q": u, "r": w})
    for unit in (a * (one / a), (one / a) * a, (b + one) - b, -(-one),
                 RationalFunction(P, {P.origin: Fraction(3, 3)}), P.const(Fraction(2, 2)), at_u):
        assert unit is one, unit
    # Q = r at type II, substituted and projected by specialize
    ct = CalculusType.type_ii().specialize({"r": 1})
    assert ct.Q is ct.params.one() and at_u.project(ct.params) is ct.params.one()


@st.composite
def single_term_pairs(draw):
    """Two single terms, negative exponents included; about half the time
    their coefficients multiply to an integer, often from two Fractions."""
    ca, cb = draw(st.one_of(integers, nonzero)), draw(st.one_of(integers, nonzero))
    if draw(st.booleans()):
        cb = Fraction(draw(integers), ca)
    return (RationalFunction(P, {draw(exponents): ca}),
            RationalFunction(P, {draw(exponents): cb}))


@settings(max_examples=200, deadline=None)
@given(single_term_pairs())
def test_single_term_product_matches_the_dict_loop(pair):
    a, b = pair
    got = a * b
    want = RationalFunction(P, tuple_product(a.lp, b.lp))
    assert got == want and got.lp == want.lp
    assert_stored_form(got)
    assert_canonical(got, to_field(a) * to_field(b))
    one = P.one()
    for x in (a, b):
        if not x.is_one():
            assert x * one is x and one * x is x
    # an equal value reached by the constructor and by a sum hashes equally
    ((m, c),) = got.lp.items()
    half = RationalFunction(P, {m: Fraction(c) / 2})
    for same in (RationalFunction(P, {m: Fraction(c)}), half + half, b * a):
        assert same == got and hash(same) == hash(got)
        assert same.lp == got.lp
        assert_stored_form(same)


def test_single_term_product_demotes_an_integral_fraction():
    # 1/2*q times 2*q^-1 is the unit, stored as the int 1
    a = RationalFunction(P, {(1, 0): Fraction(1, 2)})
    b = RationalFunction(P, {(-1, 0): 2})
    for got in (a * b, b * a):
        assert got.lp == {(0, 0): 1} and type(got.lp[0, 0]) is int
        assert_stored_form(got)
        assert got.is_one() and got == P.one()
        assert hash(got) == hash(P.one())
    got = RationalFunction(P, {(2, -1): Fraction(2, 3)}) * RationalFunction(P, {(0, 3): Fraction(-3, 2)})
    assert got.lp == {(2, 2): -1} and type(got.lp[2, 2]) is int
    assert_stored_form(got)


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
    for x in (a, b):
        assert_stored_form(x)
        assert all(type(c) is int for c in x.packed.values())
    fa, fb = to_field(a), to_field(b)
    assert_canonical(a * b, fa * fb)
    assert_canonical(a + b, fa + fb)
    assert_canonical(a - b, fa - fb)
    assert (a - a).is_zero() and (a - a).lp == {}


@settings(max_examples=60, deadline=None)
@given(boundary_values(), boundary_values())
def test_mixed_forms_match_sympy(a, b):
    # integral x rational, literal x integral, rational + rational, both orders
    fa, fb = to_field(a), to_field(b)
    assert_canonical(a * b, fa * fb)
    assert_canonical(b * a, fa * fb)
    assert_canonical(a + b, fa + fb)


@settings(max_examples=100, deadline=None)
@given(boundary_values(), laurents(st.one_of(integers, nonzero), max_size=3),
       st.integers(1, 3))
def test_laurent_quotient_matches_sympy(a, b, k):
    # a single-term divisor and its negative powers stay Laurent; a divisor
    # of more than one term is an input error, and so are its negative powers
    if len(b.lp) == 1:
        fa, fb = to_field(a), to_field(b)
        assert_canonical(a / b, fa / fb)
        assert_canonical((a * b) / b, fa)
        assert_canonical(b ** -k, fb ** -k)
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
    assert_canonical(s, to_field(a) + to_field(g))
    back = s - g
    assert back == a and hash(back) == hash(a)
    assert_stored_form(back)
    assert all(type(c) is int for c in back.lp.values())


@pytest.mark.parametrize("n,d", [(1, 3), (-2, 3), (5, 2), (7, 12)])
def test_fraction_literals_promote_and_demote(n, d):
    c = P.const(Fraction(n, d))
    assert_stored_form(c)
    assert type(c.packed[P._origin]) is Fraction
    assert_canonical(c, FIELD(Fraction(n, d)))
    assert_canonical(c * P.const(d), FIELD(n))
    rt = build_rule_table(CalculusType.type_ii())
    e = parse_element(rt, f"{n}/{d}*r^-1*x")
    (coeff,) = e.terms.values()
    assert_canonical(coeff, FIELD(Fraction(n, d)) / FR)
    (coeff,) = e.scale(P.const(d) * P.var("r")).terms.values()
    assert coeff.lp == {(0, 0): n} and type(coeff.lp[0, 0]) is int


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_memoized_coefficients_are_laurent(name):
    # every coefficient normal ordering memoizes is an integer Laurent
    # polynomial, stored with int coefficients: an integral value held as a
    # Fraction would leave the int fast path.  With the catalog, the length-3
    # audit leaves only 14 distinct coefficients at type I, the length-4 one 37
    rt = build_rule_table(CalculusType.by_name(name))
    assert not local_confluence_check(rt, 4).violations
    assert run_suite(rt)
    held = {c for memo in (rt._memo, rt._act_memo)
            for e in memo.values() for c in e.terms.values()}
    assert len(held) > 20
    for c in held:
        assert_stored_form(c)
        assert all(type(v) is int for v in c.lp.values()), c.lp


# ----------------------------------------------------------------------------
# Subtraction: the same value as adding the negation
# ----------------------------------------------------------------------------

TENSOR_KEYS = [(mono(), mono()), (mono(x=1), mono(th=1)), (mono(x=-1), mono()),
               (mono(dx=1), mono(x=2))]
U_KEYS = [(0, 0, 0), (1, 0, 0), (0, -1, 1), (2, 1, 0)]
SPACES = {"element": (MONOS, lambda t: Element(P, t)),
          "tensor": (TENSOR_KEYS, lambda t: TensorElement(P, t)),
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
    assert d.params is x.params
    assert not any(v.is_zero() for v in d.terms.values())
    assert not any(x.terms.get(m) == c and m in d.terms for m, c in y.terms.items())
    assert x.terms == x_before and y.terms == y_before
    z = x - x
    assert type(z) is type(x) and z.is_zero() and z == x._like({})


# ----------------------------------------------------------------------------
# Packed exponent keys: the edges of the stored range
# ----------------------------------------------------------------------------

L = EXPONENT_LIMIT
PACKED_PARAMS = (PARAMS_I, PARAMS_II, ParamSet("five", ("a", "b", "c", "d", "e")))
# stored exponents: small ones, and ones at and next to both ends of the range
edge_exponents = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                           st.sampled_from([-L, -L + 1, -L + 2, L - 3, L - 2, L - 1,
                                            L // 2, -(L // 2)]))


def in_range(e):
    return -L <= e < L


@st.composite
def packed_pairs(draw):
    """A parameter set of 1, 2 or 5 variables and two term dicts over it;
    half the time the second is the first with some of its terms negated
    and others dropped, so that terms of their product and sum cancel."""
    P = draw(st.sampled_from(PACKED_PARAMS))
    terms = st.dictionaries(st.tuples(*[edge_exponents] * P.nvars),
                            st.one_of(integers, nonzero), min_size=1, max_size=4)
    ta = draw(terms)
    if draw(st.booleans()):
        flips = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=len(ta), max_size=len(ta)))
        tb = {m: f * c for (m, c), f in zip(ta.items(), flips) if f} or dict(ta)
    else:
        tb = draw(terms)
    return P, ta, tb


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
def test_packed_keys_match_the_tuple_loops(case):
    P, ta, tb = case
    a, b = RationalFunction(P, ta), RationalFunction(P, tb)
    assert a.lp == ta and b.lp == tb
    assert (a + b).lp == RationalFunction(P, {**ta, **{m: ta.get(m, 0) + c
                                                      for m, c in tb.items()}}).lp
    assert (a - b).lp == RationalFunction(P, {**ta, **{m: ta.get(m, 0) - c
                                                      for m, c in tb.items()}}).lp
    assert (a - a).is_zero() and (a + -a).lp == {}
    # the product raises exactly when some pair of terms has an exponent sum
    # outside the range, even where that term would cancel
    if all(in_range(x + y) for ma in ta for mb in tb for x, y in zip(ma, mb)):
        want = tuple_product(ta, tb)
        got = a * b
        assert got.lp == want and b * a == got
        assert got == RationalFunction(P, want) and hash(got) == hash(RationalFunction(P, want))
    else:
        with pytest.raises(ResultTooLarge):
            a * b
        with pytest.raises(ResultTooLarge):
            b * a
    # a quotient by one term of b subtracts its exponents from every term
    (mb, cb), = list(tb.items())[:1]
    if all(in_range(x - y) for ma in ta for x, y in zip(ma, mb)):
        want = {tuple(map(sub, m, mb)): Fraction(c) / cb for m, c in ta.items()}
        assert (a / RationalFunction(P, {mb: cb})).lp == want
    else:
        with pytest.raises(ResultTooLarge):
            a / RationalFunction(P, {mb: cb})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PACKED_PARAMS), st.data())
def test_an_exponent_outside_the_range_is_never_stored(P, data):
    # the constructor checks every exponent: one past either end is too large
    i = data.draw(st.integers(0, P.nvars - 1))
    bad = data.draw(st.sampled_from([L, L + 1, 2 * L, 2 ** 64, -L - 1, -2 ** 64, 10 ** 30]))
    m = tuple(bad if j == i else data.draw(edge_exponents) for j in range(P.nvars))
    with pytest.raises(ResultTooLarge):
        RationalFunction(P, {m: 1})
    with pytest.raises(ValueError):
        RationalFunction(P, {m[:-1] + (0, 0): 1})
    # powers reach both ends of the range and no further
    v = P.var(P.variables[i])
    assert (v ** (L - 1)).lp == {tuple(L - 1 if j == i else 0 for j in range(P.nvars)): 1}
    assert (v ** -L).lp == {tuple(-L if j == i else 0 for j in range(P.nvars)): 1}
    for n in (L, -L - 1, 2 ** 64):
        with pytest.raises(ResultTooLarge):
            v ** n
    with pytest.raises(ResultTooLarge):
        (v ** (L - 1) + P.one()) * v
    with pytest.raises(ResultTooLarge):
        (v ** -L - P.one()) / v
