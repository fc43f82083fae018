"""Property tests of the fast paths of the expression reader and of the
element and coefficient constructors, each against the plain code it
stands in for, which the tests keep as their oracle.

- ``tokenize`` makes one ``finditer`` pass and reads integer literals as
  ``int``: its tokens, errors and error positions must be those of a match
  loop that reads every literal as a ``Fraction``.
- ``ParamSet.const`` builds an ``int`` value directly: it must equal the
  value built through ``Fraction`` and keep the shared one and zero.
- ``Element.__sub__`` answers equal operands with a zero: it must agree
  with the term-by-term loop, for plain, tensor and dual-sector elements;
  it and ``+`` raise TypeError on an operand of another kind and ValueError
  on one over another parameter set.
- ``Element.is_form_sector`` shifts the operator fields out of each
  monomial: it must agree with ``mono_is_form``.
- A monomial is one int, a biased field per generator: ``mono`` and its
  decoder, the in-order product, the first and last generator, the split at
  a generator and the predicates must agree with the same operations on
  exponent tuples, and an exponent past ``MONO_EXPONENT_LIMIT`` must raise
  ``ResultTooLarge``, never alias another monomial.
"""

import operator
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    D, DTH, DX, GENS, ITH, IX, MONO_EXPONENT_LIMIT, NGENS, NILPOTENT, PTH, PX, TH, X,
    CalculusType, Element, _first_gen, _head_tail, _last_gen, build_rule_table, mono,
    mono_exp, mono_exps, mono_is_form, mono_is_function, mono_parity, mono_sort_key,
    mono_str)
from qsp.coeffs import PARAMS_I, PARAMS_II, PARAMS_III, ResultTooLarge, _rational  # noqa: E402
from qsp.exprio import ExprSyntaxError, tokenize  # noqa: E402
from qsp.hopf import UElement, coproduct_A  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


# ----------------------------------------------------------------------------
# tokenize
# ----------------------------------------------------------------------------

_MATCH_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z][A-Za-z0-9]*)|([-+*/^()]))")


def match_loop_tokenize(text: str):
    """The tokenizer as a match loop from each position, every literal a
    Fraction."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _MATCH_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())
                raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
            break
        number, name, op = m.groups()
        at = m.start(1) if number else (m.start(2) if name else m.start(3))
        if number:
            try:
                value = Fraction(number)
            except ZeroDivisionError:
                raise ExprSyntaxError("zero denominator in rational literal", at) from None
            except ValueError:
                raise ExprSyntaxError("rational literal has too many digits", at) from None
            tokens.append(("num", value, at))
        elif name:
            tokens.append(("name", name, at))
        else:
            tokens.append(("op", op, at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def outcome(tokenizer, text):
    try:
        return tokenizer(text)
    except ExprSyntaxError as exc:
        return ("error", str(exc), exc.position)


# the grammar's characters, blanks (Unicode ones too) and junk, among it a
# non-ASCII digit that reads as a number and a superscript that does not
GRAMMAR = "0123456789/xthdpiQKNbT+-*^()"
BLANKS = " \t\n \x1c"
JUNK = "!.=_#,é٣²"


@PROPERTY
@given(st.text(alphabet=GRAMMAR + BLANKS + JUNK, max_size=30))
@example("1" * 5000 + "*x")
@example("x + 2/" + "3" * 5000)
@example("3/0*x")
@example("  ")
@example("")
def test_tokenize_matches_match_loop(text):
    got = outcome(tokenize, text)
    assert got == outcome(match_loop_tokenize, text)
    if isinstance(got, list):
        for kind, value, at in got:
            if kind == "num":
                literal = re.match(r"\d+(?:/\d+)?", text[at:]).group()
                assert type(value) is (Fraction if "/" in literal else int)


# ----------------------------------------------------------------------------
# ParamSet.const
# ----------------------------------------------------------------------------

PARAM_SETS = (PARAMS_I, PARAMS_II, PARAMS_III,
              CalculusType.type_ii().specialize({"r": 1}).params)
INTS = st.one_of(st.sampled_from((0, 1, -1)), st.integers(),
                 st.integers(min_value=2 ** 100), st.integers(max_value=-2 ** 100))


def test_const_keeps_the_shared_one_and_zero():
    for P in PARAM_SETS:
        assert P.const(1) is P.one() and P.const(Fraction(1)) is P.one()
        assert P.const(0) is P.zero() and P.const(Fraction(0)) is P.zero()


@PROPERTY
@given(P=st.sampled_from(PARAM_SETS), v=INTS)
def test_const_of_int_matches_fraction_path(P, v):
    from test_coeff_oracle import assert_stored_form
    got = P.const(v)
    if v == 0:
        assert got is P.zero()
        return
    want = _rational(P, {P._origin: Fraction(v)})
    assert got == want and got.lp == want.lp
    assert_stored_form(got)
    assert_stored_form(want)
    assert hash(got) == hash(want) and type(got.packed[P._origin]) is int
    assert (got is P.one()) == (v == 1)


# ----------------------------------------------------------------------------
# Element.__sub__ and Element.is_form_sector
# ----------------------------------------------------------------------------

def loop_sub(a: Element, b: Element) -> Element:
    """a - b term by term, in a's type and parameter set."""
    terms = dict(a.terms)
    for m, v in b.terms.items():
        old = terms.get(m)
        if old is None:
            terms[m] = -v
            continue
        v = old - v
        if v.is_zero():
            del terms[m]
        else:
            terms[m] = v
    return a._like(terms)


@pytest.fixture(scope="module")
def tables():
    return {name: build_rule_table(CalculusType.by_name(name)) for name in ("I", "II", "III")}


LETTERS = [(g, 1) for g in GENS] + [("x", -1), ("x", 2)]
COORDINATES = [("x", 1), ("x", -1), ("th", 1)]


@st.composite
def element_of(draw, rt, kind):
    """A sum of up to three scaled words of one kind: plain words, the
    coproducts of coordinate words, or dual-sector words in T, K and Nb."""
    P = rt.params
    out = None
    for _ in range(draw(st.integers(1, 3))):
        c = draw(st.sampled_from((1, -1, 2, Fraction(1, 3))))
        if kind == "element":
            e = rt.normalize_word(draw(st.lists(st.sampled_from(LETTERS), max_size=3)))
        elif kind == "tensor":
            e = coproduct_A(rt, rt.normalize_word(
                draw(st.lists(st.sampled_from(COORDINATES), max_size=3))))
        else:
            e = UElement.gen_T(P, draw(st.integers(-2, 2))).mul(
                UElement.gen_K(P, draw(st.integers(-2, 2))))
            if draw(st.booleans()):
                e = e.mul(UElement.gen_nabla(P))
        e = e.scale(c)
        out = e if out is None else out + e
    return out


def zero_like(e: Element) -> Element:
    return e._like({})


@PROPERTY
@given(data=st.data(), name=st.sampled_from(("I", "II", "III")),
       kind=st.sampled_from(("element", "tensor", "u")),
       how=st.sampled_from(("same", "copy", "scaled", "negated", "other", "zero",
                            "other kind", "zero of other type", "other params",
                            "zero of other params")),
       from_zero=st.booleans())
def test_sub_matches_term_loop(tables, data, name, kind, how, from_zero):
    rt = tables[name]
    a = data.draw(element_of(rt, kind))
    if from_zero:
        a = zero_like(a)
    other_kind = "tensor" if kind == "element" else "element"
    other_params = tables["III" if name != "III" else "II"]
    b = {"same": lambda: a,
         "copy": lambda: a._like(dict(a.terms)),
         "scaled": lambda: a.scale(2),
         "negated": lambda: -a,
         "other": lambda: data.draw(element_of(rt, kind)),
         "zero": lambda: zero_like(a),
         "other kind": lambda: data.draw(element_of(rt, other_kind)),
         "zero of other type": lambda: zero_like(data.draw(element_of(rt, other_kind))),
         "other params": lambda: data.draw(element_of(other_params, kind).filter(
             lambda e: not e.is_zero())),
         "zero of other params": lambda: zero_like(data.draw(element_of(other_params, kind))),
         }[how]()
    before = (dict(a.terms), dict(b.terms))
    mismatch = (TypeError if type(b) is not type(a)
                else ValueError if b.params is not a.params else None)
    if mismatch:
        for op in (operator.sub, operator.add):
            with pytest.raises(mismatch):
                op(a, b)
        assert (dict(a.terms), dict(b.terms)) == before
        return
    got = a - b
    want = loop_sub(a, b)
    assert got == want and type(got) is type(a) and got.params is a.params
    assert got is not a and got.terms is not a.terms
    assert (dict(a.terms), dict(b.terms)) == before
    if how in ("same", "copy"):
        assert got.is_zero()


# ----------------------------------------------------------------------------
# Packed monomials, with exponent tuples as the oracle
# ----------------------------------------------------------------------------

L = MONO_EXPONENT_LIMIT
# d, the partial derivatives and the inner derivations
OPERATOR_SECTOR = frozenset({D, PX, PTH, IX, ITH})


def _exponents(g):
    """One generator's exponents: x over a wide signed range past both ends
    of the limit, d never, a nilpotent generator 0/1, the rest small or at
    the limit's edge; operator-sector exponents are mostly 0, so that both
    answers of the sector predicates occur often."""
    if g == X:
        return st.one_of(st.integers(-3, 3), st.integers(-2 * L, 2 * L),
                         st.sampled_from((-L - 1, -L, L - 1, L)))
    if g == D:
        return st.just(0)
    if g in NILPOTENT:
        return st.sampled_from((0, 0, 1) if g in OPERATOR_SECTOR else (0, 1))
    return st.sampled_from((0, 0, 0, 0, 1, 2, L - 1) if g in OPERATOR_SECTOR
                           else (0, 1, 2, 3, L - 1))


def in_range(exps):
    return all(-L <= e < L for e in exps)


def packed(exps):
    return mono(**{GENS[g]: e for g, e in enumerate(exps) if e})


EXPONENT_TUPLES = st.tuples(*[_exponents(g) for g in range(NGENS)])
MONOMIALS = EXPONENT_TUPLES.filter(in_range).map(packed)


@PROPERTY
@given(EXPONENT_TUPLES)
@example((0,) * NGENS)
@example((0, 0, L - 1, 0, 0, 0, 0, 0, 0))
@example((0, 0, -L, 0, 0, 0, 0, 0, 0))
@example((0, 0, L, 0, 0, 0, 0, 0, 0))
@example((0, 0, -L - 1, 0, 0, 0, 0, 0, 0))
@example((1, L - 1, -L, 1, 0, L - 1, 1, 1, L - 1))
def test_packed_monomial_matches_exponent_tuple(exps):
    if not in_range(exps):
        with pytest.raises(ResultTooLarge):
            packed(exps)
        return
    m = packed(exps)
    assert mono_exps(m) == exps
    assert [mono_exp(m, g) for g in range(NGENS)] == list(exps)
    used = [g for g, e in enumerate(exps) if e]
    assert _last_gen(m) == max(used, default=-1)
    assert _first_gen(m) == min(used, default=NGENS)
    for g in range(NGENS):
        head, tail = _head_tail(m, g)
        assert mono_exps(head) == exps[:g + 1] + (0,) * (NGENS - 1 - g)
        assert mono_exps(tail) == (0,) * (g + 1) + exps[g + 1:]
    assert mono_parity(m) == (exps[DX] + exps[TH] + exps[D] + exps[PTH] + exps[IX]) & 1
    assert mono_sort_key(m) == (sum(abs(e) for e in exps), tuple(-e for e in exps))
    assert mono_is_form(m) == (not any(exps[D:]))
    assert mono_is_function(m) == (not any(exps[g] for g in (DX, DTH, D, *OPERATOR_SECTOR)))
    assert mono_str(m) == ("*".join(GENS[g] if e == 1 else f"{GENS[g]}^{e}"
                                    for g, e in enumerate(exps) if e) or "1")


@PROPERTY
@given(a=EXPONENT_TUPLES.filter(in_range), b=EXPONENT_TUPLES.filter(in_range),
       g=st.integers(0, NGENS - 1))
@example(a=(0, 0, L - 1, 0, 0, 0, 0, 0, 0), b=(0, 0, 1, 0, 0, 0, 0, 0, 0), g=X)
@example(a=(0, 0, -L, 0, 0, 0, 0, 0, 0), b=(0, 0, -1, 0, 0, 0, 0, 0, 0), g=X)
@example(a=(0, L - 1, 0, 0, 0, 0, 0, 0, 0), b=(0, 2, 0, 0, 0, 0, 0, 0, 0), g=DTH)
@example(a=(0, 0, 0, 0, 0, 0, 0, 0, L - 1), b=(0, 0, 0, 0, 0, 0, 0, 0, L - 1), g=NGENS - 1)
def test_in_order_product_is_the_exponent_sum(tables, a, b, g):
    # m1 ends at or before g, m2 starts at or after g, so the product is in
    # order: the merged monomial, zero for a nilpotent g in both, or too large
    rt = tables["II"]
    a = a[:g + 1] + (0,) * (NGENS - 1 - g)
    b = (0,) * g + b[g:]
    want = tuple(x + y for x, y in zip(a, b))
    if g in NILPOTENT and a[g] and b[g]:
        assert rt.mul_mono_mono(packed(a), packed(b)).is_zero()
    elif in_range(want):
        e = rt.mul_mono_mono(packed(a), packed(b))
        assert [mono_exps(m) for m in e.terms] == [want]
        assert e.terms[packed(want)] is rt.params.one()
    else:
        with pytest.raises(ResultTooLarge):
            rt.mul_mono_mono(packed(a), packed(b))


@PROPERTY
@given(st.lists(MONOMIALS, max_size=4))
def test_is_form_sector_matches_mono_is_form(monomials):
    P = PARAMS_II
    e = Element(P, {m: P.one() for m in monomials})
    assert e.is_form_sector() == all(mono_is_form(m) for m in e.terms)
