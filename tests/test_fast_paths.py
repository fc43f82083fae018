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
- ``Element.is_form_sector`` slices the operator letters off each
  monomial: it must agree with ``mono_is_form``.
"""

import operator
import re
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from qsp.algebra import (D, GENS, NGENS, CalculusType, Element, build_rule_table,  # noqa: E402
                         mono_is_form)
from qsp.coeffs import PARAMS_I, PARAMS_II, PARAMS_III, _rational  # noqa: E402
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
    got = P.const(v)
    if v == 0:
        assert got is P.zero()
        return
    want = _rational(P, {P._origin: Fraction(v)})
    assert got == want and got.lp == want.lp and got.integral is want.integral
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


# operator-sector exponents are mostly 0, so that both answers occur often
MONOMIALS = st.tuples(*[st.integers(-2, 2)] * D,
                      *[st.sampled_from((0, 0, 0, 0, 1, 2))] * (NGENS - D))


@PROPERTY
@given(st.lists(MONOMIALS, max_size=4))
def test_is_form_sector_matches_mono_is_form(monomials):
    P = PARAMS_II
    e = Element(P, {m: P.one() for m in monomials})
    assert e.is_form_sector() == all(mono_is_form(m) for m in e.terms)
