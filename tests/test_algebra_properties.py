"""Property tests of the memoized normal-ordering engine.

Products are memoized per (monomial, letter) and per monomial pair, and
powers of x are split in half when they pass a differential.  By the
diamond lemma a confluent rule system has unique normal forms, so none of
that may change an answer: multiplication stays associative, a table with a
warm memo agrees with a fresh one, and normalizing a normal form changes
nothing.  Words run over all nine generators plus powers x^k, 0 < |k| <= 40.

The exterior derivative d is expanded into dx*px + dth*pth where a word is
read, so a word with k letters d must normalize to the sum of the 2^k d-free
words that replace each d by dx, px or by dth, pth; those words never take
the expansion path, which makes them an independent oracle for it.

Substituting numbers for some of the parameters is a ring homomorphism of
the coefficients, and the specialized type's table is built from the
substituted structure coefficients alone.  So a word normalized on the
generic table, then substituted and projected onto the parameters left,
must be the word normalized on the specialized table: an oracle for
``RationalFunction.substitute`` and ``project`` that shares no code with
them.
"""

from fractions import Fraction
from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    GENS,
    CalculusType,
    Element,
    _flat_mul,
    _regrouped,
    build_rule_table,
    mono_exps,
)
from qsp.coeffs import EXPONENT_LIMIT, RationalFunction, ResultTooLarge  # noqa: E402
from test_algebra import substitute  # noqa: E402

TYPES = ("I", "II", "III")

letters = st.one_of(
    st.sampled_from([name for name in GENS if name != "x"]).map(lambda name: (name, 1)),
    st.tuples(st.integers(1, 40), st.sampled_from((1, -1))).map(
        lambda ks: ("x", ks[0] * ks[1])),
)
words = st.lists(letters, min_size=1, max_size=3)
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def warm():
    """One table per type whose memos fill up across every example."""
    return {name: build_rule_table(CalculusType.by_name(name)) for name in TYPES}


@PROPERTY
@given(name=st.sampled_from(TYPES), a=words, b=words, c=words)
def test_mul_is_associative(warm, name, a, b, c):
    rt = warm[name]
    ea, eb, ec = (rt.normalize_word(w) for w in (a, b, c))
    assert rt.mul(rt.mul(ea, eb), ec) == rt.mul(ea, rt.mul(eb, ec))


@PROPERTY
@given(name=st.sampled_from(TYPES), a=words, b=words)
def test_warm_table_agrees_with_fresh_table(warm, name, a, b):
    rt = warm[name]
    rt.normalize_word(b + a)   # fill the memos with neighbouring products first
    got = rt.mul(rt.normalize_word(a), rt.normalize_word(b))
    fresh = build_rule_table(CalculusType.by_name(name))
    assert got == fresh.mul(fresh.normalize_word(a), fresh.normalize_word(b))


@PROPERTY
@given(name=st.sampled_from(TYPES), w=st.lists(letters, min_size=1, max_size=6))
def test_normalize_is_idempotent(warm, name, w):
    rt = warm[name]
    e = rt.normalize_word(w)
    # each monomial of a normal form, read as a word, is its own normal form
    assert all(rt.word(*zip(GENS, mono_exps(m))) == Element.monomial(rt.params, m)
               for m in e.terms)


SPECIALIZED = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}
plain_letters = st.sampled_from([(name, 1) for name in GENS] + [("x", -1), ("x", 2)])
D_CHOICES = ([("dx", 1), ("px", 1)], [("dth", 1), ("pth", 1)])


@pytest.fixture(scope="module")
def specialized():
    tables = {}
    for key, (name, assignment) in SPECIALIZED.items():
        ct = CalculusType.by_name(name)
        tables[key] = build_rule_table(ct.specialize(assignment) if assignment else ct)
    return tables


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SPECIALIZED)),
       a=st.lists(plain_letters, max_size=3), b=st.lists(plain_letters, max_size=3))
def test_d_expands_into_its_realization(specialized, key, a, b):
    rt = specialized[key]
    word = a + [("d", 1)] + b
    want = Element.zero(rt.params)
    for pieces in product(*(D_CHOICES if item == ("d", 1) else ([item],) for item in word)):
        want = want + rt.normalize_word([letter for piece in pieces for letter in piece])
    assert rt.normalize_word(word) == want


SPECIALIZE_LETTERS = [("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1), ("px", 1),
                      ("pth", 1), ("ix", 1), ("ith", 1), ("d", 1)]
# values in Q without 0, 1 and -1 among them
parameter_values = st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                             st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))


@st.composite
def specializations(draw):
    """A type and values for a nonempty subset of its parameters: q, and r
    (type II) or p (type III)."""
    name = draw(st.sampled_from(TYPES))
    variables = CalculusType.by_name(name).params.variables
    chosen = draw(st.lists(st.sampled_from(variables), min_size=1, unique=True))
    return name, {v: draw(parameter_values) for v in chosen}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(spec=specializations(),
       ws=st.lists(st.lists(st.sampled_from(SPECIALIZE_LETTERS), min_size=1, max_size=6),
                   min_size=1, max_size=10))
def test_specialization_commutes_with_normal_ordering(warm, spec, ws):
    name, assignment = spec
    special = build_rule_table(CalculusType.by_name(name).specialize(assignment))
    P = special.params
    for w in ws:
        e = substitute(warm[name].normalize_word(w), assignment)
        got = Element(P, {m: c.project(P) for m, c in e.terms.items()})
        assert got == special.normalize_word(w), (w, assignment)


# The confluence audit multiplies flat elements, dicts (monomial, packed
# coefficient key) -> rational, by algebra._flat_mul.  Regrouped, its product
# must be rt.mul's, at the three families and at II r=1/2, whose rules carry
# Fraction coefficients, and it must raise ResultTooLarge where an exponent
# of the product leaves [-2^62, 2^62).
FLAT_TABLES = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1/2": ("II", {"r": Fraction(1, 2)})}
FLAT_LETTERS = SPECIALIZE_LETTERS + [("x", -3), ("x", 2)]
# a coefficient: up to three terms c*q^i*r^j, c a nonzero rational of either
# sign (only q's exponent is read where the type has one parameter)
coefficients = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                               st.sampled_from([Fraction(n, d) for n in range(-4, 5) if n
                                                for d in (1, 2, 3)]),
                               min_size=1, max_size=3)
summands = st.lists(st.tuples(st.lists(st.sampled_from(FLAT_LETTERS), max_size=3), coefficients),
                    min_size=1, max_size=3)
# None, or (field, side): the left factor is also moved to that edge of the
# range in that parameter's exponent, so that some products leave it
edges = st.one_of(st.none(), st.tuples(st.sampled_from((0, 1)), st.sampled_from((1, -1))))


@pytest.fixture(scope="module")
def flat_tables():
    tables = {}
    for key, (name, assignment) in FLAT_TABLES.items():
        ct = CalculusType.by_name(name)
        tables[key] = build_rule_table(ct.specialize(assignment) if assignment else ct)
    return tables


def drawn_element(rt, drawn):
    P = rt.params
    e = Element.zero(P)
    for word, terms in drawn:
        c = RationalFunction(P, {exps[:P.nvars]: v for exps, v in terms.items()})
        e = e + rt.normalize_word(word).scale(c)
    return e


def shifted(e, field, shift):
    """``e`` with the exponent of one parameter in each coefficient term
    moved by ``shift``."""
    P = e.params
    return Element(P, {m: RationalFunction(P, {
        tuple(x + shift * (i == field) for i, x in enumerate(exps)): c
        for exps, c in v.lp.items()}) for m, v in e.terms.items()})


def flat(e):
    return {(m, k): c for m, v in e.terms.items() for k, c in v.packed.items()}


def regrouped(P, f):
    rows = {}
    for (m, k), c in f.items():
        rows.setdefault(m, {})[P._unpack(k)] = c
    return Element(P, {m: RationalFunction(P, row) for m, row in rows.items()})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(FLAT_TABLES)), a=summands, b=summands, edge=edges)
def test_flat_product_is_the_element_product(flat_tables, key, a, b, edge):
    rt = flat_tables[key]
    P = rt.params
    ea, eb = drawn_element(rt, a), drawn_element(rt, b)
    want, got = rt.mul(ea, eb), _flat_mul(rt, flat(ea), flat(eb))
    assert regrouped(P, got) == want
    assert _regrouped(P, got) == want
    # d*d = 0: the products by d's realization cancel term by term
    d = flat(rt.d_element())
    assert _flat_mul(rt, _flat_mul(rt, got, d), d) == {}
    if edge is None or not ea.terms:
        return
    # the left factor's extreme exponent in one parameter moved to the edge
    field, side = edge[0] % P.nvars, edge[1]
    exps = [exps[field] for c in ea.terms.values() for exps in c.lp]
    shift = EXPONENT_LIMIT - 1 - max(exps) if side > 0 else -EXPONENT_LIMIT - min(exps)
    ea = shifted(ea, field, shift)
    try:
        got = _flat_mul(rt, flat(ea), flat(eb))
    except ResultTooLarge:
        # each key the flat product tests is one of a product rt.mul makes
        with pytest.raises(ResultTooLarge):
            rt.mul(ea, eb)
        return
    # shifted() raises ResultTooLarge if an exponent of the product left the range
    assert regrouped(P, got) == shifted(want, field, shift)
