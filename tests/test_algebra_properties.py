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
"""

from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qsp.algebra import GENS, CalculusType, Element, build_rule_table  # noqa: E402

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
    assert rt.normalize(e) == e


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
