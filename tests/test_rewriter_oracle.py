"""A memo-free reference rewriter, checked against the engine.

The engine multiplies by folding letters into canonical monomials, with two
memos, log-depth splits of x^k, in-order shortcuts and a one-dict
accumulator.  The rewriter below shares none of that: it keeps a
plain dict from words (tuples of letters) to coefficients and rewrites the
leftmost out-of-order adjacent pair of a word by its rule in ``rt.rules``
(or cancels x*x^-1), until no such pair is left.  The exterior derivative d is replaced by
dx*px + dth*pth before rewriting.  By the diamond lemma (Bergman, Adv. Math.
29 (1978) 178-218) every strategy reaches the same normal form on a
confluent table, so the two must agree there; on a table that is not
confluent they need not, and the broken table shows that they do not.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    D, DTH, DX, GENS, NGENS, PTH, PX, X,
    CalculusType, Element, build_rule_table, mono, mono_exps, word_letters,
)
from test_algebra import _broken_table  # noqa: E402

D_REALIZATION = (((DX, 1), (PX, 1)), ((DTH, 1), (PTH, 1)))


def _rule_key(a, b):
    """The key of the rule that rewrites the adjacent letters a, b, or None
    when the pair is in order."""
    (ga, sa), (gb, sb) = a, b
    if ga == gb == X:
        return None
    if ga == gb:
        return (ga, gb, 0)
    if ga < gb:
        return None
    if ga == X:
        return (ga, gb, sa)
    if gb == X:
        return (ga, gb, sb)
    return (ga, gb, 0)


def reference_normal_form(rt, word):
    """Normal-order a word by leftmost rewriting with ``rt.rules`` alone."""
    one = rt.params.one()
    pending = {(): one}
    for letter in word_letters(word):
        nxt = {}
        for w, c in pending.items():
            for piece in (D_REALIZATION if letter[0] == D else ((letter,),)):
                key = w + piece
                nxt[key] = nxt.get(key, rt.params.zero()) + c
        pending = nxt
    out = {}
    while pending:
        w, c = pending.popitem()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a[0] == b[0] == X and a[1] != b[1]:
                rewrites = [((), one)]               # x * x^-1 = 1
            else:
                key = _rule_key(a, b)
                if key is None or (key[0] == key[1] and key not in rt.rules):
                    continue                         # in order, or a free power
                rewrites = [(tuple(word_letters(zip(GENS, mono_exps(m)))), rc)
                            for m, rc in rt.rules[key].terms.items()]
            for middle, rc in rewrites:
                nw = w[:i] + middle + w[i + 2:]
                pending[nw] = pending.get(nw, rt.params.zero()) + c * rc
                if pending[nw].is_zero():
                    del pending[nw]
            break
        else:
            exps = [0] * NGENS
            for g, s in w:
                exps[g] += s
            m = tuple(exps)
            out[m] = out.get(m, rt.params.zero()) + c
    # the words' exponent tuples become the engine's monomials only here
    return Element(rt.params, {mono(**{GENS[g]: e for g, e in enumerate(m) if e}): c
                               for m, c in out.items()})


SPECIALIZED = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}

letters = st.one_of(
    st.sampled_from([(name, 1) for name in GENS if name != "x"]),
    st.tuples(st.integers(1, 6), st.sampled_from((1, -1))).map(
        lambda ks: ("x", ks[0] * ks[1])),
)
words = st.lists(letters, max_size=3)


@pytest.fixture(scope="module")
def tables():
    out = {}
    for key, (name, assignment) in SPECIALIZED.items():
        ct = CalculusType.by_name(name)
        out[key] = build_rule_table(ct.specialize(assignment) if assignment else ct)
    return out


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SPECIALIZED)), a=words, b=words)
def test_engine_matches_reference_rewriter(tables, key, a, b):
    rt = tables[key]
    want = reference_normal_form(rt, a + b)
    assert rt.normalize_word(a + b) == want
    assert rt.mul(rt.normalize_word(a), rt.normalize_word(b)) == want


def test_reference_rewriter_on_known_products(tables):
    rt = tables["II"]
    # px*x = 1 + Q x px + Q12 th pth, the rule itself
    assert reference_normal_form(rt, ["px", "x"]) == rt.rules[(PX, X, 1)]
    assert reference_normal_form(rt, ["th", "th"]).is_zero()
    assert reference_normal_form(rt, [("x", 3), ("x", -3)]) == Element.one(rt.params)
    assert reference_normal_form(rt, ["d"]) == rt.d_element()


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_reference_rewriter_disagrees_on_broken_table(name):
    # the scaled (px, dx) rule breaks confluence: the rewriter moves px past
    # x first, the engine normalizes x*dx first, and the two results part,
    # so the comparison above is not vacuous
    rt = _broken_table(name)
    product = rt.mul(rt.normalize_word(["px"]), rt.normalize_word(["x", "dx"]))
    assert product != reference_normal_form(rt, ["px", "x", "dx"])
