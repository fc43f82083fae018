"""A reference rewriter on words, checked against the engine.

The engine multiplies packed monomials through one kernel, with a product
memo, log-depth splits of every block g^k, in-order shortcuts and a
one-dict accumulator.  The rewriter below shares none of that: it keeps
plain dicts from words (tuples of letters) to coefficients, reads a block as
its letters one by one, and rewrites the leftmost out-of-order adjacent pair
of a word by its rule in ``rt.rules`` (or cancels x*x^-1), until no such
pair is left.  The exterior derivative d is replaced by dx*px + dth*pth
before rewriting.  By the diamond lemma (Bergman, Adv. Math. 29 (1978)
178-218) every strategy reaches the same normal form on a confluent table,
so the two must agree there; on a table that is not confluent they need
not, and the broken table shows that they do not.
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
    """Normal-order a word by leftmost rewriting with ``rt.rules`` alone.

    The letters are read one at a time, each inserted into every normal
    word read so far.  A normal word u followed by a letter a has at most
    one out-of-order pair, its last, u[-1]*a: it is rewritten by its rule
    (or cancelled, x*x^-1), and each term's letters are inserted in turn
    into u[:-1].  Each step rewrites the leftmost out-of-order pair, so
    these are the steps of leftmost rewriting on the whole word.  The
    normal form of each pair (u, a) is kept once found: leftmost rewriting
    makes it a function of the pair alone, on any table."""
    one, zero = rt.params.one(), rt.params.zero()
    inserted = {}

    def fold(words, letters):
        for a in letters:
            out = {}
            for u, c in words.items():
                for v, rc in insert(u, a).items():
                    out[v] = out.get(v, zero) + c * rc
            words = {v: c for v, c in out.items() if not c.is_zero()}
        return words

    def insert(u, a):
        out = inserted.get((u, a))
        if out is not None:
            return out
        key = _rule_key(u[-1], a) if u else None
        if u and u[-1][0] == a[0] == X and u[-1][1] != a[1]:
            out = {u[:-1]: one}                          # x * x^-1 = 1
        elif key is None or (key[0] == key[1] and key not in rt.rules):
            out = {u + (a,): one}                        # in order, or a free power
        else:
            out = {}
            for m, rc in rt.rules[key].terms.items():
                middle = tuple(word_letters(zip(GENS, mono_exps(m))))
                for v, c in fold({u[:-1]: rc}, middle).items():
                    out[v] = out.get(v, zero) + c
        inserted[u, a] = out
        return out

    pending = {(): one}
    for letter in word_letters(word):
        out = {}
        for piece in (D_REALIZATION if letter[0] == D else ((letter,),)):
            for v, c in fold(pending, piece).items():
                out[v] = out.get(v, zero) + c
        pending = out
    out = {}
    for w, c in pending.items():
        exps = [0] * NGENS
        for g, s in w:
            exps[g] += s
        m = tuple(exps)
        out[m] = out.get(m, zero) + c
    # the words' exponent tuples become the engine's monomials only here
    return Element(rt.params, {mono(**{GENS[g]: e for g, e in enumerate(m) if e}): c
                               for m, c in out.items()})


SPECIALIZED = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}

# single letters, powers of x and x^-1, and the blocks g^2, g^3 of dth, px
# and ith, so that a product of two drawn words meets a block on its left
# (split in half) and on its right (multiplied as one factor)
letters = st.one_of(
    st.sampled_from([(name, 1) for name in GENS if name != "x"]),
    st.tuples(st.integers(1, 6), st.sampled_from((1, -1))).map(
        lambda ks: ("x", ks[0] * ks[1])),
    st.tuples(st.sampled_from(("dth", "px", "ith")), st.integers(2, 3)),
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
