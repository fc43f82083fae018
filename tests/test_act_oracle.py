"""``RuleTable.act`` against the product it shortcuts.

The action of an operator on a form is the vacuum part of their product.
``act`` never builds the terms that the projection drops: it peels the form
monomial one whole generator block at a time, multiplies the operator
letters past that block, and puts the operator's own form letters back in
front.  The oracle here is the plain route, normalizing the whole product
with ``rt.mul`` and projecting with ``Element.vacuum``; the random cases
take it on a second table whose memos ``act`` never touched.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qsp.algebra import (  # noqa: E402
    GENS, CalculusType, Element, NotAFunctionArgument, build_rule_table)
from qsp.calculus import E  # noqa: E402

SPECIALIZED = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}


def _x_power(ks):
    return ("x", ks[0] * ks[1])


x_powers = st.tuples(st.integers(1, 6), st.sampled_from((1, -1))).map(_x_power)
op_letters = st.one_of(
    st.sampled_from([(name, 1) for name in GENS if name != "x"]), x_powers)
form_letters = st.one_of(
    st.sampled_from([("dx", 1), ("dth", 1), ("th", 1)]), x_powers)
coefficients = st.sampled_from(["1", "-2", "q", "q - 1", "1/3*q^-1"])


def _tables():
    out = {}
    for key, (name, assignment) in SPECIALIZED.items():
        ct = CalculusType.by_name(name)
        out[key] = build_rule_table(ct.specialize(assignment) if assignment else ct)
    return out


@pytest.fixture(scope="module")
def act_tables():
    return _tables()


@pytest.fixture(scope="module")
def mul_tables():
    return _tables()


def _element(rt, words, coeffs):
    """The sum of coeff*word over the pairs of ``words`` and ``coeffs``."""
    out = Element.zero(rt.params)
    for w, c in zip(words, coeffs):
        out = out + rt.normalize_word(w).scale(E(rt, c).scalar_value())
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SPECIALIZED)),
       ops=st.lists(st.lists(op_letters, max_size=3), min_size=1, max_size=3),
       op_coeffs=st.lists(coefficients, min_size=3, max_size=3),
       fs=st.lists(st.lists(form_letters, max_size=4), min_size=1, max_size=2),
       f_coeffs=st.lists(coefficients, min_size=2, max_size=2))
def test_act_is_the_vacuum_of_the_product(act_tables, mul_tables, key, ops,
                                          op_coeffs, fs, f_coeffs):
    rt, ref = act_tables[key], mul_tables[key]
    op, f = _element(rt, ops, op_coeffs), _element(rt, fs, f_coeffs)
    want = ref.mul(_element(ref, ops, op_coeffs), _element(ref, fs, f_coeffs)).vacuum()
    assert rt.act(op, f) == want


OPS = ("px", "H", "d", "ix*pth")
FORMS = ("dth^3000", "x^3000*dth^2*th", "dx*dth^400*x^-300*th")


@pytest.mark.parametrize("name", ["I", "II", "III"])
def test_act_on_large_exponents(name):
    # a block x^k or dth^b is peeled whole, so deep powers neither recurse
    # per letter nor change the answer
    rt = build_rule_table(CalculusType.by_name(name))
    for op in OPS:
        for form in FORMS:
            o, f = E(rt, op), E(rt, form)
            assert rt.act(o, f) == rt.mul(o, f).vacuum(), (op, form)


def test_act_rejects_an_operator_argument(act_tables):
    rt = act_tables["II"]
    with pytest.raises(NotAFunctionArgument):
        rt.act(E(rt, "H"), E(rt, "x + px"))
