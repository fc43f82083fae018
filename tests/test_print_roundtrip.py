"""The canonical printer and the parser are inverse on normal forms.

Elements are sums of normalized Hypothesis words over the nine generators
and x^k, scaled by Laurent coefficients, among them a non-integral constant
and sums over a single term, at types I, II, III and the specializations
r=1, p=1.
Printing one and parsing the text back must give the same element.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qsp.algebra import GENS, CalculusType, Element, build_rule_table  # noqa: E402
from qsp.exprio import parse_element, print_canonical  # noqa: E402

SPECIALIZED = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
               "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}

letters = st.one_of(
    st.sampled_from([(name, 1) for name in GENS if name != "x"]),
    st.tuples(st.just("x"), st.integers(-12, 12).filter(bool)))
terms = st.lists(st.tuples(st.lists(letters, max_size=4), st.integers(0, 63)),
                 min_size=1, max_size=3)


@pytest.fixture(scope="module")
def tables():
    out = {}
    for key, (name, assignment) in SPECIALIZED.items():
        ct = CalculusType.by_name(name)
        out[key] = build_rule_table(ct.specialize(assignment) if assignment else ct)
    return out


def _coefficients(params):
    one, q = params.one(), params.var("q")
    out = [one, params.const(-2), params.const(Fraction(1, 3)), q, q ** -2,
           (q - one) / (params.const(3) * q)]
    for v in params.variables[1:]:
        out += [params.var(v), (q + params.var(v)) / (params.const(-2) * params.var(v))]
    return out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(SPECIALIZED)), terms=terms)
def test_parse_inverts_print(tables, key, terms):
    rt = tables[key]
    coeffs = _coefficients(rt.params)
    e = Element.zero(rt.params)
    for word, i in terms:
        e = e + rt.normalize_word(word).scale(coeffs[i % len(coeffs)])
    text = print_canonical(e)
    assert parse_element(rt, text) == e, text
