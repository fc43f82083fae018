"""The coactions as algebra maps on the differential calculus.

``delta_R`` and ``delta_L`` fold a word letter by letter, each ``x`` or
``x^-1`` a factor of its own, while the element form images a normal-ordered
monomial block by block, ``x^k -> x^k (x) x^k`` in one factor.  The
coactions respect the module relations at every covariant family, so a raw
word and its normal form must have the same image on either side.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from qsp.covariance import delta_L, delta_R  # noqa: E402
from qsp.hopf import coaction_element  # noqa: E402

letters = st.one_of(
    st.sampled_from([("x", 1), ("x", -1), ("th", 1), ("dx", 1), ("dth", 1)]),
    st.tuples(st.integers(2, 5), st.sampled_from((1, -1))).map(
        lambda ks: ("x", ks[0] * ks[1])),
)


@settings(max_examples=150, deadline=None)
@given(side=st.sampled_from(("right", "left")), word=st.lists(letters, max_size=4))
def test_coaction_of_a_word_is_the_coaction_of_its_normal_form(family_table, side, word):
    rt = family_table
    delta = delta_R if side == "right" else delta_L
    assert delta(rt, word) == coaction_element(rt, rt.normalize_word(word), side), word
