"""Shared fixture: a rule table at each covariant family and at the r=1 and
p=1 specializations of types II and III."""

import pytest

from qsp.algebra import CalculusType, build_rule_table

FAMILY_TABLES = {"I": ("I", {}), "II": ("II", {}), "III": ("III", {}),
                 "II-r1": ("II", {"r": 1}), "III-p1": ("III", {"p": 1})}


@pytest.fixture(scope="module", params=list(FAMILY_TABLES))
def family_table(request):
    """One table per parameter; a test that takes it runs at all five."""
    name, assignment = FAMILY_TABLES[request.param]
    ct = CalculusType.by_name(name)
    return build_rule_table(ct.specialize(assignment) if assignment else ct)
