"""Operation counts of the engine, pinned as ceilings: a ratchet on work.

Wall time on a shared host drifts by a few percent between equal runs;
operation counts do not.  Each case below counts, on a fresh table and
including its build, the calls to

- ``RationalFunction.__mul__``, every coefficient product;
- ``coeffs._lp_mul``, the products of multi-term coefficients;
- ``RuleTable.mul_mono_letter`` and ``RuleTable.mul_mono_mono``, memo hits
  and recursive calls included;
- ``RationalFunction.__hash__``, which normal ordering itself never needs,

and asserts that each count is at most its pin.  The counts are the same
under every hash seed and on every supported CPython.

How the ratchet works: a change that lowers a count lowers its pin in the
same commit, so that the gain cannot be lost again unseen.  A change that
raises a count raises its pin in the same commit and says why in
CHANGES.md.  The counting wrappers are installed by ``monkeypatch`` for the
test alone; the engine carries no counter.
"""

import pytest

from qsp import algebra, coeffs
from qsp.algebra import CalculusType, build_rule_table, local_confluence_check
from qsp.calculus import run_suite
from qsp.exprio import parse_element

COUNTED = {
    "products": (coeffs.RationalFunction, "__mul__"),
    "lp_mul": (coeffs, "_lp_mul"),
    "mul_mono_letter": (algebra.RuleTable, "mul_mono_letter"),
    "mul_mono_mono": (algebra.RuleTable, "mul_mono_mono"),
    "hashes": (coeffs.RationalFunction, "__hash__"),
}

# (run, type) -> the ceiling of each count, in the order of COUNTED
PINS = {
    ("run_suite", "I"): (2403, 82, 2290, 2450, 8),
    ("run_suite", "II"): (3456, 182, 2892, 3012, 8),
    ("run_suite", "III"): (3258, 168, 2722, 2826, 8),
    ("audit", "II"): (23172, 1133, 17940, 18872, 0),
    # one small input of each heavy family, read by exprio.parse_element: the
    # block splits and powers that the catalog and the audit barely reach
    ("H^10", "II"): (450, 84, 472, 565, 0),
    ("px^3*x^100", "II"): (406, 114, 100, 699, 0),
    ("ith^8*dth^8", "II"): (143, 42, 79, 164, 0),
    ("(1+r)^200", "II"): (32, 9, 0, 0, 0),
}

RUNS = {
    "run_suite": run_suite,
    "audit": lambda rt: local_confluence_check(rt, 4),
    **{text: lambda rt, text=text: parse_element(rt, text)
       for text in ("H^10", "px^3*x^100", "ith^8*dth^8", "(1+r)^200")},
}


@pytest.mark.parametrize("run,name", list(PINS))
def test_work_stays_within_its_pins(monkeypatch, run, name):
    counts = dict.fromkeys(COUNTED, 0)
    for key, (owner, attr) in COUNTED.items():
        def counted(*args, _key=key, _inner=getattr(owner, attr), **kwargs):
            counts[_key] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    RUNS[run](build_rule_table(CalculusType.by_name(name)))
    # count names -> (count, pin), for each count above its pin
    over = {key: (count, pin) for (key, count), pin in zip(counts.items(), PINS[run, name])
            if count > pin}
    assert not over, over
