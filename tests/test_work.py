"""Operation counts of the engine, pinned as ceilings: a ratchet on work.

Wall time on a shared host drifts by a few percent between equal runs;
operation counts do not.  Each case below counts, on a fresh table and
including its build, the calls to

- ``RationalFunction.__mul__``, every coefficient product;
- ``coeffs._lp_mul``, the products of multi-term coefficients;
- ``RuleTable.mul_mono_mono``, the one product kernel, memo hits, in-order
  products and recursive calls included;
- ``RationalFunction.__hash__``, which normal ordering itself never needs,

and the work of ``_lp_mul``, the sum of len(a) * len(b) over its calls, and
asserts that each count is at most its pin.  Three heavy families are pinned
at an exponent k and at 2k, so that the growth of their work per doubling is
bounded too.  The counts are the same under every hash seed and on every
supported CPython.

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
    "kernel": (algebra.RuleTable, "mul_mono_mono"),
    "hashes": (coeffs.RationalFunction, "__hash__"),
}

# (run, type) -> the ceiling of each count, in the order of COUNTED, then the
# ceiling of the _lp_mul work
PINS = {
    ("run_suite", "I"): (2235, 0, 3359, 8, 0),
    ("run_suite", "II"): (3266, 100, 4332, 8, 430),
    ("run_suite", "III"): (3129, 86, 4065, 8, 358),
    ("audit", "II"): (22919, 1129, 30079, 0, 4754),
    # small inputs of each heavy family, read by exprio.parse_element: the
    # block splits and powers that the catalog and the audit barely reach;
    # the first three families at k and 2k
    ("H^10", "II"): (450, 84, 1041, 0, 2842),
    ("H^20", "II"): (1677, 459, 3207, 0, 99450),
    ("px^3*x^100", "II"): (406, 114, 770, 0, 36836),
    ("px^3*x^200", "II"): (446, 127, 854, 0, 135938),
    ("ith^8*dth^8", "II"): (143, 42, 216, 0, 4722),
    ("ith^16*dth^16", "II"): (560, 274, 778, 0, 302218),
    ("(1+r)^200", "II"): (32, 9, 0, 0, 15724),
}

RUNS = {
    "run_suite": run_suite,
    "audit": lambda rt: local_confluence_check(rt, 4),
    **{text: lambda rt, text=text: parse_element(rt, text)
       for text, _ in PINS if text not in ("run_suite", "audit")},
}


@pytest.mark.parametrize("run,name", list(PINS))
def test_work_stays_within_its_pins(monkeypatch, run, name):
    counts = dict.fromkeys([*COUNTED, "lp_mul_work"], 0)
    for key, (owner, attr) in COUNTED.items():
        def counted(*args, _key=key, _inner=getattr(owner, attr), **kwargs):
            counts[_key] += 1
            if _key == "lp_mul":   # _lp_mul(params, a, b)
                counts["lp_mul_work"] += len(args[1]) * len(args[2])
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)
    RUNS[run](build_rule_table(CalculusType.by_name(name)))
    # count names -> (count, pin), for each count above its pin
    over = {key: (count, pin) for (key, count), pin in zip(counts.items(), PINS[run, name])
            if count > pin}
    assert not over, over
