"""Operation counts of the engine, pinned as ceilings: a ratchet on work.

Wall time on a shared host drifts by a few percent between equal runs;
operation counts do not.  ``tools/workcounts.py`` counts, for each case on a
fresh table and including its build, the calls to

- ``RationalFunction.__mul__``, every coefficient product;
- ``coeffs._lp_mul``, the products of multi-term coefficients;
- ``RuleTable.mul_mono_mono``, the one product kernel, memo hits, in-order
  products and recursive calls included;
- ``RationalFunction.__hash__``, which normal ordering itself never needs,

and the work of ``_lp_mul``, the sum of len(a) * len(b) over its calls; each
count must be at most its pin.  Three heavy families are pinned at an
exponent k and at 2k, so that the growth of their work per doubling is
bounded too.  The counts are the same under every hash seed and on every
supported CPython (CI compares two seeds).

How the ratchet works: a change that lowers a count lowers its pin in the
same commit, so that the gain cannot be lost again unseen.  A change that
raises a count raises its pin in the same commit and says why in
CHANGES.md.  The counting wrappers are installed for one case alone and
removed after it; the engine carries no counter.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from workcounts import CASES, COUNTS, count_work  # noqa: E402

# (run, type) -> the ceiling of each count, in the order of COUNTS
PINS = {
    ("run_suite", "I"): (2031, 0, 3359, 8, 0),
    ("run_suite", "II"): (2739, 85, 4332, 8, 370),
    ("run_suite", "III"): (2664, 78, 4065, 8, 326),
    ("audit", "II"): (4791, 263, 30079, 0, 1134),
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


def test_every_counted_case_is_pinned():
    assert list(PINS) == list(CASES)


@pytest.mark.parametrize("run,name", list(PINS))
def test_work_stays_within_its_pins(run, name):
    counts = count_work(run, name)
    # count names -> (count, pin), for each count above its pin
    over = {key: (counts[key], pin) for key, pin in zip(COUNTS, PINS[run, name])
            if counts[key] > pin}
    assert not over, over
