"""Count the engine's work on the cases that ``tests/test_work.py`` pins.

Each case runs on a fresh table of its type, the build included, and counts
the calls to

- ``RationalFunction.__mul__`` (``products``), every coefficient product;
- ``coeffs._lp_mul`` (``lp_mul``), the products of multi-term coefficients;
- ``RuleTable.mul_mono_mono`` (``kernel``), the one product kernel, memo
  hits, in-order products and recursive calls included;
- ``RationalFunction.__hash__`` (``hashes``),

and the work of ``_lp_mul`` (``lp_mul_work``), the sum of len(a) * len(b)
over its calls.  The counting wrappers are installed for one case and
removed after it, so the engine carries no counter.  Prints one JSON object,
"run type" -> counts, in case order.  The counts do not depend on the hash
seed or on the CPython version, so two runs must print the same bytes:

    PYTHONHASHSEED=0 python tools/workcounts.py > a.json
    PYTHONHASHSEED=7 python tools/workcounts.py > b.json
    cmp a.json b.json

``--src`` names the ``src`` directory whose ``qsp`` is imported (default:
the one next to this script).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (run, type): run_suite, the length-4 audit, or an input read by
# exprio.parse_element
CASES = (
    ("run_suite", "I"), ("run_suite", "II"), ("run_suite", "III"), ("audit", "II"),
    ("H^10", "II"), ("H^20", "II"), ("px^3*x^100", "II"), ("px^3*x^200", "II"),
    ("ith^8*dth^8", "II"), ("ith^16*dth^16", "II"), ("(1+r)^200", "II"),
)
COUNTS = ("products", "lp_mul", "kernel", "hashes", "lp_mul_work")


def count_work(run: str, name: str) -> dict[str, int]:
    """The counts of one case, by the names of ``COUNTS``."""
    from qsp import algebra, coeffs
    from qsp.calculus import run_suite
    from qsp.exprio import parse_element

    counted = {"products": (coeffs.RationalFunction, "__mul__"),
               "lp_mul": (coeffs, "_lp_mul"),
               "kernel": (algebra.RuleTable, "mul_mono_mono"),
               "hashes": (coeffs.RationalFunction, "__hash__")}
    counts = dict.fromkeys(COUNTS, 0)
    saved = {key: getattr(owner, attr) for key, (owner, attr) in counted.items()}
    for key, (owner, attr) in counted.items():
        def wrapper(*args, _key=key, _inner=saved[key], **kwargs):
            counts[_key] += 1
            if _key == "lp_mul":   # _lp_mul(params, a, b)
                counts["lp_mul_work"] += len(args[1]) * len(args[2])
            return _inner(*args, **kwargs)
        setattr(owner, attr, wrapper)
    try:
        rt = algebra.build_rule_table(algebra.CalculusType.by_name(name))
        if run == "run_suite":
            run_suite(rt)
        elif run == "audit":
            algebra.local_confluence_check(rt, 4)
        else:
            parse_element(rt, run)
    finally:
        for key, (owner, attr) in counted.items():
            setattr(owner, attr, saved[key])
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qsp")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    doc = {f"{run} {name}": count_work(run, name) for run, name in CASES}
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
