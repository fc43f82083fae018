"""Cold start: the lazy package namespace and the modules each entry point loads.

Each check that counts loaded modules runs in a fresh interpreter, since the
test process itself has imported every module long before.
"""

import json
import subprocess
import sys
from pathlib import Path

import qsp

SRC = str(Path(qsp.__file__).resolve().parent.parent)

ALL = [
    "CalculusType", "Element", "KNOWN_DISCREPANCY_IDS", "PARAMS_I", "PARAMS_II",
    "PARAMS_III", "ParamSet", "QspError", "RationalFunction", "RuleTable",
    "TensorElement", "UElement", "VerifyResult", "act_on_function", "algebra",
    "antipode_A", "build_rule_table", "calculus", "closed_form_H", "coeffs",
    "coproduct_A", "costructures_W", "counit_A", "covariance", "delta_L",
    "delta_R", "emit_report", "expand_derived", "exprio", "exterior_derivative",
    "generate_ansatz_constraints", "generate_covariance_constraints", "hopf",
    "hopf_axiom_check", "identity_catalog", "left_act", "local_confluence_check",
    "number_op", "pair", "parity_of", "parse_element", "parse_expr",
    "print_canonical", "print_tensor", "qnumber", "run_suite", "solve_family",
    "tensor_multiply", "verify_identity",
]
SUBMODULES = {"coeffs", "algebra", "calculus", "hopf", "covariance", "exprio"}


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports qsp from this checkout;
    the JSON it prints last is the result."""
    prelude = f"import json, sys; sys.path.insert(0, {SRC!r}); "
    done = subprocess.run([sys.executable, "-c", prelude + code], check=True,
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qsp'))))"


def test_import_and_table_build_load_only_the_core():
    loaded = fresh("import qsp; qsp.build_rule_table(qsp.CalculusType.by_name('II')); "
                   + LOADED)
    assert loaded == ["qsp", "qsp.algebra", "qsp.coeffs"]


def test_normalize_loads_neither_calculus_nor_covariance():
    loaded = fresh("import qsp.cli; assert qsp.cli.run(['normalize', 'px*x']) == 0; "
                   + LOADED)
    assert "qsp.calculus" not in loaded and "qsp.covariance" not in loaded


def test_verify_loads_only_the_standard_library():
    # the engine has no runtime dependencies (pyproject's `dependencies = []`):
    # a whole `qsp verify` imports nothing but qsp and the standard library,
    # beyond what the interpreter had loaded before it started
    code, outside = fresh(
        "before = set(sys.modules); import qsp.cli; "
        "code = qsp.cli.run(['verify', '--type', 'II']); "
        "print(json.dumps([code, sorted(m for m in set(sys.modules) - before "
        "if m.split('.')[0] not in sys.stdlib_module_names)]))")
    assert code == 0
    assert outside and all(m.split(".")[0] == "qsp" for m in outside), outside


def test_all_is_pinned():
    assert qsp.__all__ == ALL
    assert SUBMODULES <= set(ALL)


def test_every_name_resolves_to_its_home_object():
    # fresh, so that every access goes through the lazy lookup
    same = fresh("import importlib, qsp; print(json.dumps(["
                 "n for m, names in qsp._HOMES.items() for n in names"
                 " if getattr(qsp, n) is getattr(importlib.import_module('qsp.' + m), n)]))")
    assert sorted(same) == sorted(set(ALL) - SUBMODULES)
    for module, names in qsp._HOMES.items():
        for name in names:
            # a function or class is defined where the table says it lives
            defined_in = getattr(getattr(qsp, name), "__module__", None) or ""
            if defined_in.startswith("qsp."):
                assert defined_in == f"qsp.{module}", name
    for name in SUBMODULES:
        assert getattr(qsp, name).__name__ == f"qsp.{name}"


def test_star_import_binds_every_name():
    bound = fresh("ns = {}; exec('from qsp import *', ns); "
                  "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))")
    assert bound == sorted(ALL)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(qsp, "nope")
    assert set(ALL) <= set(dir(qsp))


def test_moved_names_are_reexported_as_the_same_objects():
    assert qsp.calculus.expand_derived is qsp.exprio.expand_derived
    assert qsp.calculus.DERIVED_NAMES is qsp.exprio.DERIVED_NAMES
    assert qsp.calculus.act_on_function is qsp.algebra.act_on_function
