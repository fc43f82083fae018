"""Cold start: the lazy package namespace and the modules each entry point loads.

Each check that counts loaded modules runs in a fresh interpreter, since the
test process itself has imported every module long before.  The cold-start
pins run it with ``-I -S``, so that nothing of site-packages is loaded
before qsp.  The last test checks that the benchmark under ``perfbench/``
still finds every engine name it reaches.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    "number_op", "pair", "parse_element", "parse_expr", "print_canonical",
    "print_tensor", "qnumber", "run_suite", "solve_family", "tensor_multiply",
    "verify_identity",
]
SUBMODULES = {"coeffs", "algebra", "calculus", "hopf", "covariance", "exprio"}


def run_fresh(code: str, *flags: str) -> str:
    """Run ``code`` in a new interpreter with ``flags`` that imports qsp from
    this checkout; the last line it prints is the result."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    done = subprocess.run([sys.executable, *flags, "-c", prelude + code], check=True,
                          capture_output=True, text=True, stdin=subprocess.DEVNULL)
    return done.stdout.splitlines()[-1]


def fresh(code: str):
    return json.loads(run_fresh("import json; " + code))


def cold_modules(code: str) -> set:
    """The modules loaded after ``code`` in an isolated interpreter without
    ``site``, which imports nothing beyond ``code``."""
    return set(run_fresh(code + "; print(*sys.modules)", "-I", "-S").split())


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qsp'))))"


def test_import_and_table_build_load_only_the_core():
    loaded = fresh("import qsp; qsp.build_rule_table(qsp.CalculusType.by_name('II')); "
                   + LOADED)
    assert loaded == ["qsp", "qsp.algebra", "qsp.coeffs"]


def test_normalize_loads_neither_calculus_nor_covariance():
    loaded = fresh("import qsp.cli; assert qsp.cli.run(['normalize', 'px*x']) == 0; "
                   + LOADED)
    assert "qsp.calculus" not in loaded and "qsp.covariance" not in loaded


# what the records and type names once pulled in: dataclasses brings inspect,
# ast, dis and tokenize with it
INTROSPECTION = {"dataclasses", "typing", "inspect", "ast", "dis", "tokenize"}
COLD_STARTS = {
    "table": "import qsp; qsp.build_rule_table(qsp.CalculusType.by_name('II'))",
    "verify": "import qsp.cli; assert qsp.cli.run(['verify', '--type', 'II']) == 0",
    "solve-types": "import qsp.cli; assert qsp.cli.run(['solve-types']) == 0",
}


@pytest.mark.parametrize("case", COLD_STARTS)
def test_cold_start_loads_no_introspection_module(case):
    loaded = cold_modules(COLD_STARTS[case])
    assert "qsp.algebra" in loaded and not loaded & INTROSPECTION, loaded & INTROSPECTION


def test_text_commands_load_no_json():
    loaded = cold_modules("import qsp.cli; assert qsp.cli.run(['normalize', 'px*x']) == 0")
    assert "qsp.exprio" in loaded and "json" not in loaded


@pytest.mark.parametrize("argv", [["normalize", "px*x"], ["verify", "--type", "II"]],
                         ids=["normalize", "verify"])
def test_commands_load_no_shutil(argv):
    # the help width is read from the environment and the terminal directly
    loaded = cold_modules(f"import qsp.cli; assert qsp.cli.run({argv!r}) == 0")
    assert "qsp.cli" in loaded and "shutil" not in loaded


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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the modules perfbench/run.py hands the tracer, besides the package itself
TRACED_MODULES = ("coeffs", "algebra", "hopf", "covariance", "calculus", "exprio", "cli")


def _perfbench(name: str):
    """``perfbench/<name>.py``, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_finds_every_name_it_reaches():
    # `run.py --trace 1` wraps each of the tracer's TARGETS, and the catalog
    # workload calls run_suite(rt, bound=6): an engine change that removes a
    # name either reaches fails here, not first in the benchmark
    tracer, workloads = _perfbench("tracer"), _perfbench("workloads")
    modules = {"qsp": qsp, **{m: importlib.import_module(f"qsp.{m}") for m in TRACED_MODULES}}

    def targets():
        out = []
        for module, path, _ in tracer.TARGETS:
            owner, _, attr = path.rpartition(".")
            out.append(vars(getattr(modules[module], owner) if owner else modules[module])[attr])
        return out

    originals = targets()
    tr = tracer.Tracer(modules)
    tr.install()
    try:
        op = next(workloads.catalog_rounds(qsp, 1))[0]   # verify --type I
        assert op.check(op.run()) is None
    finally:
        tr.uninstall()
    assert targets() == originals
    assert tr.stats["calculus.verify_identity"][0] and tr.ratios()
