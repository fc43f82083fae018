"""Exact symbolic engine for the extended differential calculus on the
quantum superplane: normal-ordering rewrite system, Hopf costructures,
covariance constraint solving, and a verification suite with residual
certificates.

The package namespace is lazy: a name below is imported from its home
module on first access, so ``import qsp`` loads no submodule and a caller
pays only for the modules it uses."""

_HOMES = {
    "coeffs": ("PARAMS_I", "PARAMS_II", "PARAMS_III", "ParamSet", "QspError",
               "RationalFunction", "qnumber"),
    "algebra": ("CalculusType", "Element", "RuleTable", "act_on_function",
                "build_rule_table", "local_confluence_check", "parity_of"),
    "calculus": ("KNOWN_DISCREPANCY_IDS", "VerifyResult", "closed_form_H",
                 "exterior_derivative", "identity_catalog", "number_op",
                 "run_suite", "verify_identity"),
    "hopf": ("TensorElement", "UElement", "coproduct_A", "counit_A",
             "antipode_A", "hopf_axiom_check", "costructures_W",
             "expand_derived", "left_act", "pair", "tensor_multiply"),
    "covariance": ("delta_L", "delta_R", "generate_ansatz_constraints",
                   "generate_covariance_constraints", "solve_family"),
    "exprio": ("emit_report", "parse_element", "parse_expr", "print_canonical",
               "print_tensor"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOMES, *_HOME])


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own entry point, so `-X importtime` lists it
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    if home == name:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
