"""Layer tracing from outside the engine.

The tracer replaces public entry points of the qsp modules with timing
wrappers.  A function is replaced in every module that binds it by name
(``cli`` imports ``build_rule_table`` and ``parse_element``, the package
re-exports most names), and a method is replaced on its class, so calls made
through any of those bindings are counted.

Hot inner functions keep one aggregate per name: call count, inclusive time
and self time (inclusive time minus the time of wrapped callees, through a
stack of open calls).  Coarse boundaries (a table build, an identity, an
audit, a CLI request, and each benchmark operation) also record a span with
its parent, kept in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import time
import weakref

# (module, attribute path, metric name); methods are given as Class.method
TARGETS = (
    ("coeffs", "RationalFunction.__mul__", "coeffs.RationalFunction.mul"),
    ("coeffs", "RationalFunction.__add__", "coeffs.RationalFunction.add"),
    ("coeffs", "poly_gcd", "coeffs.poly_gcd"),
    ("algebra", "RuleTable.build", "algebra.RuleTable.build"),
    ("algebra", "RuleTable.mul_mono_letter", "algebra.RuleTable.mul_mono_letter"),
    ("algebra", "RuleTable.mul_mono_mono", "algebra.RuleTable.mul_mono_mono"),
    ("algebra", "RuleTable.mul", "algebra.RuleTable.mul"),
    ("algebra", "RuleTable.normalize_word", "algebra.RuleTable.normalize_word"),
    ("algebra", "Element.__add__", "algebra.Element.add"),
    ("algebra", "Element.scale", "algebra.Element.scale"),
    ("algebra", "local_confluence_check", "algebra.local_confluence_check"),
    ("hopf", "coproduct_U_residuals", "hopf.coproduct_U_residuals"),
    ("hopf", "tensor_multiply", "hopf.tensor_multiply"),
    ("hopf", "coproduct_A", "hopf.coproduct_A"),
    ("hopf", "pair", "hopf.pair"),
    ("hopf", "left_act", "hopf.left_act"),
    ("covariance", "delta_R", "covariance.delta_R"),
    ("covariance", "delta_L", "covariance.delta_L"),
    ("covariance", "generate_covariance_constraints",
     "covariance.generate_covariance_constraints"),
    ("covariance", "generate_ansatz_constraints",
     "covariance.generate_ansatz_constraints"),
    ("covariance", "solve_family", "covariance.solve_family"),
    ("calculus", "verify_identity", "calculus.verify_identity"),
    ("calculus", "act_on_function", "calculus.act_on_function"),
    ("calculus", "expand_derived", "calculus.expand_derived"),
    ("exprio", "parse_element", "exprio.parse_element"),
    ("exprio", "parse_uelement", "exprio.parse_uelement"),
    ("exprio", "print_canonical", "exprio.print_canonical"),
    ("exprio", "print_tensor", "exprio.print_tensor"),
    ("exprio", "emit_report", "exprio.emit_report"),
    ("cli", "run", "cli.run"),
)

# names that get a span per call; the detail function labels the span
SPANS = {
    "algebra.RuleTable.build": lambda args: "",
    "algebra.local_confluence_check": lambda args: f"max_len={args[1]}",
    "calculus.verify_identity": lambda args: args[1],
    "cli.run": lambda args: " ".join(args[0]),
}

# counters that refine an aggregate into a ratio; see ratios()
COUNTERS = ("coeffs.mul.unit_operand", "coeffs.poly_gcd.trivial",
            "algebra.RuleTable.mul_mono_letter.repeat",
            "algebra.RuleTable.mul_mono_mono.repeat",
            "hopf.coproduct_U_residuals.repeat",
            "algebra.Element.add.copied", "algebra.Element.add.added")


def _is_one_poly(p) -> bool:
    """True when a polynomial (dict exponent -> coefficient) is the constant 1."""
    if not isinstance(p, dict) or len(p) != 1:
        return False
    (exps, coeff), = p.items()
    return coeff == 1 and not any(exps)


class Tracer:
    """Aggregates, counters and spans of one traced run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.stats = {name: [0, 0.0, 0.0] for _, _, name in TARGETS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans: list[dict] = []
        self._stack: list[list] = []   # [child seconds, span id or None]
        self._undo: list = []

    # -- hooks run before or after the wrapped call ----------------------------

    def _repeat(self, counter: str):
        seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # table -> keys
        counts = self.counts

        def before(args):
            keys = seen.get(args[0])
            if keys is None:
                keys = seen[args[0]] = set()
            key = args[1:3]
            if key in keys:
                counts[counter] += 1
            else:
                keys.add(key)
        return before

    def _hooks(self, name: str):
        counts = self.counts
        if name == "coeffs.RationalFunction.mul":
            def before(args):
                if args[0].is_one() or args[1].is_one():
                    counts["coeffs.mul.unit_operand"] += 1
            return before, None
        if name == "coeffs.poly_gcd":
            def after(result):
                if _is_one_poly(result):
                    counts["coeffs.poly_gcd.trivial"] += 1
            return None, after
        if name == "algebra.Element.add":
            def before(args):
                counts["algebra.Element.add.copied"] += len(args[0].terms)
                counts["algebra.Element.add.added"] += len(args[1].terms)
            return before, None
        if name in ("algebra.RuleTable.mul_mono_letter",
                    "algebra.RuleTable.mul_mono_mono",
                    "hopf.coproduct_U_residuals"):
            return self._repeat(name + ".repeat"), None
        return None, None

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        before, after = self._hooks(name)
        label = SPANS.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, None]
            if label is not None:
                frame[1] = self._open(name, label(args))
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if frame[1] is not None:
                    spans[frame[1]]["end"] = t0 + dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _open(self, name: str, detail: str) -> int:
        parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
        self.spans.append({"id": len(self.spans), "parent": parent, "name": name,
                           "detail": detail, "start": time.perf_counter(), "end": None})
        return len(self.spans) - 1

    def install(self) -> None:
        for mod_name, path, name in TARGETS:
            mod = self.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(name, original)
            for m in self.modules.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- operations recorded by the benchmark ---------------------------------

    @contextlib.contextmanager
    def op(self, detail: str):
        """One benchmark operation, the root of its spans.  Yields a dict that
        holds, on exit, the counts that changed during the operation."""
        before = self.snapshot()
        frame = [0.0, self._open("op", detail)]
        self._stack.append(frame)
        changed: dict = {}
        try:
            yield changed
        finally:
            self._stack.pop()
            self.spans[frame[1]]["end"] = time.perf_counter()
            after = self.snapshot()
            changed.update({k: after[k] - before[k] for k in after if after[k] != before[k]})

    def snapshot(self) -> dict:
        out = {f"{name}.calls": s[0] for name, s in self.stats.items()}
        out.update(self.counts)
        return out

    # -- results ---------------------------------------------------------------

    def ratios(self) -> dict:
        c, s = self.counts, self.stats

        def share(num: int, den: int) -> float:
            return num / den if den else 0.0
        return {
            "coeffs.mul.unit_operand_share":
                share(c["coeffs.mul.unit_operand"], s["coeffs.RationalFunction.mul"][0]),
            "coeffs.poly_gcd.trivial_share":
                share(c["coeffs.poly_gcd.trivial"], s["coeffs.poly_gcd"][0]),
            "algebra.RuleTable.mul_mono_letter.repeat_share":
                share(c["algebra.RuleTable.mul_mono_letter.repeat"],
                      s["algebra.RuleTable.mul_mono_letter"][0]),
            "algebra.RuleTable.mul_mono_mono.repeat_share":
                share(c["algebra.RuleTable.mul_mono_mono.repeat"],
                      s["algebra.RuleTable.mul_mono_mono"][0]),
            "algebra.Element.add.copy_ratio":
                share(c["algebra.Element.add.copied"], c["algebra.Element.add.added"]),
            "hopf.coproduct_U_residuals.repeat_share":
                share(c["hopf.coproduct_U_residuals.repeat"],
                      s["hopf.coproduct_U_residuals"][0]),
        }
