"""Benchmark of the qsp engine: three workloads, timed from outside the engine.

    python3 perfbench/run.py --workload catalog|confluence|requests \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from anywhere; it imports the engine from ``src/`` of the checkout
that holds this file.  Each workload is a closed loop with one client in one
process and thread.  With ``--trace 0`` it measures ``--seconds`` seconds of
operation time, scaled to a reference host speed (probe.py), and prints the
end-to-end metrics; with ``--trace 1`` it runs a fixed list of
operations once untraced and once traced, prints the per-layer metrics and
writes the spans to ``perfbench/out/``.  The last line of standard output is
one JSON object.  ``--workload all`` runs the three workloads, each in its
own process, and prints the end-to-end metrics under their per-workload names.
See README.md for the metrics and what should move them.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("coeffs", "algebra", "hopf", "covariance", "calculus", "exprio", "cli")
SETUP_RUNS = 9
WALL_LIMIT = 2.0    # a run ends by this many times --seconds of wall time
# fresh interpreter to `import qsp` plus one built rule table
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qsp; "
              "qsp.build_rule_table(qsp.CalculusType.by_name('II'))")
ROUNDS = {"catalog": workloads.catalog_rounds, "confluence": workloads.confluence_rounds,
          "requests": workloads.request_rounds}
# operations run once untraced and once traced with --trace 1
TRACE_OPS = {"catalog": 3, "confluence": 3, "requests": 122}
# end-to-end metric -> its per-workload name
ALIASES = {
    "catalog": {"type_s.I": "verify_s.I", "type_s.II": "verify_s.II",
                "type_s.III": "verify_s.III"},
    "confluence": {"type_s.II": "audit_s.II", "type_s.III": "audit_s.III"},
    "requests": {"ops_per_s": "requests_per_s", "op_p50_ms": "request_p50_ms",
                 "op_tail_ms": "request_tail_ms"},
}
SHARED = ("setup_s", "peak_rss_mb")
# counts printed for each traced catalog or confluence operation
PER_OP_COUNTS = ("coeffs.RationalFunction.mul.calls", "coeffs.mul.unit_operand",
                 "hopf.coproduct_U_residuals.calls", "hopf.coproduct_U_residuals.repeat",
                 "algebra.RuleTable.mul_mono_letter.calls",
                 "algebra.RuleTable.mul_mono_letter.repeat",
                 "algebra.RuleTable.mul_mono_mono.calls",
                 "algebra.RuleTable.mul_mono_mono.repeat")


def load_engine():
    if not (SRC / "qsp" / "__init__.py").is_file():
        sys.exit(f"error: no engine sources at {SRC / 'qsp'}")
    sys.path.insert(0, str(SRC))
    qsp = importlib.import_module("qsp")
    if Path(qsp.__file__).resolve().parent != SRC / "qsp":
        sys.exit(f"error: imported qsp from {qsp.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"qsp.{name}")
    return qsp


def measure_setup() -> float:
    """Median over SETUP_RUNS fresh interpreters, each scaled by the
    probes taken just before it."""
    speed = probe.SpeedProbe()
    times = []
    for _ in range(SETUP_RUNS):
        for _ in range(5):
            speed.tick()
        t0 = time.perf_counter()
        # no timeout: waiting with one polls at up to 50 ms and quantizes the time
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, stdin=subprocess.DEVNULL)
        times.append(speed.scale(t0, time.perf_counter())[0])
    return statistics.median(times)


def tail(values: list) -> float:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten samples beyond
    it; the maximum is reported then.
    """
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 20 else ordered[-1]


class Tally:
    """Answers checked so far: attempted, failed, and unexpected failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def record(self, op, result) -> None:
        self.attempted += 1
        if isinstance(result, Exception):
            verdict = f"{op.label}: {type(result).__name__}: {result}"
        else:
            verdict = op.check(result)
        if verdict is not None:
            self.failed += 1
            if verdict != workloads.KNOWN:
                self.errors.append(verdict)


def attempt(op):
    """Run one operation; an exception is its failed answer."""
    try:
        return op.run()
    except Exception as exc:
        return exc


def timed(op):
    t0 = time.perf_counter()
    result = attempt(op)
    return result, time.perf_counter() - t0


def run_measured(qsp, workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    samples: dict[str, list] = {t: [] for t in workloads.TYPES}
    rounds = ROUNDS[workload](qsp, seed)
    sent = hashlib.sha256()
    raws: dict[str, list] = {t: [] for t in workloads.TYPES}
    # The run ends between rounds once `seconds` of scaled operation time are
    # done, so it does about the same work whatever the host's speed, or when
    # another round as long as the last would end after the wall deadline.
    scaled_total = last_round = 0.0
    with probe.SpeedProbe() as speed:
        wall_deadline = time.perf_counter() + WALL_LIMIT * seconds
        while not all(samples.values()) or (
                scaled_total < seconds
                and time.perf_counter() + last_round < wall_deadline):
            round_start = time.perf_counter()
            for op in next(rounds):
                sent.update(op.label.encode() + b"\n")
                t0 = time.perf_counter()
                result = attempt(op)
                dt, raw = speed.scale(t0, time.perf_counter())
                scaled_total += dt
                tally.record(op, result)
                samples[op.ctype].append(dt)
                raws[op.ctype].append(raw)
            last_round = time.perf_counter() - round_start
    for t in workloads.TYPES:
        print(f"raw type_s.{t} = {statistics.median(raws[t]):.6g} s")
    times = [t for ts in samples.values() for t in ts]
    print(f"{workload}: {len(times)} operations, operation list sha256 "
          f"{sent.hexdigest()[:16]}")
    metrics = {f"type_s.{t}": (statistics.median(ts), "s") for t, ts in samples.items()}
    metrics.update({
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * tail(times), "ms"),
    })
    print(f"op_tail_ms is over {len(times)} samples")
    return metrics


def run_traced(qsp, workload: str, seed: int, tally: Tally) -> dict:
    ops = list(itertools.islice(
        itertools.chain.from_iterable(ROUNDS[workload](qsp, seed)), TRACE_OPS[workload]))
    untraced = 0.0
    for op in ops:
        result, dt = timed(op)
        tally.record(op, result)
        untraced += dt
    tr = tracer.Tracer({"qsp": qsp, **{m: getattr(qsp, m) for m in MODULES}})
    # Each wrapped call adds a frame and the recursive normal-ordering entry
    # points are wrapped, so the traced engine needs twice the frames to reach
    # the same power of x before RecursionError.
    sys.setrecursionlimit(2 * sys.getrecursionlimit())
    tr.install()
    traced, per_op = 0.0, []
    try:
        for op in ops:
            with tr.op(op.label) as counts:
                result, dt = timed(op)
            tally.record(op, result)
            traced += dt
            per_op.append({"op": op.label, "seconds": dt, "counts": counts})
    finally:
        tr.uninstall()
    metrics = {}
    for name, (calls, _, self_s) in tr.stats.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics.update({name: (v, "ratio") for name, v in tr.ratios().items()})
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "untraced_s": untraced,
                   "traced_s": traced, "ops": per_op,
                   "aggregates": {n: dict(zip(("calls", "inclusive_s", "self_s"), s))
                                  for n, s in tr.stats.items()},
                   "counters": tr.counts, "spans": tr.spans}, fh, indent=1)
    if workload != "requests":
        for entry in per_op:
            print(f"{entry['op']}: {entry['seconds']:.3f} s traced; " + ", ".join(
                f"{name} {entry['counts'].get(name, 0)}" for name in PER_OP_COUNTS))
    print(f"trace written to {path.relative_to(ROOT)}; "
          f"untraced {untraced:.3f} s, traced {traced:.3f} s")
    return metrics


def run_workload(args) -> dict:
    qsp = load_engine()
    tally = Tally()
    if args.trace:
        metrics = run_traced(qsp, args.workload, args.seed, tally)
    else:
        setup = measure_setup()
        metrics = run_measured(qsp, args.workload, args.seed, args.seconds, tally)
        metrics["setup_s"] = (setup, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for error in tally.errors:
        print(f"wrong answer: {error}")
    print(f"failed_share = {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value if unit == 'count' else f'{value:.6g}'} {unit}")
    return {"correct": not tally.errors, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process; metrics under per-workload names."""
    rows, ok = [], True
    for workload in ROUNDS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, stdin=subprocess.DEVNULL)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and doc["correct"]
        metrics = doc["metrics"]
        for name, alias in ALIASES[workload].items():
            rows.append((alias, metrics[name]["value"], metrics[name]["unit"]))
        for name in SHARED:
            rows.append((f"{name}[{workload}]", metrics[name]["value"],
                         metrics[name]["unit"]))
        rows.append((f"failed_share[{workload}]", doc["failed"] / doc["attempted"], "1"))
        if workload == "requests":
            samples = doc["attempted"]   # every operation is timed
    for name, value, unit in rows:
        print(f"{name:<28} {value:12.6g} {unit}")
    print(f"request_tail_ms is over {samples} samples")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*ROUNDS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
