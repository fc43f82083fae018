"""Time heavy inputs of the engine: fresh interpreters that each run one
``qsp normalize`` on a product with large exponents.

Six inputs, each a ``qsp normalize`` through ``qsp.cli.run``, run RUNS
times: ``px^3*x^1000``, ``H^40``, ``(1+r)^2000*x`` and ``ith^20*dth^20`` at
type II, and ``ith^20*dth^20`` and ``px^3*x^1000`` at type III.  Each run
starts a fresh ``-I`` interpreter, so no environment variable or user site
directory reaches it, on a copy of the package compiled ahead: compiling
``qsp`` from source would add the compiler's own memory to the child's
peak, and hide the engine's.  The checkout's own ``__pycache__`` is neither
read nor written.

Prints one JSON object with one entry per tree, in ``--src`` order, and per
input: the median wall time of the child in seconds, the child's own peak
resident set in MB, its exit code, and the sha256 and length of its
standard output.  A child whose exit code or output differs between its
runs is an error.  The peak is ``VmHWM`` of ``/proc/self/status``, read by
the child as it ends: the high-water mark of its own address space.  Its
``ru_maxrss`` would not do: Linux starts it at the peak of the process
that spawned the child, about 20 MB for this script, as high as the
lighter inputs themselves.

    python tools/heavy.py > new.json
    python tools/heavy.py --src ../old/src --src src > both.json

``--src`` names a ``src`` directory whose ``qsp`` is run (default: the one
next to this script).  Given twice, it compares two trees: every run of an
input starts both trees, one right after the other and each first in
every other run, so that the host's drift over the minutes a comparison
takes falls on both alike.  Standard library only; Linux only (``/proc``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 6
INPUTS = [("II", "px^3*x^1000"), ("II", "H^40"), ("II", "(1+r)^2000*x"),
          ("II", "ith^20*dth^20"), ("III", "ith^20*dth^20"), ("III", "px^3*x^1000")]


def child(src: Path, argv: list[str], out) -> tuple[float, int, float]:
    """Run ``qsp`` on ``argv`` in a fresh interpreter, its standard output
    written to the file ``out``; return the wall time, the exit code and the
    peak resident set in MB."""
    # the child's last line of standard error is its VmHWM, in kB
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import qsp.cli; "
            f"code = qsp.cli.run({argv!r}); sys.stdout.flush(); "
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0], "
            "file=sys.stderr); sys.exit(code)")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-I", "-c", code], stdin=subprocess.DEVNULL,
                          stdout=out, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    return elapsed, proc.returncode, int(proc.stderr.split()[-1]) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append",
                        help="directory holding qsp; give it twice to compare two trees")
    args = parser.parse_args()
    given = args.src or [str(ROOT / "src")]
    if len(given) > 2:
        sys.exit("error: --src compares at most two trees")
    packages = [Path(src).resolve() / "qsp" for src in given]
    for src, package in zip(given, packages):
        if not (package / "__init__.py").is_file():
            sys.exit(f"error: no qsp package in {src}")

    trees = range(len(packages))
    with tempfile.TemporaryDirectory() as tmp:
        srcs = []
        for tree, package in zip(trees, packages):
            srcs.append(Path(tmp, str(tree)))
            shutil.copytree(package, srcs[tree] / "qsp",
                            ignore=shutil.ignore_patterns("__pycache__"))
            compileall.compile_dir(srcs[tree], quiet=1)
        runs = {(tree, inp): [] for tree in trees for inp in INPUTS}
        outputs = {key: set() for key in runs}
        stdout = Path(tmp, "stdout")
        for run in range(RUNS):
            for inp in INPUTS:
                # alternate which tree runs first, so that an order effect
                # falls on both
                for tree in trees if run % 2 == 0 else reversed(trees):
                    with stdout.open("wb") as out:
                        elapsed, code, rss = child(srcs[tree], ["normalize", "--type", *inp], out)
                    data = stdout.read_bytes()
                    runs[tree, inp].append((elapsed, rss))
                    outputs[tree, inp].add((code, hashlib.sha256(data).hexdigest(), len(data)))
        report = []
        for tree, package in zip(trees, packages):
            results = []
            for inp in INPUTS:
                if len(outputs[tree, inp]) > 1:
                    sys.exit(f"error: {package.parent}: normalize --type {' '.join(inp)} "
                             "answered differently between runs")
                ((code, digest, length),) = outputs[tree, inp]
                elapsed, rss = zip(*runs[tree, inp])
                results.append({"type": inp[0], "input": inp[1],
                                "median_s": round(statistics.median(elapsed), 3),
                                "peak_rss_mb": round(statistics.median(rss), 1),
                                "exit": code, "stdout_sha256": digest, "stdout_bytes": length})
            report.append({"src": str(package.parent), "inputs": results})

    print(json.dumps({"python": sys.version.split()[0], "runs": RUNS, "trees": report},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
