"""Time a cold start of the engine: fresh interpreters that import qsp and do
one thing.

Four cases, each run RUNS times in fresh interpreters, alternating between
the cases:

- ``start``: nothing, the interpreter's own start, which the other cases
  include;
- ``setup``: ``import qsp`` and build the type-II rule table (the
  benchmark's ``setup_s``);
- ``normalize``: ``qsp normalize px*x`` through ``qsp.cli.run``;
- ``verify``: ``qsp verify --type II`` through ``qsp.cli.run``.

Each case runs with ``site`` and without it (``-S``), and with the package's
bytecode cached and compiled from source on every start.  The children run
``-I``, so no environment variable or user site directory reaches them, on a
copy of the package made for the purpose; the checkout's own ``__pycache__``
is neither read nor written.  Prints one JSON object with one entry per
tree, in ``--src`` order: the median wall time of each series in
milliseconds, and the modules each case loads beyond ``start`` with the
same flags.

    python tools/coldstart.py > new.json
    python tools/coldstart.py --src ../old/src --src src > both.json

``--src`` names a ``src`` directory whose ``qsp`` is run (default: the one
next to this script).  Given twice, it compares two trees: every run of a
series starts both trees, one right after the other, so that the host's
drift over the minutes a comparison takes falls on both alike.  Standard
library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 30
CASES = {
    "start": "pass",
    "setup": "import qsp; qsp.build_rule_table(qsp.CalculusType.by_name('II'))",
    "normalize": "import qsp.cli; sys.exit(qsp.cli.run(['normalize', 'px*x']))",
    "verify": "import qsp.cli; sys.exit(qsp.cli.run(['verify', '--type', 'II']))",
}
SITE = {"site": ["-I"], "nosite": ["-I", "-S"]}


def child(src: Path, flags: list[str], code: str, **kwargs) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(src)!r}); "
    return subprocess.run([sys.executable, *flags, "-c", prelude + code], check=True,
                          stdin=subprocess.DEVNULL, **kwargs)


def loaded(src: Path, flags: list[str], code: str) -> set[str]:
    """The modules in ``sys.modules`` once ``code`` has run."""
    # atexit runs after sys.exit, and it is loaded already
    out = child(src, flags, "import atexit; atexit.register(lambda: print(*sys.modules)); "
                + code, capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split())


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
    bytecodes = ("cached", "compiled")
    with tempfile.TemporaryDirectory() as tmp:
        # per tree, one copy compiled ahead and one run with -B, so it never
        # gets a cache
        srcs = {}
        for tree, package in zip(trees, packages):
            for bytecode in bytecodes:
                srcs[tree, bytecode] = Path(tmp, str(tree), bytecode)
                shutil.copytree(package, srcs[tree, bytecode] / "qsp",
                                ignore=shutil.ignore_patterns("__pycache__"))
                if bytecode == "cached":
                    compileall.compile_dir(srcs[tree, bytecode], quiet=1)
        series = [(case, bytecode, site) for case in CASES
                  for bytecode in bytecodes for site in SITE]
        times = {(tree, *key): [] for tree in trees for key in series}
        for _ in range(RUNS):
            for case, bytecode, site in series:
                flags = SITE[site] + (["-B"] if bytecode == "compiled" else [])
                for tree in trees:
                    t0 = time.perf_counter()
                    child(srcs[tree, bytecode], flags, CASES[case], stdout=subprocess.DEVNULL)
                    times[tree, case, bytecode, site].append(time.perf_counter() - t0)
        report = []
        for tree, package in zip(trees, packages):
            cached = srcs[tree, "cached"]
            bare = {site: loaded(cached, flags, CASES["start"]) for site, flags in SITE.items()}
            modules = {case: {site: sorted(loaded(cached, flags, code) - bare[site])
                              for site, flags in SITE.items()}
                       for case, code in CASES.items() if case != "start"}
            median_ms = {case: {bytecode: {site: round(1000 * statistics.median(
                             times[tree, case, bytecode, site]), 1) for site in SITE}
                                for bytecode in bytecodes}
                         for case in CASES}
            report.append({"src": str(package.parent), "median_ms": median_ms,
                           "modules": modules})

    print(json.dumps({"python": sys.version.split()[0], "runs": RUNS, "trees": report},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
