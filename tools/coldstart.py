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
is neither read nor written.  Prints one JSON object: the median wall time
of each series in milliseconds, and the modules each case loads beyond
``start`` with the same flags.

    python tools/coldstart.py > new.json
    python tools/coldstart.py --src ../other/src > old.json

``--src`` names the ``src`` directory whose ``qsp`` is run (default: the one
next to this script).  Standard library only.
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
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qsp")
    args = parser.parse_args()
    package = Path(args.src).resolve() / "qsp"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no qsp package in {args.src}")

    with tempfile.TemporaryDirectory() as tmp:
        # one copy compiled ahead and one run with -B, so it never gets a cache
        srcs = {}
        for bytecode in ("cached", "compiled"):
            srcs[bytecode] = Path(tmp, bytecode)
            shutil.copytree(package, srcs[bytecode] / "qsp",
                            ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(srcs["cached"], quiet=1)
        series = [(case, bytecode, site) for case in CASES
                  for bytecode in srcs for site in SITE]
        times = {key: [] for key in series}
        for _ in range(RUNS):
            for case, bytecode, site in series:
                flags = SITE[site] + (["-B"] if bytecode == "compiled" else [])
                t0 = time.perf_counter()
                child(srcs[bytecode], flags, CASES[case], stdout=subprocess.DEVNULL)
                times[case, bytecode, site].append(time.perf_counter() - t0)
        bare = {site: loaded(srcs["cached"], flags, CASES["start"])
                for site, flags in SITE.items()}
        modules = {case: {site: sorted(loaded(srcs["cached"], flags, code) - bare[site])
                          for site, flags in SITE.items()}
                   for case, code in CASES.items() if case != "start"}

    median_ms = {case: {bytecode: {site: round(1000 * statistics.median(
                     times[case, bytecode, site]), 1) for site in SITE} for bytecode in srcs}
                 for case in CASES}
    print(json.dumps({"python": sys.version.split()[0], "src": str(package.parent),
                      "runs": RUNS, "median_ms": median_ms, "modules": modules}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
