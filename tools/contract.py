"""Dump the output contract of the engine to one JSON file.

Runs a fixed list of invocations in process through ``qsp.cli.run`` and
records each one's exit code, standard output and standard error, with every
``elapsedMillis`` value masked, plus the length-4 confluence-audit counts at
types I, II and III.  Two trees hold the same contract when their dumps are
byte-identical:

    python tools/contract.py new.json
    python tools/contract.py --src ../other/src old.json
    cmp old.json new.json

``--src`` names the ``src`` directory whose ``qsp`` is imported (default:
the one next to this script).  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = (["--type", "I"], ["--type", "II"], ["--type", "III"],
           ["--type", "II", "--param", "r=1"], ["--type", "III", "--param", "p=1"],
           ["--type", "II", "--param", "r=1/2"], ["--type", "III", "--param", "p=2/3"])
ELAPSED = re.compile(r'("elapsedMillis": )\d+')


def invocations() -> list[list[str]]:
    out = [["verify", *config, "--format", fmt] for config in CONFIGS for fmt in ("text", "json")]
    out.append(["solve-types"])
    pins = json.loads((ROOT / "tests" / "golden" / "console_pins.json").read_text())
    return out + [pin["argv"] for pin in pins]


def invoke(run, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": ELAPSED.sub(r"\1*", out.getvalue()),
            "stderr": err.getvalue()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="the JSON file to write")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qsp")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    os.environ["COLUMNS"] = "80"   # argparse wraps its messages to the terminal width
    from qsp.algebra import CalculusType, build_rule_table, local_confluence_check
    from qsp.cli import run

    audit = {}
    for name in ("I", "II", "III"):
        report = local_confluence_check(build_rule_table(CalculusType.by_name(name)), 4)
        audit[name] = [report.words_checked, report.branch_pairs, len(report.violations)]
    doc = {"invocations": [invoke(run, argv) for argv in invocations()], "audit": audit}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
