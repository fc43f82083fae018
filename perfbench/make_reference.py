"""Capture the reference answers the benchmark checks against.

    python3 perfbench/make_reference.py

Writes ``reference/catalog.json`` (the `verify --format json` report of each
type with ``elapsedMillis`` stripped) and ``reference/requests.json`` (a
digest of exit code and output for every pooled request whose answer is not
known in closed form).  The committed files were captured from the engine as
first seeded; regenerate them only when an answer is meant to change.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    qsp = run.load_engine()
    workloads.REFERENCE.mkdir(exist_ok=True)
    catalog = {t: workloads.strip_report(workloads.verify(qsp, t))
               for t in workloads.TYPES}
    with open(workloads.REFERENCE / "catalog.json", "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
    requests = {}
    for argv in (a for items in workloads.request_pool().values() for a in items):
        if workloads.expected(argv) is None:
            code, stdout, exc = workloads.call_cli(qsp, argv)
            if exc is not None:
                raise SystemExit(f"{argv} raised {exc!r}; choose inputs that do not fail")
            requests[" ".join(argv)] = workloads.digest(code, stdout)
    with open(workloads.REFERENCE / "requests.json", "w", encoding="utf-8") as fh:
        json.dump(requests, fh, indent=0, sort_keys=True)


if __name__ == "__main__":
    main()
