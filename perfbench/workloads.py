"""The three workloads: what one operation runs and how its answer is checked.

Each workload is an endless sequence of rounds, lists of operations: one
operation per type on `catalog` and `confluence`, one pass over the whole
request pool on `requests`.  A run ends between rounds, so every run sends
the same mix.  The seed orders the requests; the catalog and the audit have
nothing to draw from it.

Every operation goes through the package's public functions, looked up at
call time, so the tracer's wrappers see the same calls a user's would.
An operation's check returns ``None`` when the answer is right, ``KNOWN``
when it is one of the documented defect inputs failing the documented way,
and a description of the failure otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TYPES = ("I", "II", "III")
KNOWN = "known defect"
REFERENCE = Path(__file__).resolve().parent / "reference"

# Certificates that fail on purpose at each type (README of the engine).
CERTIFICATE_FAILS = {"I": 1, "II": 4, "III": 11}
AUDIT_COUNTS = (4969, 5386)   # words checked and branch pairs at length 4


@dataclass
class Op:
    label: str
    ctype: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _load(name: str) -> dict:
    with open(REFERENCE / name, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------------
# catalog: `qsp verify --type T`, one fresh table per type
# ----------------------------------------------------------------------------

def strip_report(report: bytes) -> dict:
    doc = json.loads(report)
    for row in doc["results"]:
        del row["elapsedMillis"]
    return doc


def verify(qsp, ctype: str) -> bytes:
    # A fresh process starts with an empty ansatz-system cache; clear it so
    # every operation pays what `qsp verify` pays.
    cached = getattr(qsp.calculus, "_ansatz_system", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()
    rt = qsp.build_rule_table(qsp.CalculusType.by_name(ctype))
    results = qsp.run_suite(rt, bound=6)
    return qsp.emit_report(results, "json", ctype)


def catalog_rounds(qsp, seed: int):
    reference = _load("catalog.json")

    def make(ctype: str) -> Op:
        def check(report: bytes):
            doc = strip_report(report)
            fails = [r["id"] for r in doc["results"] if r["status"] == "FAIL"]
            if (len(fails) != CERTIFICATE_FAILS[ctype]
                    or not all(i.endswith("-as-printed") for i in fails)):
                return f"type {ctype}: unexpected FAIL set {fails}"
            if doc != reference[ctype]:
                return f"type {ctype}: report differs from the reference"
            return None
        return Op(f"verify {ctype}", ctype, lambda: verify(qsp, ctype), check)

    while True:
        yield [make(ctype) for ctype in TYPES]


# ----------------------------------------------------------------------------
# confluence: the length-4 local-confluence audit
# ----------------------------------------------------------------------------

def confluence_rounds(qsp, seed: int):
    def make(ctype: str) -> Op:
        def run():
            rt = qsp.build_rule_table(qsp.CalculusType.by_name(ctype))
            return qsp.local_confluence_check(rt, 4)

        def check(report):
            got = (report.words_checked, report.branch_pairs)
            if got != AUDIT_COUNTS or report.violations:
                return (f"type {ctype}: {got} words/pairs, "
                        f"{len(report.violations)} violations")
            return None
        return Op(f"audit {ctype}", ctype, run, check)

    while True:
        yield [make(ctype) for ctype in TYPES]


# ----------------------------------------------------------------------------
# requests: one-shot CLI requests from a seeded closed loop
# ----------------------------------------------------------------------------

POOL_SEED = 2006
KMAX = 24                      # |k| bound on x^k in ordinary requests
POWER_KS = (100, 200, 300, 400)  # x^k in power requests, below the recursion limit
LETTERS = ("x", "th", "dx", "dth", "d", "px", "pth", "ix", "ith")
COORD = ("x", "th")
FORMS = ("x", "th", "dx", "dth")
DERIVED = ("H", "Nb", "T", "Lx", "Lth", "wx", "wth")
PARAM = {"II": "r=1", "III": "p=1"}
Q_SYMBOL = {"I": "1", "II": "r", "III": "p"}
COMMANDS = ("normalize", "check", "act", "coproduct", "pair")
# Each block of the stream holds these commands in a seeded order, plus one
# power request: about 1 request in 12 is a power request.
BLOCK = ("normalize",) * 3 + ("check", "act", "coproduct", "pair") * 2
# A pass over the pool is one block per power request (48 blocks, 576
# requests, about 20 s), each ordinary request once, so every run sends the
# same mix and the tail does not hang on which heavy requests a seed drew.
PASS_BLOCKS = len(POWER_KS) * len(TYPES) * 4
POOL_SIZES = {c: BLOCK.count(c) * PASS_BLOCKS for c in COMMANDS}
# Known defects, present in every stream, with the answer they should give
# and the exception they raise at the seed.  `normalize "x^99999999"` is left
# out: it does not finish in 20 s, longer than a run.
DEFECTS = {
    ("normalize", "--type", "II", "1/0"): (2, "", "ZeroDivisionError"),
    ("normalize", "--type", "II", "x^2000*dx"):
        (0, "r^2000*dx*x^2000\n", "RecursionError"),
}
_DX_POWER = re.compile(r"x\^([1-9]\d{2,})\*dx")   # k >= 100: power requests


def _typespec(rng: random.Random) -> list:
    ctype = rng.choice(TYPES)
    spec = ["--type", ctype]
    if ctype != "I" and rng.random() < 3 / 8:   # a quarter of all requests
        spec += ["--param", PARAM[ctype]]
    return spec


def _word(rng: random.Random, letters, lo: int = 2, hi: int = 4) -> str:
    out = []
    for _ in range(rng.randint(lo, hi)):
        letter = rng.choice(letters)
        if letter == "x":
            letter = f"x^{rng.choice([k for k in range(-KMAX, KMAX + 1) if k])}"
        out.append(letter)
    return "*".join(out)


def _request(rng: random.Random, command: str) -> tuple:
    spec = _typespec(rng)
    if command == "normalize":
        return ("normalize", *spec, _word(rng, LETTERS))
    if command == "check":
        a, b, c = (_word(rng, LETTERS) for _ in range(3))
        return ("check", *spec, f"({a})*({b})*({c}) == ({a})*(({b})*({c}))")
    if command == "act":
        op = rng.choice(DERIVED) if rng.random() < 0.5 else _word(rng, LETTERS)
        return ("act", *spec, op, _word(rng, FORMS))
    if command == "coproduct":
        return ("coproduct", *spec, _word(rng, COORD))
    dual = []
    for _ in range(rng.randint(1, 3)):
        g = rng.choice(("T", "K", "Nb"))
        dual.append(g if g == "Nb" else f"{g}^{rng.choice((-3, -2, -1, 1, 2, 3))}")
    return ("pair", *spec, "*".join(dual), _word(rng, COORD))


def request_pool() -> dict:
    """Ordinary requests per command, and power requests, in a fixed order."""
    rng = random.Random(POOL_SEED)
    pool = {c: [_request(rng, c) for _ in range(POOL_SIZES[c])] for c in COMMANDS}
    pool["power"] = [
        form
        for k in POWER_KS
        for ctype in TYPES
        for form in (("normalize", "--type", ctype, f"x^{k}*dx"),
                     ("normalize", "--type", ctype, f"px*x^{k}"),
                     ("act", "--type", ctype, "H", f"x^{k}*th"),
                     ("normalize", "--type", ctype, f"ix*x^-{k}*th"))
    ]
    return pool


def request_stream(seed: int):
    """The endless request stream for this seed, in passes over the pool.

    The defect inputs sit in the first block, so every run sends them.
    """
    rng = random.Random(seed)
    pool = request_pool()
    first = True
    while True:
        decks = {c: iter(rng.sample(items, len(items))) for c, items in pool.items()}
        stream: list = []
        for _ in range(PASS_BLOCKS):
            block = list(BLOCK)
            rng.shuffle(block)
            block = [next(decks[c]) for c in block]
            block.insert(rng.randrange(len(block) + 1), next(decks["power"]))
            stream.extend(block)
        if first:
            for defect in DEFECTS:
                stream.insert(rng.randrange(len(BLOCK) + 2), defect)
            first = False
        yield stream


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


def expected(argv: tuple):
    """(exit code, stdout) known without the engine, or None."""
    if argv in DEFECTS:
        return DEFECTS[argv][:2]
    if argv[0] == "check":   # associativity holds by theorem
        return 0, "PASS  residual 0\n"
    power = _DX_POWER.fullmatch(argv[-1])
    if argv[0] == "normalize" and power:   # from the rule x*dx = Q*dx*x
        k = power.group(1)
        q = "1" if "--param" in argv else Q_SYMBOL[argv[2]]
        return 0, (f"dx*x^{k}\n" if q == "1" else f"{q}^{k}*dx*x^{k}\n")
    return None


def call_cli(qsp, argv: tuple):
    """Run one request the way the console entry point does."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qsp.cli.run(list(argv))
    except Exception as exc:   # an escaped exception is a failed request
        return None, out.getvalue(), exc
    return code, out.getvalue(), None


def request_rounds(qsp, seed: int):
    reference = _load("requests.json")

    def make(argv: tuple) -> Op:
        want = expected(argv)
        if want is None:
            want = reference.get(" ".join(argv))
            if want is None:
                raise KeyError(f"no reference answer for {argv}")

        def check(result):
            code, stdout, exc = result
            if exc is not None:
                if argv in DEFECTS and type(exc).__name__ == DEFECTS[argv][2]:
                    return KNOWN
                return f"{argv}: {type(exc).__name__}: {exc}"
            got = (code, stdout) if isinstance(want, tuple) else digest(code, stdout)
            if got != want:
                return f"{argv}: exit {code}, output {stdout[:80]!r}"
            return None
        ctype = argv[argv.index("--type") + 1]
        return Op(" ".join(argv), ctype, lambda: call_cli(qsp, argv), check)

    for stream in request_stream(seed):
        yield [make(argv) for argv in stream]
