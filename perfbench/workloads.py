"""Seeded workload generators and their seed-independent checks.

A workload turns a seed into a list of commands: CLI argument lists for
`commlab`, plus any generator file written into the benchmark's work
directory. The program sees only those arguments and files. Each command
carries a check that compares its exit code and report with a result that
does not depend on the seed, and returns an error message or None.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

# The no-search command whose wall time is setup_s.
SETUP_ARGV = ("lu", "knapp", "--q", "2")

# Delta_q with |q| >= 4 is free by ping-pong, so no level collides.
MITM_Q = ("9/2", "-9/2", "11/2", "-11/2", "13/2", "-13/2", "15/2", "-15/2")

# The long-reid pair, in SL(2, Z[1/6]).
LONG_REID = (
    ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1, 3))),
    ((Fraction(1, 8), Fraction(9)), (Fraction(1, 32), Fraction(41, 4))),
)

# `diag traces --builtin long-reid --primes 2,3 --max-len 9` on the seed
# commit. Traces are conjugation-invariant, so every conjugate of the pair
# must give exactly these classes, hits and hit rows.
TRACE_CLASSES_9 = {"1": 2, "2": 4, "3": 6, "4": 13, "5": 26, "6": 66, "7": 158, "8": 418, "9": 1098}
TRACE_HITS_9 = [
    {"length": 4, "trace": "0", "valuations": {"2": "inf", "3": "inf"},
     "word": "a b a^-1 b^-1"},
    {"length": 8, "trace": "-2", "valuations": {"2": "1", "3": "0"},
     "word": "a b a^-1 b^-1 a b a^-1 b^-1"},
]

_TIMING_RE = re.compile(r'^(  "timing_ms": )\d+', re.MULTILINE)

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    work_units: int      # deterministic work per pass, for work_per_s
    work_unit: str


def _report(code, text, want_code=0):
    """Parse a report; return (doc, None) or (None, error message)."""
    if code != want_code:
        return None, f"exit {code}, expected {want_code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        return None, f"stdout is not JSON: {e.msg}"
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list) or not doc["results"]:
        return None, "report has no results"
    return doc, None


def _mismatch(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _first_error(*errors):
    return next((e for e in errors if e), None)


def check_setup(code, text):
    doc, err = _report(code, text)
    return err or _mismatch("knapp verdict", doc["results"][0].get("verdict"), "discrete")


# --- SL(2, Z) conjugators -------------------------------------------------


def _mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _inverse_det1(m):
    return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))


def random_sl2z(rng):
    """A product of 4 alternating elementary matrices with entries +-1, +-2."""
    m = ((1, 0), (0, 1))
    upper = rng.random() < 0.5
    for _ in range(4):
        x = rng.choice((-2, -1, 1, 2))
        m = _mul(m, ((1, x), (0, 1)) if upper else ((1, 0), (x, 1)))
        upper = not upper
    return m


def conjugate(m, g):
    return _mul(_mul(m, g), _inverse_det1(m))


def write_generators(path, gens):
    """Write a generator file of named 2x2 rational matrices."""
    doc = {"generators": [
        {"name": name, "matrix": [[str(Fraction(e)) for e in row] for row in mat]}
        for name, mat in gens
    ]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# --- workloads ------------------------------------------------------------


def reduced_words(num_gens, max_len, min_len=0):
    """Number of reduced words of length min_len..max_len in num_gens generators."""
    k = 2 * num_gens
    return sum(1 if n == 0 else k * (k - 1) ** (n - 1) for n in range(min_len, max_len + 1))


def mitm_free(seed, workdir, max_len=18):
    q = random.Random(seed).choice(MITM_Q)
    half = (max_len + 1) // 2
    per_length = {str(n): reduced_words(2, n, n) for n in range(half + 1)}

    def check(code, text):
        doc, err = _report(code, text)
        if err:
            return err
        r = doc["results"][0]
        return _first_error(
            _mismatch("status", r.get("status"), "none-found"),
            _mismatch("completed_length", r.get("completed_length"), max_len),
            _mismatch("words_per_length", r.get("words_per_length"), per_length),
            _mismatch("images_per_length", r.get("images_per_length"), per_length),
        )

    argv = ("lu", "relators", "--q", q, "--max-len", str(max_len))
    return Workload("mitm-free", (Command("relators", argv, check),),
                    reduced_words(2, half), "reduced words")


def trace_scan(seed, workdir, max_len=9, classes=None, hits=None):
    """classes and hits default to the max-len 9 constants above; smaller
    sizes pass the unconjugated long-reid result as their expectation."""
    if classes is None:
        classes, hits = TRACE_CLASSES_9, TRACE_HITS_9
    m = random_sl2z(random.Random(seed))
    path = os.path.join(workdir, "trace-scan-gens.json")
    write_generators(path, [(n, conjugate(m, g)) for n, g in zip("ab", LONG_REID)])

    def check(code, text):
        doc, err = _report(code, text)
        if err:
            return err
        r = doc["results"][0]
        want_hits = {str(n): 0 for n in range(1, max_len + 1)}
        for h in hits:
            want_hits[str(h["length"])] += 1
        return _first_error(
            _mismatch("classes_per_length", r.get("classes_per_length"), classes),
            _mismatch("hits_per_length", r.get("hits_per_length"), want_hits),
            _mismatch("hits", r.get("hits"), hits),
        )

    argv = ("diag", "traces", "--gens", path, "--primes", "2,3", "--max-len", str(max_len))
    return Workload("trace-scan", (Command("traces", argv, check),),
                    reduced_words(2, max_len, 1), "reduced words")


def tree_orbit(seed, workdir, k=8, p=3):
    """A conjugate of SL(2, Z) moved k steps off the base vertex: the orbit of
    the base vertex is a whole sphere of radius k, at distance up to 2k."""
    m = random_sl2z(random.Random(seed))
    u = ((Fraction(1), Fraction(1, p ** k)), (Fraction(0), Fraction(1)))
    l = ((Fraction(1), Fraction(0)), (Fraction(p ** k), Fraction(1)))
    path = os.path.join(workdir, "tree-orbit-gens.json")
    write_generators(path, [("a", conjugate(m, u)), ("b", conjugate(m, l))])
    size = (p + 1) * p ** (k - 1)

    def check(code, text):
        doc, err = _report(code, text)
        if err:
            return err
        r = doc["results"][0]
        orbit = r.get("orbit") or []
        return _first_error(
            _mismatch("status", r.get("status"), "bounded"),
            _mismatch("orbit_size", r.get("orbit_size"), size),
            _mismatch("distinct orbit vertices", len(set(orbit)), size),
            _mismatch("radius_seen", r.get("radius_seen"), 2 * k),
        )

    argv = ("tree", "orbit", "--gens", path, "--p", str(p), "--radius", str(2 * k))
    return Workload("tree-orbit", (Command("orbit", argv, check),), size, "orbit vertices")


def golden_mix(seed, workdir, golden_dir=os.path.join("tests", "golden")):
    """The golden CLI cases in a seed-permuted order, run from the repo root."""
    with open(os.path.join(golden_dir, "cases.json"), encoding="utf-8") as fh:
        cases = sorted(json.load(fh).items())
    random.Random(seed).shuffle(cases)
    commands = []
    for fname, argv in cases:
        with open(os.path.join(golden_dir, fname), encoding="utf-8") as fh:
            golden = fh.read()

        def check(code, text, golden=golden):
            if code != 0:
                return f"exit {code}, expected 0"
            return None if _TIMING_RE.sub(r"\g<1>0", text, count=1) == golden \
                else "report differs from its golden file"

        commands.append(Command(fname, tuple(argv), check))
    return Workload("golden-mix", tuple(commands), len(commands), "commands")


GENERATORS = {
    "mitm-free": mitm_free,
    "trace-scan": trace_scan,
    "tree-orbit": tree_orbit,
    "golden-mix": golden_mix,
}
