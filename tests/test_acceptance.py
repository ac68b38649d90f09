"""Acceptance gate: one test per criterion, each with its stated time bound.

Run `pytest -v tests/test_acceptance.py` for one pass/fail line per
criterion. Every assertion is exact; floats appear only in the timers.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from commlab.bt_tree import (
    act,
    ball,
    base_vertex,
    busemann,
    commutator_pigeonhole,
    distance,
    translation_length,
    TreeVertex,
)
from commlab.cli import main
from commlab.diagnostics import GS_TAG, integral_trace_scan, long_reid_pair, two_gen_probe
from commlab.exact_core import Mat2, vp
from commlab.lu_lab import knapp, lu_generators, relator_search
from commlab.report import dumps_canonical
from commlab.words import (
    Word,
    evaluate,
    iter_words,
    iter_words_with_matrices,
    parse_word,
)
from helpers import naive_relator_search, necklace_oracle

REPO = Path(__file__).resolve().parent.parent

A = 0
Ai = 1
B = 2
Bi = 3


class timer:
    """Asserts the body ran inside the criterion's stated bound."""

    def __init__(self, bound_s):
        self.bound = bound_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.bound, f"time bound exceeded: {elapsed:.1f}s >= {self.bound}s"
        return False


def test_criterion_1_knapp_sweep():
    with timer(1):
        discrete = {}
        for num in (1, 2, 3, 4, 5, 6, 7):
            q = Fraction(num, 2)
            v = knapp(q)
            if v.verdict == "discrete":
                discrete[q] = v.n
            else:
                assert v.n is None
        assert discrete == {Fraction(1): 3, Fraction(2): 4, Fraction(3): 6}


def test_criterion_2_relators_across_the_window():
    with timer(60):
        # q = 1: two relator classes share the minimal length 6 forced by
        # Cayley-Hamilton; (a b^-1)^3 is one of them, and the canonical
        # tie-break returns the lexicographically least, (a^2 b^-1)^2
        ab1 = lu_generators(1)
        res1 = relator_search(ab1, 6)
        assert res1.status == "relator-found"
        assert len(res1.relator) == 6 and res1.scalar == -1
        assert res1.relator == Word((A, A, Bi, A, A, Bi))
        cube = parse_word("a b^-1 a b^-1 a b^-1", ab1)
        assert evaluate(cube, ab1) == Mat2.identity().scale(-1)
        print(f"q=1: relator {res1.relator.letters} (scalar {res1.scalar}); "
              f"(a b^-1)^3 independently verified scalar")

        res2 = relator_search(lu_generators(2), 6)
        assert res2.status == "relator-found"
        assert res2.relator == Word((A, Bi, A, Bi)) and res2.scalar == -1

        res3 = relator_search(lu_generators(3), 6)
        assert res3.status == "relator-found"
        assert res3.relator == Word((A, Bi, A, Bi, A, Bi)) and res3.scalar == 1

        for q in (4, Fraction(9, 2)):
            free = relator_search(lu_generators(q), 12)
            assert free.status == "none-found"
            assert free.completed_length == 12


def test_criterion_3_search_oracle_equivalence():
    with timer(120):
        cases = [lu_generators(Fraction(1, 2)), lu_generators(2), long_reid_pair()]
        for alphabet in cases:
            fast = relator_search(alphabet, 8)
            slow = naive_relator_search(alphabet, 8)
            assert fast.status == slow.status
            assert fast.relator == slow.relator
            assert fast.scalar == slow.scalar
            shared = set(fast.images_per_length) & set(slow.images_per_length)
            assert shared
            for n in sorted(shared):
                assert fast.images_per_length[n] == slow.images_per_length[n], n
                assert fast.words_per_length[n] == slow.words_per_length[n], n


def test_criterion_4_long_reid_traces():
    with timer(60):
        ab = long_reid_pair()
        a, b = ab.matrices
        assert a.trace() == Fraction(10, 3)
        assert b.trace() == Fraction(83, 8)
        assert (a * b).trace() == Fraction(91, 24)
        for t in (a.trace(), b.trace(), (a * b).trace()):
            assert min(vp(t, 2), vp(t, 3)) < 0  # non-integral at {2, 3}

        scan = integral_trace_scan(ab, (2, 3), 6)
        # independent brute force over all words, closed into necklace classes
        oracle = set()
        for w, m in iter_words_with_matrices(ab, 6):
            if len(w) == 0:
                continue
            t = m.trace()
            if vp(t, 2) >= 0 and vp(t, 3) >= 0:
                oracle.add(necklace_oracle(w))
        assert {h[0] for h in scan.hits} == oracle
        # no nontrivial hits: everything found is trace-0 projective torsion
        for w, t, _ in scan.hits:
            assert t == 0


def test_criterion_5_tree_consistency():
    with timer(60):
        ab = lu_generators(Fraction(1, 2))
        rng = random.Random(20260819)
        pool = [w for w in iter_words(2, 6) if len(w) >= 1]
        sample = rng.sample(pool, 50)
        v0 = base_vertex(2)
        b6 = ball(v0, 6)
        for w in sample:
            g = evaluate(w, ab)
            ball_min = min(distance(v, act(g, v)) for v in b6)
            assert translation_length(g, 2) == ball_min, w

        verts = list(ball(v0, 4))
        for _ in range(200):
            u, v, w = (rng.choice(verts) for _ in range(3))
            assert distance(u, v) == distance(v, u) >= 0
            assert (distance(u, v) == 0) == (u == v)
            assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_criterion_6_busemann_and_pigeonhole():
    with timer(10):
        rng = random.Random(97)

        def upper(rng):
            nz = lambda: Fraction(rng.choice([x for x in range(-9, 10) if x]), rng.randint(1, 9))
            return Mat2(nz(), Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 0, nz())

        for p in (2, 3):
            for _ in range(100):
                g, h = upper(rng), upper(rng)
                assert busemann(g * h, p) == busemann(g, p) + busemann(h, p)

        x = Mat2(1, 0, 1, 1)
        y = Mat2(1, Fraction(1, 2), 0, 1)
        v = TreeVertex(2, -1, 0)  # y's fixed vertex
        assert act(y, v) == v
        res = commutator_pigeonhole(x, y, v)
        assert res.steps <= res.ball_bound
        assert act(res.z, v) == v
        assert res.z == x * y**res.k * x.inverse() * y**-res.k


def test_criterion_7_probe():
    with timer(10):
        g = Mat2(2, 1, 1, 1)
        h = Mat2(1, Fraction(1, 8), 0, 1)
        rep = two_gen_probe(g, h, 2)
        c1, c2, c3, c4 = rep.checks
        assert c1.passed and c1.data["trace"] == 3
        assert c2.passed and c2.data["dimension"] == 9
        # tr[h, g] - 2 = 1/64 < 1: Jorgensen's inequality fails, and g h g^-1 h is elliptic
        # of infinite order
        assert c3.passed and c3.data["word"] == Word((A, B, Ai, B))
        assert c4.passed and c4.data["valuation"] == -3
        assert c4.data["word"] == Word((A, B))  # g h itself
        assert rep.decisive_pass
        assert GS_TAG in rep.message
        assert rep.message.endswith("conditional on the Greenberg-Shalom hypothesis")


def test_criterion_8_deterministic_goldens(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    cases = json.loads((REPO / "tests" / "golden" / "cases.json").read_text())
    for fname, argv in cases.items():
        golden = (REPO / "tests" / "golden" / fname).read_text(encoding="utf-8")
        outputs = []
        for _ in range(3):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, fname
            doc = json.loads(out)
            doc["timing_ms"] = 0
            outputs.append(dumps_canonical(doc))
        assert outputs[0] == outputs[1] == outputs[2] == golden, fname
