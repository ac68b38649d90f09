"""The integer-form word scans against the Mat2 walks they replaced.

Each library scan (the real and finite place status, the probe's check 4,
the orbit's witness search) is compared with its reference copy in helpers on
seeded generator sets: 1 to 3 generators of det 1, of any det and of negative
det, with denominators 2, 3, 4, 6, 8, 9 and 27, plus long-reid, Delta_q and a
few sets chosen for one branch each. Every scan decides a property of
conjugacy classes, so each set also gives the same reports as a seeded
conjugate of it.
"""

import random
import re
from fractions import Fraction

import pytest

from commlab.bt_tree import first_loxodromic, orbit_bounded
from commlab.diagnostics import (
    _finite_place_status,
    _real_place_status,
    integral_trace_scan,
    long_reid_pair,
    two_gen_probe,
)
from commlab.exact_core import Mat2
from commlab.lu_lab import lu_generators
from commlab.words import Alphabet, Word
from helpers import (
    assert_closed_under_generators,
    denominator_primes,
    finite_place_oracle,
    orbit_oracle,
    probe_check4_oracle,
    real_place_oracle,
)

DENS = (2, 3, 4, 6, 8, 9, 27)
MAX_LEN, RADIUS, PRIMES = 5, 2, (2, 3)


def _shear_product(rng, dens):
    m = Mat2.identity()
    for i in range(3):
        x = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice(dens))
        m = m * (Mat2(1, x, 0, 1) if i % 2 else Mat2(1, 0, x, 1))
    return m


def _any_det(rng, negative):
    while True:
        m = Mat2(*(Fraction(rng.randint(-9, 9), rng.choice((1,) + DENS)) for _ in range(4)))
        det = m.det()
        if det != 0 and (not negative or det < 0):
            return m


def _seeded_set(seed):
    rng = random.Random(seed)
    k = 1 + seed % 3
    kind = (seed // 3) % 3
    # det-1 sets take p-power denominators on even seeds, so the probe applies
    dens = DENS if seed % 2 else rng.choice(((2, 4, 8), (3, 9, 27)))
    if kind == 0:
        mats = [_shear_product(rng, dens) for _ in range(k)]
    else:
        mats = [_any_det(rng, kind == 2) for _ in range(k)]
    return Alphabet("abc"[:k], mats)


def _named_sets():
    s = Mat2(0, -1, 1, 0)
    return [
        long_reid_pair(),
        *(lu_generators(Fraction(q)) for q in ("1/2", "1/3", "3", "9/2")),
        # s^2 = -I: a scalar word that is integral with unit det
        Alphabet("ab", (s, Mat2(1, Fraction(1, 2), 0, 1))),
        # bounded at 2 about a vertex at distance 3 from v0
        Alphabet("ab", (Mat2(1, Fraction(1, 8), 0, 1), Mat2(1, 0, 8, 1))),
        # bounded at 2 within radius 2; its parabolic is not integral below length 4
        Alphabet("b", (Mat2(1, Fraction(1, 4), 0, 1),)),
        # det 2: edge inversions, odd valuation of det
        Alphabet("ab", (Mat2(0, 1, 2, 0), Mat2(1, Fraction(1, 3), 0, 1))),
    ]


SETS = [_seeded_set(seed) for seed in range(63)] + _named_sets()


def test_the_sets_cover_every_kind():
    dets = [m.det() for ab in SETS for m in ab.matrices]
    assert len(SETS) >= 60
    assert {len(ab) for ab in SETS} == {1, 2, 3}
    assert any(d == 1 for d in dets) and any(d < 0 for d in dets)
    assert any(d > 0 and d != 1 for d in dets)
    dens = {e.denominator for ab in SETS for m in ab.matrices for e in m.entries()}
    assert set(DENS) <= dens


@pytest.mark.parametrize("ab", SETS)
def test_real_place_status_matches_mat2_walk(ab):
    assert _real_place_status(ab, MAX_LEN) == real_place_oracle(ab, MAX_LEN)


@pytest.mark.parametrize("ab", SETS)
def test_finite_place_status_matches_mat2_walk(ab):
    for p in PRIMES:
        assert _finite_place_status(ab, p, MAX_LEN) == finite_place_oracle(ab, p, MAX_LEN)


@pytest.mark.parametrize("ab", SETS)
def test_finite_place_status_agrees_with_every_decided_orbit(ab):
    # where the orbit search decided, a status other than a witness matches it
    for p in PRIMES:
        st = _finite_place_status(ab, p, MAX_LEN)
        for radius in (2, 6):
            orbit = orbit_bounded(ab, p, radius)
            if orbit.status == "bounded":
                assert st.status in ("indiscrete-witness", "bounded-orbit")
            elif orbit.status == "unbounded" and st.status != "indiscrete-witness":
                assert (st.status, st.word) == ("inconclusive", orbit.witness)


@pytest.mark.parametrize("ab,p", [pytest.param(ab, p, id=f"{i}-{p}") for i, ab in enumerate(SETS) for p in PRIMES
                                  if first_loxodromic(ab, p) is None])
def test_a_bounded_orbit_is_closed_under_the_generators_alone(ab, p):
    assert_closed_under_generators(ab, p, 30)


def test_a_bounded_place_past_the_old_radius_is_decided():
    # the tree-orbit family conjugated by [[1, 3^-6], [0, 1]]: bounded at 3,
    # with the base vertex's orbit wider than radius 3
    f = Alphabet("ab", (Mat2(1, Fraction(1, 6561), 0, 1), Mat2(10, Fraction(-1, 81), 6561, -8)))
    assert orbit_bounded(f, 3, 3).status == "inconclusive"
    st = _finite_place_status(f, 3, 6)
    assert (st.status, st.word) == ("indiscrete-witness", Word((0,)))
    assert st.classification.kind == "parabolic"
    assert st == finite_place_oracle(f, 3, 6)


def _conjugate(ab, c):
    c_inv = c.inverse()
    return Alphabet(ab.names, [c * m * c_inv for m in ab.matrices])


def _seeded_conjugator(seed):
    rng = random.Random(seed)
    while True:
        c = Mat2(*(Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.choice((2, 3, 4, 9))) for _ in range(4)))
        if c.det():
            return c


@pytest.mark.parametrize("seed", range(len(SETS)))
def test_every_word_scan_is_invariant_under_conjugation(seed):
    # each scan decides a property of conjugacy classes, so C G C^-1 and G
    # give the same report, words included
    ab = SETS[seed]
    conj = _conjugate(ab, _seeded_conjugator(seed))
    assert _real_place_status(conj, MAX_LEN) == _real_place_status(ab, MAX_LEN)
    for p in PRIMES:
        assert _finite_place_status(conj, p, MAX_LEN) == _finite_place_status(ab, p, MAX_LEN)
    assert integral_trace_scan(conj, PRIMES, MAX_LEN) == integral_trace_scan(ab, PRIMES, MAX_LEN)


def test_a_witness_does_not_depend_on_the_base_vertex():
    # Delta_{1/2} has the parabolic a = [[1, 0], [1, 1]]; conjugated by
    # diag(2, 1) it is [[1, 0], [1/2, 1]], not 2-integral, and still the witness
    d = lu_generators(Fraction(1, 2))
    conj = _conjugate(d, Mat2(2, 0, 0, 1))
    assert conj.matrices[0] == Mat2(1, 0, Fraction(1, 2), 1)
    assert _finite_place_status(conj, 2, 6) == _finite_place_status(d, 2, 6)
    assert _finite_place_status(d, 2, 6).word == Word((0,))


@pytest.mark.parametrize("max_len", (5, 8))
def test_a_parabolic_off_the_base_vertex_is_a_witness(max_len):
    # a = [[28/27, -1], [1/729, 26/27]] is parabolic, so it fixes a vertex
    # of the tree at 3, though not the base vertex: no multiple of it is
    # 3-integral with unit det
    ab = SETS[38]
    assert ab.matrices[0].c == Fraction(1, 729)
    st = _finite_place_status(ab, 3, max_len)
    assert (st.status, st.word, st.classification.kind) == ("indiscrete-witness", Word((0,)), "parabolic")


@pytest.mark.parametrize("ab", SETS)
def test_orbit_matches_full_witness_scan(ab):
    for p in PRIMES:
        assert orbit_bounded(ab, p, RADIUS) == orbit_oracle(ab, p, RADIUS)


def _probe_applies(ab, p):
    return len(ab) == 2 and all(
        m.det() == 1 and all(set(denominator_primes(e)) <= {p} for e in m.entries())
        for m in ab.matrices
    )


@pytest.mark.parametrize("ab", SETS)
def test_probe_check_4_matches_mat2_walk(ab):
    for p in PRIMES:
        expected = probe_check4_oracle(ab, p, MAX_LEN)
        assert first_loxodromic(ab, p) == expected.data.get("word")
        if _probe_applies(ab, p):
            g, h = ab.matrices
            rep = two_gen_probe(g, h, p)
            assert rep.checks[3] == expected


def test_each_branch_is_reached():
    # the comparisons above would pass vacuously if every set took one branch
    real = {_real_place_status(ab, MAX_LEN).status for ab in SETS}
    finite = {re.sub(r"\d+", "N", st.note)
              for ab in SETS for st in (_finite_place_status(ab, p, MAX_LEN) for p in PRIMES)}
    orbits = {orbit_bounded(ab, p, RADIUS).status for ab in SETS for p in PRIMES}
    applies = sum(_probe_applies(ab, p) for ab in SETS for p in PRIMES)
    assert real == {"indiscrete-witness", "inconclusive"}
    assert len(finite) == 3  # the witness, the bounded orbit, the loxodromic
    assert {"bounded", "unbounded", "inconclusive"} == orbits
    assert applies >= 10
