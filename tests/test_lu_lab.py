"""Delta_q lab: Knapp window, ping-pong, and the two relator strategies."""

import gc
import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from commlab.diagnostics import long_reid_pair
from commlab.exact_core import Mat2
from commlab import lu_lab
from commlab.exact_core import projective_key
from commlab.lu_lab import (
    _extend_level,
    _key_width,
    _pack_key,
    _unpack_key,
    _widen,
    _word_at,
    knapp,
    lu_generators,
    pingpong,
    relator_search,
)
from commlab.words import (
    Alphabet,
    Word,
    evaluate,
    iter_level,
    iter_level_carrying,
    parse_word,
)
from helpers import is_reduced, key_mul, naive_relator_search

A = 0
Ai = 1
B = 2
Bi = 3


def test_lu_generators_frozen():
    ab = lu_generators(Fraction(1, 2))
    assert ab.names == ("a", "b")
    assert ab.matrices[0] == Mat2(1, 0, 1, 1)
    assert ab.matrices[1] == Mat2(1, Fraction(1, 2), 0, 1)
    with pytest.raises(ValueError):
        lu_generators(0)


def test_trace_of_product_pins_the_convention():
    rng = random.Random(41)
    for _ in range(20):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if q == 0:
            continue
        ab = lu_generators(q)
        assert (ab.matrices[0] * ab.matrices[1]).trace() == 2 + q


# ---------------------------------------------------------------- knapp

def test_knapp_sweep():
    expected = {
        Fraction(1, 2): ("indiscrete", None),
        Fraction(1): ("discrete", 3),
        Fraction(3, 2): ("indiscrete", None),
        Fraction(2): ("discrete", 4),
        Fraction(5, 2): ("indiscrete", None),
        Fraction(3): ("discrete", 6),
        Fraction(7, 2): ("indiscrete", None),
    }
    for q, (verdict, n) in expected.items():
        for s in (q, -q):
            v = knapp(s)
            assert (v.verdict, v.n) == (verdict, n)
            assert v.q == s


def test_knapp_domain_errors():
    with pytest.raises(ValueError):
        knapp(0)
    with pytest.raises(ValueError):
        knapp(4)
    with pytest.raises(ValueError):
        knapp(Fraction(-9, 2))


# ---------------------------------------------------------------- ping-pong

def test_pingpong_free_regime():
    for q in (4, Fraction(9, 2), -5, 100):
        r = pingpong(q)
        assert r.applicable and r.free
        assert r.m_squared == abs(Fraction(q))
        assert len(r.steps) == 4


def test_pingpong_outside_regime():
    r = pingpong(3)
    assert not r.applicable and not r.free
    with pytest.raises(ValueError):
        pingpong(0)


# ---------------------------------------------------------------- relators

def test_relator_q1_tie_break():
    # two distinct length-6 relator classes exist at q = 1; the canonical
    # order prefers a a b^-1 a a b^-1 over a b^-1 a b^-1 a b^-1
    ab = lu_generators(1)
    res = relator_search(ab, 6)
    assert res.status == "relator-found"
    assert res.relator == Word((A, A, Bi, A, A, Bi))
    assert res.scalar == -1
    assert res.completed_length == 6
    other = parse_word("a b^-1 a b^-1 a b^-1", ab)
    assert evaluate(other, ab) == Mat2.identity().scale(-1)


def test_relator_q2_frozen():
    res = relator_search(lu_generators(2), 6)
    assert res.status == "relator-found"
    assert res.relator == Word((A, Bi, A, Bi))
    assert res.scalar == -1


def test_relator_q3_frozen():
    res = relator_search(lu_generators(3), 6)
    assert res.status == "relator-found"
    assert res.relator == Word((A, Bi, A, Bi, A, Bi))
    assert res.scalar == 1


def test_relator_long_reid_commutator_squared():
    # tr[a, b] = 0 exactly, so [a, b]^2 = -I: the surface-group-style
    # relation shows up as the unique minimal relator, at length 8
    from commlab.diagnostics import long_reid_pair

    ab = long_reid_pair()
    res = relator_search(ab, 8)
    assert res.status == "relator-found"
    assert res.relator == Word((A, B, Ai, Bi, A, B, Ai, Bi))
    assert res.scalar == -1
    assert relator_search(ab, 7).status == "none-found"


def test_relator_free_cases_find_nothing():
    for q in (4, Fraction(9, 2)):
        res = relator_search(lu_generators(q), 8)
        assert res.status == "none-found"
        assert res.relator is None
        assert res.completed_length == 8


def test_relator_counts_are_exact_in_the_free_case():
    res = relator_search(lu_generators(4), 8)
    # ping-pong freeness: every level is full and projectively injective
    for n, count in res.words_per_length.items():
        expect = 1 if n == 0 else 4 * 3 ** (n - 1)
        assert count == expect
        assert res.images_per_length[n] == expect


def test_relator_q_half_frozen():
    # (a^2 b^-2)^2 = -I: a^2 b^-2 has trace 0, so the shortest relator for
    # q = 1/2 shows up at length 8 as four image collisions among the
    # 108 words of length 4
    ab = lu_generators(Fraction(1, 2))
    res = relator_search(ab, 8)
    assert res.status == "relator-found"
    assert res.relator == Word((A, A, Bi, Bi, A, A, Bi, Bi))
    assert res.scalar == -1
    assert res.images_per_length == {0: 1, 1: 4, 2: 12, 3: 36, 4: 104}
    short = relator_search(ab, 7)
    assert short.status == "none-found"


def test_relator_rejects_small_budget():
    with pytest.raises(ValueError):
        relator_search(lu_generators(1), 1)


def test_mitm_matches_naive():
    for q in (Fraction(1, 2), 1, 2, 3):
        ab = lu_generators(q)
        fast = relator_search(ab, 6)
        slow = naive_relator_search(ab, 6)
        assert fast.status == slow.status
        assert fast.relator == slow.relator
        assert fast.scalar == slow.scalar
        shared = set(fast.images_per_length) & set(slow.images_per_length)
        assert shared
        for n in shared:
            assert fast.images_per_length[n] == slow.images_per_length[n]
            assert fast.words_per_length[n] == slow.words_per_length[n]


# Generator sets outside the two-parabolic family: det != 1, torsion,
# mixed denominators, three generators. Each entry: (matrices, max_len).
ORACLE_SETS = {
    # diag(2, 1) conjugates the shear to its square: BS(1, 2), odd relator
    "det-2-baumslag-solitar": ((Mat2(2, 0, 0, 1), Mat2(1, 1, 0, 1)), 6),
    # PSL(2, Z) = Z/2 * Z/3
    "torsion-psl2z": ((Mat2(0, -1, 1, 0), Mat2(0, -1, 1, 1)), 6),
    # [[0, 2], [1, 0]]^2 = 2 I
    "torsion-scalar-2": ((Mat2(0, 2, 1, 0), Mat2(1, Fraction(1, 2), 0, 1)), 6),
    # order 4 in PGL(2, Q): [[1, -1], [1, 1]]^4 = -4 I
    "torsion-pgl-order-4": ((Mat2(1, -1, 1, 1), Mat2(1, Fraction(1, 3), 0, 1)), 6),
    "mixed-denominators": (
        (Mat2(Fraction(1, 2), Fraction(1, 3), 0, 1), Mat2(1, 0, Fraction(3, 5), Fraction(5, 7))),
        6,
    ),
    "three-generators": (
        (Mat2(2, 0, 0, 1), Mat2(1, Fraction(1, 3), 0, 1), Mat2(0, -1, 1, 1)),
        4,
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_mitm_matches_naive_beyond_delta_q(name):
    matrices, max_len = ORACLE_SETS[name]
    ab = Alphabet([f"g{i}" for i in range(len(matrices))], matrices)
    fast = relator_search(ab, max_len)
    slow = naive_relator_search(ab, max_len)
    assert fast.status == slow.status
    assert fast.relator == slow.relator
    assert fast.scalar == slow.scalar
    for n in fast.words_per_length:
        assert n in slow.words_per_length
        assert fast.words_per_length[n] == slow.words_per_length[n]
        assert fast.images_per_length[n] == slow.images_per_length[n]


# Small entries, plus torsion (orders 2, 3, 4 and 6 in PGL(2, Q)) and a
# scalar, so collisions, odd relators and keys met at the level before occur.
_SMALL = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))
_SMALL_MATS = st.one_of(
    st.builds(Mat2, _SMALL, _SMALL, _SMALL, _SMALL).filter(lambda m: m.det() != 0),
    st.sampled_from((Mat2(0, -1, 1, 0), Mat2(0, -1, 1, 1), Mat2(1, -1, 1, 1), Mat2(2, -1, 1, 1),
                     Mat2(2, 0, 0, 2))),
)


# No shrinking: each shrink step reruns the naive search.
@settings(derandomize=True, max_examples=100, deadline=None, phases=(Phase.generate,))
@given(st.lists(_SMALL_MATS, min_size=1, max_size=3), st.integers(2, 6))
def test_mitm_matches_naive_on_random_generators(matrices, max_len):
    ab = Alphabet([f"g{i}" for i in range(len(matrices))], matrices)
    max_len = min(max_len, 4) if len(matrices) == 3 else max_len
    fast = relator_search(ab, max_len)
    slow = naive_relator_search(ab, max_len)
    assert (fast.status, fast.relator, fast.scalar) == (slow.status, slow.relator, slow.scalar)
    if fast.status == "relator-found":  # the lemma: a collision at level L meets level L - 1 or L
        level = max(fast.words_per_length)
        assert len(fast.relator) in (2 * level - 1, 2 * level)
    shared = set(fast.words_per_length) & set(slow.words_per_length)
    for n in shared:
        assert fast.words_per_length[n] == slow.words_per_length[n]
        assert fast.images_per_length[n] == slow.images_per_length[n]


# Two generators at max-len 7-8 reach level 4, a level the test above never
# builds. In the pinned pair, whose shortest relator has length 7, level-4
# words meet keys of level 3 (length-7 candidates) and of level 4
# (length-8 candidates, which max_len 7 filters out and max_len 8 keeps).
_LEVEL_4_PAIR = [Mat2(Fraction(-2, 3), 1, 0, Fraction(-2, 3)),
                 Mat2(Fraction(-1, 3), Fraction(-3, 2), 0, Fraction(1, 2))]


@settings(derandomize=True, max_examples=15, deadline=None, phases=(Phase.explicit, Phase.generate))
@example(_LEVEL_4_PAIR, 7)
@example(_LEVEL_4_PAIR, 8)
@given(st.lists(_SMALL_MATS, min_size=2, max_size=2), st.integers(7, 8))
def test_mitm_matches_naive_on_two_generators_at_level_4(matrices, max_len):
    ab = Alphabet(["g0", "g1"], matrices)
    fast = relator_search(ab, max_len)
    slow = naive_relator_search(ab, max_len)
    assert (fast.status, fast.relator, fast.scalar) == (slow.status, slow.relator, slow.scalar)
    for n in fast.words_per_length:
        assert fast.words_per_length[n] == slow.words_per_length[n]
        assert fast.images_per_length[n] == slow.images_per_length[n]


def test_mirror_parameter_symmetry():
    # diag(1, -1) conjugates Delta_q onto Delta_(-q): same relator length,
    # same scalar, same projective image counts
    for q in (1, 2, 3):
        plus = relator_search(lu_generators(q), 6)
        minus = relator_search(lu_generators(-q), 6)
        assert plus.status == minus.status == "relator-found"
        assert len(plus.relator) == len(minus.relator)
        assert plus.scalar == minus.scalar
        assert plus.images_per_length == minus.images_per_length


def test_mem_cap_inconclusive():
    res = relator_search(lu_generators(Fraction(1, 2)), 10, mem_cap=500)
    assert res.status == "inconclusive"
    assert res.relator is None
    assert res.completed_length < 10
    assert res.completed_length % 2 == 0


# Smallest caps that let each level in: each is the projection
# (_projected_bytes) made before that level is built, with the whole capped
# report at each cap c and at c - 1: (cap, status, completed_length,
# words_per_length, images_per_length), the counts listed by length from 0.
# Below the first cap nothing completes. The level whose projection passed
# the cap is never built, so it is in neither count.
MEM_CAP_THRESHOLDS = {
    "q=1/2": (
        lambda: lu_generators(Fraction(1, 2)),
        12,
        [(9267, "inconclusive", 0, [1], [1]),
         (9268, "inconclusive", 2, [1, 4], [1, 4]),
         (10975, "inconclusive", 2, [1, 4], [1, 4]),
         (10976, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (15583, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (15584, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (29023, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (29024, "relator-found", 8, [1, 4, 12, 36, 108], [1, 4, 12, 36, 104])],
    ),
    "q=9/2": (
        lambda: lu_generators(Fraction(9, 2)),
        12,
        [(9287, "inconclusive", 0, [1], [1]),
         (9288, "inconclusive", 2, [1, 4], [1, 4]),
         (11039, "inconclusive", 2, [1, 4], [1, 4]),
         (11040, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (15775, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (15776, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (29599, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (29600, "inconclusive", 8, [1, 4, 12, 36, 108], [1, 4, 12, 36, 108]),
         (70687, "inconclusive", 8, [1, 4, 12, 36, 108], [1, 4, 12, 36, 108]),
         (70688, "inconclusive", 10, [1, 4, 12, 36, 108, 324], [1, 4, 12, 36, 108, 324]),
         (193567, "inconclusive", 10, [1, 4, 12, 36, 108, 324], [1, 4, 12, 36, 108, 324]),
         (193568, "none-found", 12, [1, 4, 12, 36, 108, 324, 972], [1, 4, 12, 36, 108, 324, 972])],
    ),
    "long-reid": (
        long_reid_pair,
        8,
        [(9327, "inconclusive", 0, [1], [1]),
         (9328, "inconclusive", 2, [1, 4], [1, 4]),
         (11167, "inconclusive", 2, [1, 4], [1, 4]),
         (11168, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (16159, "inconclusive", 4, [1, 4, 12], [1, 4, 12]),
         (16160, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (30751, "inconclusive", 6, [1, 4, 12, 36], [1, 4, 12, 36]),
         (30752, "relator-found", 8, [1, 4, 12, 36, 108], [1, 4, 12, 36, 104])],
    ),
    # a^3 = -I: both level-2 keys are level-1 keys, but the projection
    # prices the words of level 2, so it has a threshold of its own
    "one-generator": (
        lambda: Alphabet(["a"], [Mat2(0, -1, 1, 1)]),
        6,
        [(8963, "inconclusive", 0, [1], [1]),
         (8964, "inconclusive", 2, [1, 2], [1, 2]),
         (9279, "inconclusive", 2, [1, 2], [1, 2]),
         (9280, "relator-found", 4, [1, 2, 2], [1, 2, 2])],
    ),
    # c^3 = -I again: c c meets a level-1 key. The cap is checked before
    # level 2 is built, never in the middle of it, so a cap that admits
    # level 2 answers relator-found.
    "three-generators": (
        lambda: Alphabet(["a", "b", "c"],
                         [Mat2(2, 0, 0, 1), Mat2(1, Fraction(1, 3), 0, 1), Mat2(0, -1, 1, 1)]),
        6,
        [(9519, "inconclusive", 0, [1], [1]),
         (9520, "inconclusive", 2, [1, 6], [1, 6]),
         (13615, "inconclusive", 2, [1, 6], [1, 6]),
         (13616, "relator-found", 4, [1, 6, 30], [1, 6, 30])],
    ),
}


@pytest.mark.parametrize("name", sorted(MEM_CAP_THRESHOLDS))
def test_mem_cap_thresholds_frozen(name):
    make, max_len, rows = MEM_CAP_THRESHOLDS[name]
    ab = make()
    for cap, status, completed, words, images in rows:
        res = relator_search(ab, max_len, mem_cap=cap)
        assert (res.status, res.completed_length) == (status, completed), cap
        assert res.words_per_length == dict(enumerate(words)), cap
        assert res.images_per_length == dict(enumerate(images)), cap


def test_mem_cap_cases_meet_keys_of_earlier_levels():
    # A relator of odd length 2L - 1 is a word of level L meeting a key of
    # the level before it (the lemma in relator_search).
    earlier = set()
    for name, (make, max_len, _) in MEM_CAP_THRESHOLDS.items():
        res = relator_search(make(), max_len)
        if res.status == "relator-found" and len(res.relator) % 2:
            assert len(res.relator) == 2 * max(res.words_per_length) - 1, name
            earlier.add(name)
    assert earlier == {"one-generator", "three-generators"}


def _record_projections(monkeypatch):
    """The arguments and value of every _projected_bytes call."""
    calls = []
    project = lu_lab._projected_bytes

    def recorded(*args):
        calls.append((args, project(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lu_lab, "_projected_bytes", recorded)
    return calls


def _traced_peak(ab, max_len, mem_cap):
    tracemalloc.start()
    try:
        res = relator_search(ab, max_len, mem_cap=mem_cap)
        return tracemalloc.get_traced_memory()[1], res
    finally:
        tracemalloc.stop()


# Each capped case, and one generator of infinite order, whose levels
# hold two words each, with the levels before which the key width doubles,
# repacking the parent level.
_CAPPED_CASES = {name: (make, max_len, []) for name, (make, max_len, _) in MEM_CAP_THRESHOLDS.items()}
_CAPPED_CASES["repacking"] = (lambda: Alphabet(["g"], [Mat2(2, 1, 1, 1)]), 200, [17, 33, 65])


@pytest.mark.parametrize("name", sorted(_CAPPED_CASES))
def test_mem_cap_bounds_the_traced_peak(name, monkeypatch):
    # A cap is checked before each level is built, against the bytes the
    # search will hold once it exists, so a capped search never holds more
    # than its cap: at every level threshold the traced peak is at most the
    # cap.
    make, max_len, repacks = _CAPPED_CASES[name]
    projections = _record_projections(monkeypatch)
    relator_search(make(), max_len, mem_cap=10**9)
    monkeypatch.undo()
    assert [level for level, (args, _) in enumerate(projections, 1) if args[4]] == repacks
    ab = make()
    for _, cap in projections:
        peak, res = _traced_peak(ab, max_len, cap)
        assert peak <= cap, (cap, res.completed_length)


def test_table_memory_per_entry(monkeypatch):
    # The search holds two levels, each a dict of its distinct packed keys,
    # and the new level a key and a last letter code per word: the traced
    # peak of a max-len 14 search (972 + 2916 words held) is near 122 bytes
    # per word held. The last projection, made before the last level, prices
    # more than that, so a cap stays conservative, but less than 1.9 times
    # as much, so a cap admits the searches that fit in it.
    sizes = []
    ab = lu_generators(Fraction(11, 2))
    tracemalloc.start()
    try:
        relator_search(ab, 14, progress=lambda level, words, images: sizes.append(words))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes[-2:] == [972, 2916]
    assert peak <= 130 * sum(sizes[-2:])
    projections = _record_projections(monkeypatch)
    assert relator_search(ab, 14, mem_cap=10**9).status == "none-found"
    assert len(projections) == len(sizes)
    assert peak <= projections[-1][1] < 1.9 * peak


def _pack_codes(codes, bits):
    """A word as a sentinel 1, then bits bits per code, first letter highest:
    packed words of one length compare like words."""
    packed = 1
    for c in codes:
        packed = packed << bits | c
    return packed


@pytest.mark.parametrize("num_gens, bits", [(1, 1), (2, 2), (3, 3)])
def test_packed_words_round_trip_in_canonical_order(num_gens, bits):
    # The walker's order is the order of the packed words, and the word at
    # each position of a level is _word_at of that position.
    letters = range(2 * num_gens)
    for n in range(7):
        packed = list(iter_level_carrying(num_gens, n, 1, lambda value, c: value << bits | c))
        assert all(x.bit_length() == 1 + bits * n for x in packed)
        assert packed == sorted(packed)
        words = [_word_at(n, index, 2 * num_gens) for index in range(len(packed))]
        assert [_pack_codes(w, bits) for w in words] == packed
        expected = sorted(w for w in itertools.product(letters, repeat=n) if is_reduced(w))
        assert words == expected == [w.letters for w in iter_level(num_gens, n)]


_LEVEL_ALPHABETS = {
    1: (Mat2(2, 1, 1, 1),),
    2: (Mat2(1, 0, 1, 1), Mat2(1, Fraction(9, 2), 0, 1)),
    3: (Mat2(2, 0, 0, 1), Mat2(1, Fraction(1, 3), 0, 1), Mat2(0, -1, 1, 1)),
}


@pytest.mark.parametrize("num_gens, bits", [(1, 1), (2, 2), (3, 3)])
def test_levels_built_from_the_level_before_match_the_walker(num_gens, bits):
    # _extend_level must give the walker's lexicographic order: the first
    # word per key is the first position of that key in the level before or
    # in the collision level. Its packed keys unpack to the keys the
    # key_mul oracle gives along the walk, its last codes are the walked
    # words' last letters, and the word at each position is the walked word.
    ab = Alphabet([f"g{i}" for i in range(num_gens)], _LEVEL_ALPHABETS[num_gens])
    code_keys = [projective_key(m) for m in ab.letter_matrices]
    width = _key_width(code_keys, 6)

    def step(value, c):
        key, packed = value
        return key_mul(key, code_keys[c]), packed << bits | c

    keys, lasts = [_pack_key((1, 0, 0, 1), width)], [-1]
    for n in range(7):
        if n:
            keys, lasts = _extend_level(keys, lasts, code_keys, width)
        walked = list(iter_level_carrying(num_gens, n, ((1, 0, 0, 1), 1), step))
        words = [_word_at(n, index, 2 * num_gens) for index in range(len(keys))]
        assert [_pack_codes(w, bits) for w in words] == [packed for _, packed in walked]
        assert lasts == [w[-1] if w else -1 for w in words]
        assert [_unpack_key(key, width) for key in keys] == [key for key, _ in walked]


# Signed, lopsided entries: small ones next to numerators and denominators of
# up to 40 bits, so one letter key mixes entries of very different sizes.
# Integer matrices of det 1 take _extend_level's path without a gcd.
_BIG = st.integers(-(1 << 40), 1 << 40)
_LOPSIDED = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, _BIG, st.integers(1, 1 << 40)),
)
_LOPSIDED_MATS = st.one_of(
    st.builds(Mat2, _LOPSIDED, _LOPSIDED, _LOPSIDED, _LOPSIDED).filter(lambda m: m.det() != 0),
    st.builds(lambda n, m: Mat2(1, n, 0, 1) * Mat2(1, 0, m, 1), _BIG, st.integers(-3, 3)),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(_LOPSIDED_MATS, min_size=1, max_size=3))
def test_packed_keys_unpack_to_the_key_mul_oracle_at_every_level(matrices):
    # The width starts at one level's bound, so it doubles before levels 2
    # and 3 (and 5, for one or two generators), as relator_search doubles
    # it past _FIRST_LEVELS.
    num_gens = len(matrices)
    ab = Alphabet([f"g{i}" for i in range(num_gens)], matrices)
    code_keys = [projective_key(m) for m in ab.letter_matrices]

    width = _key_width(code_keys, 1)
    widths = [width]
    keys, lasts = [_pack_key((1, 0, 0, 1), width)], [-1]
    for level in range(1, 7 - num_gens):
        if _key_width(code_keys, level) > width:
            keys = [_widen(key, width) for key in keys]
            width *= 2
            widths.append(width)
        keys, lasts = _extend_level(keys, lasts, code_keys, width)
        oracle = list(iter_level_carrying(num_gens, level, (1, 0, 0, 1), lambda key, c: key_mul(key, code_keys[c])))
        assert [_unpack_key(key, width) for key in keys] == oracle
        assert all(abs(x) < 1 << width - 1 for key in oracle for x in key)
        assert all(key > 0 for key in keys) and len(set(keys)) == len(set(oracle))
        extreme = (1 << width - 1) - 1
        for key in itertools.product((extreme, -extreme, 0, 1), repeat=4):
            assert _unpack_key(_pack_key(key, width), width) == key
    assert len(widths) > 1


# The level thresholds of MEM_CAP_THRESHOLDS with one level per key width:
# the projection prices keys at the width after a repack, and the parent
# level twice at a repack, so the caps move and the reports stay.
_DOUBLING_THRESHOLDS = {
    "q=1/2": [9228, 11344, 16928, 28448],
    "q=9/2": [9228, 11424, 17168, 29024, 89696, 203936],
    "long-reid": [9248, 11504, 17888, 30752],
    "one-generator": [8964, 9528],
    "three-generators": [9492, 14216],
}


@pytest.mark.parametrize("name", sorted(MEM_CAP_THRESHOLDS))
def test_capped_searches_with_the_width_doubling_at_levels_2_3_5_are_frozen(name):
    # Keys of levels 1, 2 and 4 are repacked and then extended, and each
    # level is projected at the width it will be built at.
    make, max_len, rows = MEM_CAP_THRESHOLDS[name]
    caps = [cap for threshold in _DOUBLING_THRESHOLDS[name] for cap in (threshold - 1, threshold)]
    ab = make()
    with mock.patch.object(lu_lab, "_FIRST_LEVELS", 1):
        for cap, (_, status, completed, words, images) in zip(caps, rows, strict=True):
            res = relator_search(ab, max_len, mem_cap=cap)
            assert (res.status, res.completed_length) == (status, completed), cap
            assert res.words_per_length == dict(enumerate(words)), cap
            assert res.images_per_length == dict(enumerate(images)), cap
        assert relator_search(ab, max_len) == relator_search(ab, max_len, mem_cap=caps[-1])


def test_search_past_the_first_width_matches_the_naive_search():
    # Half of max-len 40 is 20 levels: the width doubles at level 17.
    ab = Alphabet(["g"], [Mat2(2, 1, 1, 1)])
    fast = relator_search(ab, 40)
    slow = naive_relator_search(ab, 40)
    assert fast.status == slow.status == "none-found"
    assert fast.words_per_length == {n: slow.words_per_length[n] for n in range(21)}
    assert fast.images_per_length == {n: slow.images_per_length[n] for n in range(21)}


def _count_calls(monkeypatch, name):
    calls = []
    fn = getattr(lu_lab, name)

    def counted(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(lu_lab, name, counted)
    return calls


def test_search_work_counts_on_a_free_group(monkeypatch):
    # One key product per word of lengths 1..6, each a child that one of the
    # six _extend_level calls returns, so no level is built twice; on a free
    # group no level shares a key with the level before or repeats one, so
    # no word is decoded. A cap is checked by one projection per level, made
    # only under a cap, and no key is priced, or unpacked outside
    # _extend_level.
    products = []
    extend = lu_lab._extend_level

    def counted(*args):
        keys, lasts = extend(*args)
        products.append(len(keys))
        return keys, lasts

    monkeypatch.setattr(lu_lab, "_extend_level", counted)
    decoded = _count_calls(monkeypatch, "_word_at")
    projected = _count_calls(monkeypatch, "_projected_bytes")
    unpacked = _count_calls(monkeypatch, "_unpack_key")
    res = relator_search(lu_generators(Fraction(9, 2)), 12)
    assert res.status == "none-found"
    assert sum(products) == sum(res.words_per_length[n] for n in range(1, 7)) == 1456
    assert len(products) == 6
    assert len(decoded) == 0
    assert len(projected) == 0
    assert relator_search(lu_generators(Fraction(9, 2)), 12, mem_cap=10**7) == res
    assert len(products) == 12
    assert len(projected) == 6
    assert len(unpacked) == 0


# Every relator-found frozen case above, as (alphabet, max_len).
_FOUND_CASES = {
    "q=1": (lambda: lu_generators(1), 6),
    "q=2": (lambda: lu_generators(2), 6),
    "q=3": (lambda: lu_generators(3), 6),
    "q=1/2": (lambda: lu_generators(Fraction(1, 2)), 8),
    "long-reid": (long_reid_pair, 8),
}


@pytest.mark.parametrize("name", sorted(_FOUND_CASES))
def test_relators_found_after_width_doublings_are_unchanged(name):
    # With one level per key width the width doubles before levels 2, 3
    # and 5, so the first words of colliding keys are found in a level
    # repacked at a width other than the one it was built at.
    make, max_len = _FOUND_CASES[name]
    expected = relator_search(make(), max_len)
    with mock.patch.object(lu_lab, "_FIRST_LEVELS", 1):
        assert relator_search(make(), max_len) == expected
    assert expected.status == "relator-found"


# Where the first word F of the colliding key was met, for the first
# collision: the empty word (a scalar generator), the collision level
# (projective order 2, 4 and 6: a^k meets a^-k), or the level before it
# (order 3: a a meets a^-1; the level-4 pair meets level-3 keys).
_FIRST_WORD_CASES = {
    "scalar": ([Mat2(2, 0, 0, 2)], 4, "empty"),
    "order-2": ([Mat2(0, -1, 1, 0)], 4, "same"),
    "order-3": ([Mat2(0, -1, 1, 1)], 4, "earlier"),
    "order-4": ([Mat2(1, -1, 1, 1)], 6, "same"),
    "order-6": ([Mat2(2, -1, 1, 1)], 8, "same"),
    "level-4-pair": (_LEVEL_4_PAIR, 7, "earlier"),
}


@pytest.mark.parametrize("name", sorted(_FIRST_WORD_CASES))
@pytest.mark.parametrize("first_levels", [1, 16])
def test_first_words_of_colliding_keys_match_the_naive_search(name, first_levels, monkeypatch):
    matrices, max_len, where = _FIRST_WORD_CASES[name]
    ab = Alphabet([f"g{i}" for i in range(len(matrices))], matrices)
    decoded = []
    word_at = lu_lab._word_at
    monkeypatch.setattr(lu_lab, "_word_at", lambda *args: decoded.append(args) or word_at(*args))
    monkeypatch.setattr(lu_lab, "_FIRST_LEVELS", first_levels)
    fast = relator_search(ab, max_len)
    slow = naive_relator_search(ab, max_len)
    assert (fast.status, fast.relator, fast.scalar) == (slow.status, slow.relator, slow.scalar)
    assert fast.status == "relator-found"
    (first_level, _, _), (level, _, _) = decoded[:2]
    kind = "empty" if first_level == 0 else "same" if first_level == level else "earlier"
    assert kind == where
    if kind == "earlier":
        assert first_level == level - 1


@pytest.mark.parametrize("name", ["order-3", "level-4-pair"])
def test_each_level_is_built_once(name, monkeypatch):
    # The first word of a key of level - 1 is found at its position in that
    # level, which the search still holds: one build per level, the
    # collision level included, and none from the empty word again.
    matrices, max_len, _ = _FIRST_WORD_CASES[name]
    extended = _count_calls(monkeypatch, "_extend_level")
    res = relator_search(Alphabet([f"g{i}" for i in range(len(matrices))], matrices), max_len)
    level = max(res.words_per_length)
    assert res.status == "relator-found"
    assert len(extended) == level


def test_mem_cap_generous_still_finds():
    res = relator_search(lu_generators(2), 6, mem_cap=10**7)
    assert res.status == "relator-found"
    assert res.relator == Word((A, Bi, A, Bi))


@pytest.mark.parametrize("enabled", [True, False])
def test_search_leaves_gc_state_as_found(enabled):
    # The search leaves cyclic collection alone: its keys and words are
    # ints, which the collector does not track. Every exit path must leave
    # it as found.
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        relator_search(lu_generators(Fraction(1, 2)), 10, mem_cap=500)   # inconclusive
        assert gc.isenabled() == enabled
        relator_search(lu_generators(2), 6)                               # relator-found
        assert gc.isenabled() == enabled
        relator_search(lu_generators(4), 4)                               # none-found
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_progress_callback_sees_each_level():
    # (level, words, distinct keys of that level): long-reid's level 4
    # repeats keys of its own, and the level-2 keys of one-generator and
    # three-generators that meet level 1 count as keys of level 2.
    def calls(ab, max_len):
        seen = []
        relator_search(ab, max_len, progress=lambda *args: seen.append(args))
        return seen

    assert calls(lu_generators(Fraction(1, 2)), 6) == [(1, 4, 4), (2, 12, 12), (3, 36, 36)]
    assert calls(long_reid_pair(), 8) == [(1, 4, 4), (2, 12, 12), (3, 36, 36), (4, 108, 104)]
    for name, expected in [("one-generator", [(1, 2, 2), (2, 2, 2)]),
                           ("three-generators", [(1, 6, 6), (2, 30, 30)])]:
        make, max_len, _ = MEM_CAP_THRESHOLDS[name]
        assert calls(make(), max_len) == expected, name
    assert calls(lu_generators(Fraction(9, 2)), 12)[-1] == (6, 972, 972)


def test_naive_statistics_free_case():
    res = naive_relator_search(lu_generators(4), 4)
    assert res.status == "none-found"
    assert res.words_per_length == {0: 1, 1: 4, 2: 12, 3: 36, 4: 108}
    assert res.images_per_length == res.words_per_length
