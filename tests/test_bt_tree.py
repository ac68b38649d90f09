"""Bruhat-Tits tree: vertex chart, metric, action, orbits, pigeonhole."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from commlab.bt_tree import (
    PigeonholeBudgetError,
    TreeVertex,
    _pigeonhole_bound,
    act,
    ball,
    base_vertex,
    busemann,
    canonical_residue,
    commutator_pigeonhole,
    distance,
    neighbors,
    orbit_bounded,
    translation_length,
    vertex_of,
)
from commlab.cli import main
from commlab.exact_core import Mat2, vp
from commlab.lu_lab import lu_generators
from commlab.report import chart_str
from commlab.words import Alphabet, Word, evaluate, iter_words_with_matrices
from helpers import (
    act_oracle,
    assert_closed_under_generators,
    canonical_residue_oracle,
    distance_oracle,
    orbit_oracle,
    rand_frac,
    rep_matrix,
    vertex_of_oracle,
)


def rand_int_sl2(rng, steps=4, bound=3):
    # integer shears only: lands in SL(2, Z), a vertex stabilizer for every p
    m = Mat2.identity()
    for _ in range(steps):
        x = rng.randint(-bound, bound)
        m = m * (Mat2(1, x, 0, 1) if rng.random() < 0.5 else Mat2(1, 0, x, 1))
    return m


def rand_vertex(rng, p, span=3):
    n = rng.randint(-span, span)
    u = canonical_residue(rand_frac(rng, bound=2 * p**3), n, p)
    return TreeVertex(p, n, u)


# ---------------------------------------------------------------- residues

def test_canonical_residue_frozen():
    assert canonical_residue(Fraction(1, 2), 0, 2) == Fraction(1, 2)
    assert canonical_residue(Fraction(3, 2), 1, 2) == Fraction(3, 2)
    assert canonical_residue(Fraction(5), 1, 2) == 1
    assert canonical_residue(Fraction(4), 1, 2) == 0
    assert canonical_residue(Fraction(7), 2, 3) == 7
    assert canonical_residue(Fraction(-1), 2, 3) == 8
    assert canonical_residue(Fraction(0), 5, 7) == 0
    # 1/3 is a 2-adic unit: 3^-1 = 3 mod 8
    assert canonical_residue(Fraction(1, 3), 3, 2) == 3


def test_canonical_residue_is_a_residue():
    from commlab.exact_core import INFINITY, vp

    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        n = rng.randint(-3, 3)
        u = rand_frac(rng, bound=40)
        c = canonical_residue(u, n, p)
        # same class mod p^n Z_(p)
        assert vp(u - c, p) >= n
        # canonical form is a fixed point
        assert canonical_residue(c, n, p) == c
        # translating by p^n does not change it
        t = rng.randint(-5, 5)
        assert canonical_residue(u + t * Fraction(p) ** n, n, p) == c


# ------------------------------------------------- charts against oracles

_PRIMES = st.sampled_from((2, 3, 5, 7))


def _smooth(exponents):
    return 2 ** exponents[0] * 3 ** exponents[1] * 5 ** exponents[2] * 7 ** exponents[3]


# p-powers in numerators and denominators give negative n and m; zeros give
# u = 0 and the column swap at d = 0
_EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4)
_ENTRIES = st.builds(lambda s, k, j: Fraction(s * _smooth(k), _smooth(j)),
                     st.integers(-4, 4), _EXPONENTS, _EXPONENTS)
_GL2Q = st.builds(Mat2, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES).filter(lambda m: m.det() != 0)
_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None, phases=(Phase.generate,))


@st.composite
def _vertices(draw, p):
    """A vertex with any n in -4..4 and u any rational, canonical or not."""
    n = draw(st.integers(-4, 4))
    u = draw(_ENTRIES)
    if draw(st.booleans()):
        u = canonical_residue_oracle(u, n, p)
    return TreeVertex(p, n, u)


@_SETTINGS
@given(_PRIMES, _ENTRIES, st.integers(-5, 5))
def test_canonical_residue_matches_the_fraction_oracle(p, u, n):
    assert canonical_residue(u, n, p) == canonical_residue_oracle(u, n, p)


@_SETTINGS
@given(_PRIMES, _GL2Q)
def test_vertex_of_matches_the_fraction_oracle(p, m):
    assert vertex_of(m, p) == vertex_of_oracle(m, p)


@_SETTINGS
@given(_PRIMES.flatmap(lambda p: st.tuples(_GL2Q, _vertices(p), _vertices(p))))
def test_act_and_distance_match_the_fraction_oracles(args):
    g, v, w = args
    assert act(g, v) == act_oracle(g, v)
    assert distance(v, w) == distance_oracle(v, w)
    assert distance(v, base_vertex(v.p)) == distance_oracle(v, base_vertex(v.p))


def _gl2_zp(p):
    """Integer matrices with det prime to p: GL(2, Z_p) points."""
    e = st.integers(-9, 9)
    return st.builds(Mat2, e, e, e, e).filter(lambda k: k.det() % p != 0)


@_SETTINGS
@given(_PRIMES.flatmap(lambda p: st.tuples(st.just(p), _GL2Q, _gl2_zp(p))))
def test_vertex_of_is_invariant_under_gl2_zp(args):
    # right multiplication by GL(2, Z_p) changes the basis, not the lattice
    p, m, k = args
    assert vertex_of(m * k, p) == vertex_of(m, p)


# Each case reaches one branch of the chart code, as its predicate on the
# matrix m and the oracle's vertex v checks; the oracle decides the answer.
_BRANCH_CASES = {
    "negative n": (Mat2(Fraction(1, 9), 0, 0, 1), 3, lambda m, v: v.n < 0),
    "negative m": (Mat2(1, Fraction(1, 25), 0, 1), 5, lambda m, v: v.u != 0 and vp(v.u, 5) < 0),
    "u = 0": (Mat2(4, 12, 0, 1), 2, lambda m, v: v.u == 0),
    "odd v_p(det)": (Mat2(1, 1, 0, 7), 7, lambda m, v: v.n % 2 == 1),
    "swap at d = 0": (Mat2(1, 3, 2, 0), 3, lambda m, v: m.d == 0),
    "swap at v_p(c) < v_p(d)": (Mat2(1, Fraction(1, 2), 1, 4), 2, lambda m, v: vp(m.c, 2) < vp(m.d, 2)),
}


@pytest.mark.parametrize("name", sorted(_BRANCH_CASES))
def test_chart_branches_match_the_fraction_oracles(name):
    m, p, reached = _BRANCH_CASES[name]
    v = vertex_of_oracle(m, p)
    assert reached(m, v)
    assert vertex_of(m, p) == v
    w = TreeVertex(p, -2, Fraction(3, p**3))
    assert act(m, w) == act_oracle(m, w)
    assert distance(v, w) == distance_oracle(v, w)


# ---------------------------------------------------------------- vertices

def test_vertex_of_frozen():
    assert vertex_of(Mat2.identity(), 2) == base_vertex(2)
    assert vertex_of(Mat2(3, 0, 0, Fraction(1, 3)), 3) == TreeVertex(3, 2, 0)
    assert vertex_of(Mat2(1, Fraction(1, 2), 0, 1), 2) == TreeVertex(2, 0, Fraction(1, 2))
    assert vertex_of(Mat2(Fraction(1, 2), 0, 0, 1), 2) == TreeVertex(2, -1, 0)
    assert vertex_of(Mat2(2, 0, 0, 1), 2) == TreeVertex(2, 1, 0)
    # bottom row pivoting: swapped columns give the same lattice
    assert vertex_of(Mat2(0, 2, 1, 0), 2) == TreeVertex(2, 1, 0)


def test_vertex_of_rejects_singular():
    with pytest.raises(ValueError):
        vertex_of(Mat2(1, 1, 2, 2), 2)


def test_vertex_chart_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        v = rand_vertex(rng, p)
        assert vertex_of(rep_matrix(v), p) == v


def test_vertex_of_lattice_invariance():
    # right-multiplying by SL(2, Z) and rescaling both preserve the class
    rng = random.Random(19)
    for _ in range(100):
        p = rng.choice([2, 3])
        m = rep_matrix(rand_vertex(rng, p))
        v = vertex_of(m, p)
        assert vertex_of(m * rand_int_sl2(rng), p) == v
        assert vertex_of(m.scale(rand_frac(rng, nonzero=True)), p) == v


# ---------------------------------------------------------------- the metric

def test_distance_frozen():
    v0 = base_vertex(2)
    assert distance(v0, v0) == 0
    assert distance(v0, TreeVertex(2, 1, 0)) == 1
    assert distance(v0, TreeVertex(2, -1, 0)) == 1
    assert distance(v0, TreeVertex(2, 0, Fraction(1, 2))) == 2
    assert distance(TreeVertex(2, 1, 0), TreeVertex(2, -1, 0)) == 2
    assert distance(v0, TreeVertex(2, 3, 1)) == 3


def test_distance_mixed_primes_rejected():
    with pytest.raises(ValueError):
        distance(base_vertex(2), base_vertex(3))


def test_distance_metric_axioms():
    rng = random.Random(59)
    for _ in range(200):
        p = rng.choice([2, 3])
        u, v, w = (rand_vertex(rng, p, span=2) for _ in range(3))
        assert distance(u, v) == distance(v, u)
        assert distance(u, v) >= 0
        assert (distance(u, v) == 0) == (u == v)
        assert distance(u, w) <= distance(u, v) + distance(v, w)


def test_action_is_isometric_and_compatible():
    rng = random.Random(61)
    from helpers import rand_sl2

    for _ in range(100):
        p = rng.choice([2, 3])
        g = rand_sl2(rng)
        h = rand_sl2(rng)
        u = rand_vertex(rng, p, span=2)
        v = rand_vertex(rng, p, span=2)
        assert distance(act(g, u), act(g, v)) == distance(u, v)
        assert act(g * h, u) == act(g, act(h, u))
        assert act(Mat2.identity(), u) == u


# ---------------------------------------------------------------- neighbors

@pytest.mark.parametrize("p", [2, 3, 5])
def test_neighbors_structure(p):
    v0 = base_vertex(p)
    ns = neighbors(v0)
    assert len(ns) == len(set(ns)) == p + 1
    for w in ns:
        assert distance(v0, w) == 1
        assert v0 in neighbors(w)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_neighbors_match_the_basis_oracle(p):
    # the chart rule gives the vertices of the basis times each step, in order
    rng = random.Random(71 + p)
    steps = [Mat2(1, 0, 0, p)] + [Mat2(p, j, 0, 1) for j in range(p)]
    vs = [rand_vertex(rng, p) for _ in range(60)]
    assert any(v.n < 0 for v in vs) and any(v.u.denominator % p == 0 for v in vs)
    for v in vs:
        assert neighbors(v) == [vertex_of(rep_matrix(v) * step, p) for step in steps]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_neighbors_on_charts_match_the_fraction_rule(p):
    # neighbors works on the chart; the Fraction rule builds (n - 1, u) and
    # (n + 1, u + j p^n) and lets the constructor reduce u
    rng = random.Random(3000 + p)
    vs = [rand_vertex(rng, p) for _ in range(300)] + [TreeVertex(p, n, 0) for n in range(-4, 7)]
    assert any(v.u.denominator % p == 0 for v in vs) and any(v.n < 0 for v in vs)
    for v in vs:
        pn = Fraction(p) ** v.n
        oracle = [TreeVertex(p, v.n - 1, v.u)] + [TreeVertex(p, v.n + 1, v.u + j * pn) for j in range(p)]
        got = neighbors(v)
        assert got == oracle
        assert [w.u for w in got] == [w.u for w in oracle]


def test_vertices_from_different_charts_of_one_vertex_are_equal_and_hash_alike():
    # (n, u) and (n, u + k p^n) chart one vertex; so do u = 0 and any u of
    # valuation at least n
    same = [
        (TreeVertex(2, 1, 3), TreeVertex(2, 1, 1), TreeVertex(2, 1, -1)),
        (TreeVertex(3, 2, 0), TreeVertex(3, 2, 9), TreeVertex(3, 2, Fraction(-18))),
        (TreeVertex(5, -1, Fraction(1, 25)), TreeVertex(5, -1, Fraction(1, 25) + Fraction(3, 5)),
         TreeVertex(5, -1, Fraction(-24, 25) + 7)),
    ]
    for group in same:
        assert len({v.chart for v in group}) == 1
        for v in group:
            assert v == group[0] and hash(v) == hash(group[0])
            assert distance(v, group[0]) == 0
        assert len(set(group)) == 1
    assert TreeVertex(2, 1, 1) != TreeVertex(2, 2, 1)
    assert TreeVertex(2, 0, 0) != TreeVertex(3, 0, 0)
    assert {TreeVertex(2, 1, 3): 1}[TreeVertex(2, 1, 1)] == 1


@pytest.mark.parametrize("p,sizes", [(2, [1, 4, 10, 22]), (3, [1, 5, 17, 53])])
def test_ball_sizes(p, sizes):
    # 1 + (p+1)(p^r - 1)/(p - 1) vertices within radius r
    for r, expect in enumerate(sizes):
        b = ball(base_vertex(p), r)
        assert len(b) == expect
        assert max(b.values()) == (r if r else 0)
        for v, d in b.items():
            assert distance(base_vertex(p), v) == d


def test_ball_of_a_non_canonical_center():
    # u = 3 and u = 1 chart one vertex at n = 1, p = 2
    v, canon = TreeVertex(2, 1, 3), TreeVertex(2, 1, 1)
    assert v == canon and distance(v, canon) == 0
    for r in range(4):
        assert ball(v, r) == ball(canon, r)
    assert len(ball(v, 2)) == 10


def test_a_vertex_is_built_as_its_canonical_chart():
    # u = 2 is 0 modulo 2^1: the record equals the one act and ball return
    v = TreeVertex(2, 1, 2)
    assert v == TreeVertex(2, 1, 0) and v.u == 0 and v.chart == (1, 0, 0)
    assert act(Mat2.identity(), v) == v
    assert v in ball(v, 1)
    w = TreeVertex(3, -2, Fraction(7, 27))  # 7 = 1 modulo 3^(n - m) = 3
    assert w.u == Fraction(1, 27) and w.chart == (-2, -3, 1)
    with pytest.raises(ValueError, match="p must be a prime integer, got 4"):
        TreeVertex(4, 0, 0)


# ------------------------------------------------------- translation lengths

def test_translation_length_frozen():
    assert translation_length(Mat2(2, 0, 0, Fraction(1, 2)), 2) == 2
    assert translation_length(Mat2(1, 0, 0, 2), 2) == 1
    assert translation_length(Mat2(1, 0, 1, 1), 2) == 0  # parabolic
    assert translation_length(Mat2(0, 1, 2, 0), 2) == 0  # trace 0, inverts an edge
    assert translation_length(Mat2(5, 2, 2, 1), 2) == 0  # SL(2, Z) is bounded


def test_translation_length_matches_orbit_minimum():
    # exact formula against a radius-6 ball minimum of d(v, g v)
    ab = lu_generators(Fraction(1, 2))
    rng = random.Random(83)
    pool = [w for w, _ in iter_words_with_matrices(ab, 4) if len(w) >= 1]
    sample = rng.sample(pool, 25)
    b6 = ball(base_vertex(2), 6)
    for w in sample:
        g = evaluate(w, ab)
        ball_min = min(distance(v, act(g, v)) for v in b6)
        assert translation_length(g, 2) == ball_min


# ---------------------------------------------------------------- busemann

def test_busemann_frozen():
    assert busemann(Mat2(3, 0, 0, Fraction(1, 3)), 3) == 2
    assert busemann(Mat2(1, Fraction(1, 2), 0, 1), 2) == 0
    assert busemann(Mat2(1, 0, 0, 4), 2) == -2
    with pytest.raises(ValueError):
        busemann(Mat2(1, 0, 1, 1), 2)
    with pytest.raises(ValueError):
        busemann(Mat2(0, 1, 0, 1), 2)


def test_busemann_additive():
    rng = random.Random(89)
    for _ in range(100):
        p = rng.choice([2, 3])
        g = Mat2(rand_frac(rng, nonzero=True), rand_frac(rng), 0, rand_frac(rng, nonzero=True))
        h = Mat2(rand_frac(rng, nonzero=True), rand_frac(rng), 0, rand_frac(rng, nonzero=True))
        assert busemann(g * h, p) == busemann(g, p) + busemann(h, p)


# ---------------------------------------------------------------- orbits

def test_orbit_bounded_single_integral_generator():
    ab = Alphabet(("a",), (Mat2(1, 0, 1, 1),))
    res = orbit_bounded(ab, 2, 3)
    assert res.status == "bounded"
    assert res.orbit == (base_vertex(2).chart,)
    assert res.radius_seen == 0


def test_orbit_bounded_half_parabolic():
    ab = Alphabet(("b",), (Mat2(1, Fraction(1, 2), 0, 1),))
    res = orbit_bounded(ab, 2, 3)
    assert res.status == "bounded"
    assert res.orbit == (base_vertex(2).chart, TreeVertex(2, 0, Fraction(1, 2)).chart)
    assert res.radius_seen == 2


def test_orbit_bounded_escape_with_witness():
    ab = lu_generators(Fraction(1, 2))
    res = orbit_bounded(ab, 2, 3)
    assert res.status == "unbounded"
    assert res.witness_word == Word((0, 2))  # a b, the first loxodromic
    assert translation_length(evaluate(res.witness_word, ab), 2) > 0
    assert res.orbit is None


def test_orbit_bounded_inconclusive_budget():
    # radius 1 cannot hold the orbit of b, and no power of b is loxodromic
    ab = Alphabet(("b",), (Mat2(1, Fraction(1, 2), 0, 1),))
    res = orbit_bounded(ab, 2, 1)
    assert res.status == "inconclusive"
    assert res.witness_word is None


def _conjugated_sl2z(p, k, seed):
    """A seeded SL(2, Z) conjugate of <[[1, p^-k], [0, 1]], [[1, 0], [p^k, 1]]>:
    it fixes a vertex at distance k from v_0, whose orbit is the whole sphere
    of radius k about it, (p + 1) p^(k - 1) vertices, up to 2k from v_0."""
    m = rand_int_sl2(random.Random(seed))
    gens = (Mat2(1, Fraction(1, p**k), 0, 1), Mat2(1, 0, p**k, 1))
    return Alphabet(("a", "b"), tuple(m * g * m.inverse() for g in gens))


_FAMILY = [(p, k) for p in (2, 3, 5) for k in (2, 3, 4)]


@pytest.mark.parametrize("p,k", _FAMILY)
def test_orbit_of_a_conjugated_sl2z_matches_the_oracle(p, k):
    ab = _conjugated_sl2z(p, k, seed=10 * p + k)
    res = orbit_bounded(ab, p, 2 * k)
    assert res == orbit_oracle(ab, p, 2 * k)
    assert (res.status, len(res.orbit), res.radius_seen) == ("bounded", (p + 1) * p ** (k - 1), 2 * k)
    for radius in (1, 2 * k - 1) if k == 2 else (1,):
        res = orbit_bounded(ab, p, radius)
        assert res.status == "inconclusive"
        assert res == orbit_oracle(ab, p, radius)


def _fixing(p, j, *mats):
    """The letters conjugated by diag(p^j, 1): those in GL(2, Z_p) fix the
    vertex (j, 0), at distance j from v_0."""
    m = Mat2(p**j, 0, 0, 1)
    return tuple(m * g * m.inverse() for g in mats)


# [[0, -1], [1, 0]] is an involution on the tree; [[0, -1], [1, -1]] has
# order 3, [[1, -1], [1, 0]] order 6 and [[1, -1], [1, 1]] order 4 up to scalars
_S, _R3, _R6, _R4 = Mat2(0, -1, 1, 0), Mat2(0, -1, 1, -1), Mat2(1, -1, 1, 0), Mat2(1, -1, 1, 1)

# (p, alphabet, bases, radius, sweep); None is the default base. The
# conjugated SL(2, Z) orbits lie within 4k + 6 of either base. With sweep,
# every radius below the orbit's largest distance is checked too, each
# inconclusive.
_BASE_CASES = [
    *(pytest.param(p, _conjugated_sl2z(p, k, seed=p + k),
                   (TreeVertex(p, -1, Fraction(1, p * p)), TreeVertex(p, 2, 1)), 4 * k + 6, False,
                   id=f"{p}-{k}")
      for p, k in [(2, 2), (2, 3), (3, 2)]),
    pytest.param(2, Alphabet("a", _fixing(2, 2, _S)), (None, TreeVertex(2, 2, 1)), 30, True,
                 id="involution"),
    # odd v_p(det): swaps v_0 and its neighbour (1, 0)
    pytest.param(3, Alphabet("a", (Mat2(0, 1, 3, 0),)), (None, TreeVertex(3, 2, 1)), 30, True,
                 id="edge-inversion"),
    pytest.param(2, Alphabet("a", _fixing(2, 2, _R3)), (None, TreeVertex(2, 1, Fraction(1, 2))), 30,
                 True, id="order-3"),
    pytest.param(3, Alphabet("a", _fixing(3, 2, _R4)), (None,), 30, True, id="order-4"),
    pytest.param(5, Alphabet("a", _fixing(5, 2, _R6)), (None, TreeVertex(5, 2, 1)), 30, True,
                 id="order-6"),
    # [[1, 0], [1, 1]] fixes v_0 and (2, 0), so the pair is bounded
    pytest.param(2, Alphabet("ab", (Mat2(1, 0, 1, 1),) + _fixing(2, 2, _S)), (None,), 30, True,
                 id="fixes-the-base"),
    pytest.param(2, Alphabet("abc", _fixing(2, 2, _R3, _S, _R6)), (None,), 30, True,
                 id="three-generators"),
    # a non-canonical base: u = 1/2 is 0 modulo 2^-1, so the base is charted (-1, 0)
    pytest.param(2, Alphabet("a", (Mat2(0, -4, Fraction(1, 4), 0),)),
                 (TreeVertex(2, -1, Fraction(1, 2)),), 30, True, id="non-canonical-base"),
]


@pytest.mark.parametrize("p,ab,bases,radius,sweep", _BASE_CASES)
def test_orbit_from_another_base_matches_the_oracle(p, ab, bases, radius, sweep):
    for base in bases:
        res = orbit_bounded(ab, p, radius, base=base)
        assert res.status == "bounded"
        assert res.orbit[0] == (base_vertex(p) if base is None else
                                TreeVertex(p, base.n, canonical_residue_oracle(base.u, base.n, p))).chart
        assert res == orbit_oracle(ab, p, radius, base=base)
        for short_radius in range(1, res.radius_seen) if sweep else ():
            short = orbit_bounded(ab, p, short_radius, base=base)
            assert short.status == "inconclusive"
            assert short == orbit_oracle(ab, p, short_radius, base=base)


# (p, alphabet, base, radius) of every bounded orbit above
_CLOSURE_CASES = [
    *(pytest.param(p, _conjugated_sl2z(p, k, seed=10 * p + k), None, 2 * k, id=f"family-{p}-{k}")
      for p, k in _FAMILY),
    *(pytest.param(p, ab, base, radius, id=f"{case.id}-base-{i}")
      for case in _BASE_CASES for p, ab, bases, radius, _ in [case.values]
      for i, base in enumerate(bases)),
]


@pytest.mark.parametrize("p,ab,base,radius", _CLOSURE_CASES)
def test_a_bounded_orbit_is_closed_under_the_generators_alone(p, ab, base, radius):
    assert_closed_under_generators(ab, p, radius, base)


@pytest.mark.parametrize("seed", [1, 2])
def test_orbit_acts_k_times_per_vertex(monkeypatch, seed):
    # each of the k generators acts once on each orbit vertex: k |orbit| acts
    from commlab.bt_tree import _act

    calls = []

    def counted(g, v, p):
        calls.append(v)
        return _act(g, v, p)

    monkeypatch.setattr("commlab.bt_tree._act", counted)
    res = orbit_bounded(_conjugated_sl2z(3, 4, seed), 3, 8)
    assert (res.status, len(res.orbit)) == ("bounded", 108)
    assert len(calls) == 2 * 108


def test_orbit_base_on_another_tree_rejected():
    with pytest.raises(ValueError):
        orbit_bounded(Alphabet(("a",), (Mat2(1, 0, 1, 1),)), 2, 3, base=base_vertex(3))


def _tree_orbit_cli(capsys, tmp_path, ab, p, radius):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [
        {"name": n, "matrix": [[str(e) for e in row] for row in m.rows()]}
        for n, m in zip(ab.names, ab.matrices)
    ]}), encoding="utf-8")
    code = main(["tree", "orbit", "--gens", str(gens), "--p", str(p), "--radius", str(radius)])
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"][0]


@pytest.mark.parametrize("p,k", _FAMILY)
def test_tree_orbit_cli_on_a_conjugated_sl2z(capsys, tmp_path, p, k):
    res = _tree_orbit_cli(capsys, tmp_path, _conjugated_sl2z(p, k, seed=p * k), p, 2 * k)
    assert (res["status"], res["orbit_size"], res["radius_seen"]) == (
        "bounded", (p + 1) * p ** (k - 1), 2 * k)
    assert len(set(res["orbit"])) == res["orbit_size"]


@pytest.mark.parametrize("p,seed", [(p, seed) for p in (2, 3) for seed in (5, 6, 7)])
def test_tree_orbit_cli_rows_match_the_oracle(capsys, tmp_path, p, seed):
    # the oracle's charts are read off Fraction vertices
    ab = _conjugated_sl2z(p, 3, seed)
    res = _tree_orbit_cli(capsys, tmp_path, ab, p, 6)
    want = orbit_oracle(ab, p, 6)
    assert res["orbit"] == [chart_str(p, w) for w in want.orbit]
    assert (res["radius_seen"], res["orbit_size"]) == (want.radius_seen, len(want.orbit))


# ---------------------------------------------------------------- pigeonhole

def fixed_vertex_of_b():
    return TreeVertex(2, -1, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pigeonhole_bound_counts_the_same_parity_ball(p):
    sphere = ball(base_vertex(p), 6)
    for R in range(7):
        assert _pigeonhole_bound(p, R) == sum(1 for d in sphere.values() if d <= R and d % 2 == R % 2) + 1


def test_pigeonhole_frozen():
    x = Mat2(1, 0, 1, 1)
    y = Mat2(1, Fraction(1, 2), 0, 1)
    v = fixed_vertex_of_b()
    res = commutator_pigeonhole(x, y, v)
    assert (res.n1, res.n2, res.k) == (4, 0, 4)
    assert res.z == Mat2(-1, 4, -2, 7)
    assert res.radius == 2
    assert res.ball_bound == 8
    assert act(res.z, v) == v
    assert res.z == x * y**4 * x.inverse() * y**-4


def test_pigeonhole_degenerate_cases():
    y = Mat2(1, Fraction(1, 2), 0, 1)
    v = fixed_vertex_of_b()
    # x = I: the orbit point is v itself and z = I
    res = commutator_pigeonhole(Mat2.identity(), y, v)
    assert res.radius == 0 and res.z == Mat2.identity()
    # x = y: x^-1 v = v again
    res = commutator_pigeonhole(y, y, v)
    assert res.radius == 0 and res.z == Mat2.identity()


def test_pigeonhole_requires_fixed_vertex():
    x = Mat2(1, 0, 1, 1)
    y = Mat2(1, Fraction(1, 2), 0, 1)
    with pytest.raises(ValueError):
        commutator_pigeonhole(x, y, base_vertex(2))  # y moves v_0


def test_pigeonhole_at_a_non_canonical_vertex():
    # [[1, 2], [0, 1]] fixes the vertex that TreeVertex(2, 1, 3) and
    # TreeVertex(2, 1, 1) both chart; x = [[1, 0], [1, 1]] moves it
    x, y = Mat2(1, 0, 1, 1), Mat2(1, 2, 0, 1)
    v, canon = TreeVertex(2, 1, 3), TreeVertex(2, 1, 1)
    res = commutator_pigeonhole(x, y, v)
    assert res == commutator_pigeonhole(x, y, canon)
    assert res.radius > 0 and act(res.z, v) == canon


def test_pigeonhole_budget_error():
    x = Mat2(1, 0, 1, 1)
    y = Mat2(1, Fraction(1, 2), 0, 1)
    v = fixed_vertex_of_b()
    with pytest.raises(PigeonholeBudgetError) as e:
        commutator_pigeonhole(x, y, v, n_max=2)
    assert e.value.n_max == 2
    assert e.value.ball_bound == 8
