"""Diagnostics: support, density, trace scans, per-place status, the probe."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from commlab import diagnostics
from commlab.diagnostics import (
    GS_TAG,
    PROBE_MESSAGE,
    density_report,
    integral_trace_scan,
    irreducibility_report,
    long_reid_pair,
    place_support,
    two_gen_probe,
)
from commlab.exact_core import Mat2, prime_factors, vp
from commlab.lu_lab import lu_generators
from commlab.words import (
    Alphabet,
    Word,
    evaluate,
    format_word,
    iter_words_with_matrices,
)
from helpers import (
    adjoint_rank_oracle,
    conjugation_row,
    denominator_primes,
    necklace_oracle,
    rand_frac,
    rank,
    trace_scan_oracle,
    zariski_dense,
)

A = 0
B = 2


def probe_pair():
    g = Mat2(2, 1, 1, 1)
    h = Mat2(1, Fraction(1, 8), 0, 1)
    return g, h


# ---------------------------------------------------------------- fixtures

def test_long_reid_pair_frozen():
    ab = long_reid_pair()
    a, b = ab.matrices
    assert a.det() == 1 and b.det() == 1
    assert a.trace() == Fraction(10, 3)
    assert b.trace() == Fraction(83, 8)
    assert (a * b).trace() == Fraction(91, 24)


# ---------------------------------------------------------------- support

def test_place_support():
    assert place_support(lu_generators(Fraction(1, 2))).primes == (2,)
    assert place_support(lu_generators(Fraction(1, 3))).primes == (3,)
    assert place_support(lu_generators(4)).primes == ()
    assert place_support(long_reid_pair()).primes == (2, 3)
    assert place_support(long_reid_pair()).includes_real


def test_place_support_sees_inverses():
    # the generator is integral; only its inverse has a denominator
    m = Mat2(5, 2, 2, 1)
    assert m.det() == 1  # inverse integral too; support stays empty
    assert place_support(Alphabet(("g",), (m,))).primes == ()
    n = Mat2(5, 0, 0, 1)
    assert place_support(Alphabet(("g",), (n,))).primes == (5,)


def _count_factorizations(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return prime_factors(n)

    monkeypatch.setattr("commlab.diagnostics.prime_factors", counting)
    return calls


def test_place_support_factors_each_denominator_once(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    # six entries of the letters have a denominator, only two distinct ones
    ab = Alphabet(("a", "b"), (Mat2(1, Fraction(1, 35), 0, 1), Mat2(Fraction(1, 6), Fraction(5, 6), 0, 6)))
    dens = [e.denominator for m in ab.letter_matrices for e in m.entries() if e.denominator > 1]
    assert len(dens) == 6
    primes = place_support(ab).primes
    assert sorted(calls) == sorted(set(dens)) == [6, 35]
    oracle = {q for m in ab.letter_matrices for e in m.entries() for q in denominator_primes(e)}
    assert primes == tuple(sorted(oracle)) == (2, 3, 5, 7)


def test_probe_refuses_a_denominator_without_factoring(monkeypatch):
    calls = _count_factorizations(monkeypatch)
    g, h = probe_pair()
    two_gen_probe(g, h, 2)  # denominators 8: powers of 2
    with pytest.raises(ValueError, match=r"^entries outside Z\[1/2\]: denominator 24 is not a power of 2$"):
        two_gen_probe(g, Mat2(1, Fraction(1, 24), 0, 1), 2)
    big = 10**81 + 7  # its part prime to 2 is past PRIME_TEST_BOUND
    with pytest.raises(ValueError, match=rf"^entries outside Z\[1/2\]: denominator {big} is not a power of 2$"):
        two_gen_probe(Mat2(2, 0, 0, Fraction(1, 2)), Mat2(1, Fraction(1, big), 0, 1), 2)
    assert calls == []


# ---------------------------------------------------------------- density

# zariski_dense is the pair test density_report replaced; these tests keep it
# honest as an oracle.

def test_zariski_dense_frozen():
    ab = lu_generators(Fraction(1, 2))
    r = zariski_dense(ab.matrices[0], ab.matrices[1])
    assert r.verdict == "dense" and r.reason is None
    assert r.traces["tr_commutator"] == Fraction(9, 4)
    assert r.traces["tr_commutator_squares"] == 6


def test_zariski_reducible():
    # two upper triangulars share an eigenvector
    r = zariski_dense(Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1))
    assert (r.verdict, r.reason) == ("not-dense", "reducible")
    assert r.traces["tr_commutator"] == 2


def test_zariski_monomial_via_trace_zero_fallback():
    g = Mat2(0, 1, -1, 0)
    h = Mat2(2, 0, 0, Fraction(1, 2))
    r = zariski_dense(g, h)
    assert (r.verdict, r.reason) == ("not-dense", "monomial")
    assert "tr_line_pair_test" in r.traces


def test_zariski_monomial_both_traces_zero():
    g = Mat2(0, 1, -1, 0)
    h = Mat2(0, 2, Fraction(-1, 2), 0)
    r = zariski_dense(g, h)
    assert (r.verdict, r.reason) == ("not-dense", "monomial")


def test_zariski_requires_det_one():
    with pytest.raises(ValueError):
        zariski_dense(Mat2(2, 0, 0, 1), Mat2(1, 1, 0, 1))


def _words(r, ab):
    return [format_word(w, ab) for w in r.words]


def test_density_report_single_generator():
    # one generator: polynomials in Ad(g), at most I, Ad(g), Ad(g)^2
    ab = Alphabet(("a",), (Mat2(1, 1, 0, 1),))
    r = density_report(ab)
    assert (r.verdict, r.dimension, _words(r, ab)) == ("not-dense", 3, ["", "a", "a a"])


def test_density_report_pair_is_exact():
    ab = lu_generators(1)
    dense = density_report(ab)
    assert (dense.verdict, dense.dimension) == ("dense", 9)
    assert _words(dense, ab) == ["", "a", "b", "a a", "a b", "b a", "b b", "a a b", "a b b"]
    thin = density_report(Alphabet(("b1", "b2"), (Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1))))
    assert (thin.verdict, thin.dimension) == ("not-dense", 3)


def test_density_report_three_generators_finds_a_dense_pair():
    ab = Alphabet(
        ("u", "v", "w"),
        (Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1), Mat2(1, 0, 1, 1)),
    )
    r = density_report(ab)
    assert (r.verdict, r.dimension) == ("dense", 9)
    assert len(set(r.words)) == 9


def test_density_report_three_generators_not_dense():
    # three shared-eigenvector generators: no pair of them is dense, and the
    # span of I, Ad(u), Ad(v) certifies that the whole group is not
    ab = Alphabet(
        ("u", "v", "w"),
        (Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1), Mat2(1, 3, 0, 1)),
    )
    r = density_report(ab)
    assert (r.verdict, r.dimension, _words(r, ab)) == ("not-dense", 3, ["", "u", "v"])


# One hand case per way to miss density, and two dense pairs, one of det != 1; the
# dimension is checked against the brute-force rank over all words of length <= 8.
@pytest.mark.parametrize("mats, verdict, dimension", [
    ((Mat2(2, 1, 0, 1), Mat2(1, 1, 0, 1)), "not-dense", 6),           # Borel
    ((Mat2(2, 0, 0, 1), Mat2(0, 1, 1, 0)), "not-dense", 5),           # torus normalizer
    ((Mat2(0, -1, 1, 1),), "not-dense", 3),                           # cyclic of order 3 in PGL(2)
    ((Mat2(0, -1, 1, 1), Mat2(0, 1, 1, 0)), "not-dense", 5),          # dihedral of order 6
    ((Mat2(2, 0, 0, 1), Mat2(1, 1, 1, 0)), "dense", 9),               # det 2 and det -1
    ((Mat2(2, 0, 0, 2),), "not-dense", 1),                            # a scalar: trivial image
    ((Mat2(1, 0, 1, 1), Mat2(1, Fraction(1, 2), 0, 1)), "dense", 9),  # Delta_1/2
])
def test_density_report_hand_cases_match_the_brute_force_rank(mats, verdict, dimension):
    ab = Alphabet("ab"[: len(mats)], mats)
    r = density_report(ab)
    assert (r.verdict, r.dimension) == (verdict, dimension)
    assert adjoint_rank_oracle(ab) == dimension
    assert r.words[0] == Word(()) and len(r.words) == dimension
    # the certificate: the words' Ad images are independent, and their span
    # is closed under every generator
    words = list(r.words)
    assert rank([conjugation_row(evaluate(w, ab)) for w in words]) == dimension
    words += [Word(w.letters + (2 * i,)) for w in r.words for i in range(len(mats))]
    assert rank([conjugation_row(evaluate(w, ab)) for w in words]) == dimension


def _conjugate(m, mats):
    m_inv = m.inverse()
    return [m * x * m_inv for x in mats]


_SMALL = st.integers(-4, 4)
_NONZERO = st.sampled_from((-3, -2, -1, 1, 2, 3))
_SL2Z = st.lists(st.tuples(st.booleans(), _SMALL), min_size=1, max_size=4).map(
    lambda steps: functools.reduce(
        Mat2.__mul__, [Mat2(1, x, 0, 1) if up else Mat2(1, 0, x, 1) for up, x in steps]))
_DIAGONAL = _NONZERO.map(lambda x: Mat2(x, 0, 0, Fraction(1, x)))
_TRACE_ZERO = _NONZERO.map(lambda x: Mat2(0, x, Fraction(-1, x), 0))
# det-1 pairs from each branch of zariski_dense, conjugated by an SL(2, Z)
# element: upper triangulars (reducible), a trace-0 antidiagonal next to a
# diagonal or another one (monomial) or next to anything (mostly dense), and
# two SL(2, Z) elements (mostly dense by the squares). Its monomial verdict by
# tr[g^2, h^2] = 2 cannot occur: with both squares noncentral, g and h are
# polynomials in them and would share their eigenvector.
_PAIRS = st.builds(_conjugate, _SL2Z, st.one_of(
    st.builds(lambda x, y, s, t: [Mat2(x, s, 0, Fraction(1, x)), Mat2(y, t, 0, Fraction(1, y))],
              _NONZERO, _NONZERO, _SMALL, _SMALL),
    st.one_of(_DIAGONAL, _TRACE_ZERO).map(lambda m: [Mat2(0, 1, -1, 0), m]),
    st.tuples(_TRACE_ZERO, _SL2Z).map(list),
    st.lists(_SL2Z, min_size=2, max_size=2)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_PAIRS)
@example([Mat2(1, 1, 0, 1), Mat2(1, 2, 0, 1)])                         # reducible
@example([Mat2(0, 1, -1, 0), Mat2(2, 0, 0, Fraction(1, 2))])           # trace-0 monomial
@example([Mat2(0, 1, -1, 0), Mat2(0, 2, Fraction(-1, 2), 0)])          # both traces 0
@example([Mat2(0, 1, -1, 0), Mat2(1, 1, 0, 1)])                         # dense by the line pair test
@example([Mat2(1, Fraction(1, 2), 0, 1), Mat2(1, 0, 1, 1)])            # dense
def test_density_report_matches_the_pair_oracle(pair):
    g, h = pair
    r = density_report(Alphabet("gh", pair))
    assert r.verdict == zariski_dense(g, h).verdict
    assert (r.dimension == 9) == (r.verdict == "dense")


# ---------------------------------------------------------------- trace scan

def test_integral_trace_scan_matches_class_closure():
    # hits must be exactly the necklace classes of integral-trace words,
    # checked against a scan of all words (trace is a class function)
    ab = lu_generators(Fraction(1, 2))
    res = integral_trace_scan(ab, (2,), 4)
    expected = set()
    for w, m in iter_words_with_matrices(ab, 4):
        if len(w) == 0:
            continue
        if vp(m.trace(), 2) >= 0:
            expected.add(necklace_oracle(w))
    assert {h[0] for h in res.hits} == expected
    for w, t, vals in res.hits:
        assert necklace_oracle(w) == w
        assert t == evaluate(w, ab).trace()
        assert vals == {2: vp(t, 2)}
        assert vals[2] >= 0


def test_integral_trace_scan_integral_generators():
    # SL(2, Z) generators: every class is a hit
    res = integral_trace_scan(lu_generators(1), (2, 3), 3)
    assert res.classes_per_length == {1: 2, 2: 4, 3: 6}
    assert res.hits_per_length == res.classes_per_length
    assert sorted(res.classes_per_length) == [1, 2, 3]  # identity skipped


def test_integral_trace_scan_long_reid_empty():
    res = integral_trace_scan(long_reid_pair(), (2, 3), 3)
    assert res.hits == ()
    assert all(v == 0 for v in res.hits_per_length.values())


def test_integral_trace_scan_rejects_bad_prime():
    with pytest.raises(ValueError):
        integral_trace_scan(lu_generators(1), (4,), 2)


# Negative numerators and denominators at 2, 3 and 5; det is rarely 1.
_SCAN_ENTRIES = st.builds(
    Fraction, st.integers(-7, 7), st.sampled_from((1, 2, 3, 4, 5, 6, 10, 15))
)
_SCAN_MATS = st.builds(Mat2, _SCAN_ENTRIES, _SCAN_ENTRIES, _SCAN_ENTRIES, _SCAN_ENTRIES).filter(
    lambda m: m.det() != 0
)


# No shrinking: every shrink step reruns both scans, and shrinking a failure
# would take minutes.
@settings(derandomize=True, max_examples=40, deadline=None, phases=(Phase.generate,))
@given(st.lists(_SCAN_MATS, min_size=2, max_size=3))
def test_integral_trace_scan_matches_mat2_oracle(mats):
    ab = Alphabet("abc"[: len(mats)], mats)
    max_len = 5 if len(mats) == 2 else 4
    assert integral_trace_scan(ab, (2, 3, 5), max_len) == trace_scan_oracle(ab, (2, 3, 5), max_len)


# Letters of finite order in PGL(2, Q) next to random ones: orders 2, 6 and 4,
# and a scalar.
_SCAN_LETTERS = st.one_of(
    _SCAN_MATS,
    st.sampled_from((Mat2(0, -1, 1, 0), Mat2(0, -1, 1, 1), Mat2(1, -1, 1, 1), Mat2(2, 0, 0, 2))),
)


@settings(derandomize=True, max_examples=30, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from((1, 4)).flatmap(lambda k: st.lists(_SCAN_LETTERS, min_size=k, max_size=k)))
@example([Mat2(0, -1, 1, 1)])
@example([Mat2(0, -1, 1, 0), Mat2(1, Fraction(1, 2), 0, 1), Mat2(1, -1, 1, 1), Mat2(3, 0, 0, Fraction(1, 3))])
def test_integral_trace_scan_matches_mat2_oracle_on_one_and_four_generators(mats):
    ab = Alphabet("abcd"[: len(mats)], mats)
    max_len = 8 if len(mats) == 1 else 4
    assert integral_trace_scan(ab, (2, 3, 5), max_len) == trace_scan_oracle(ab, (2, 3, 5), max_len)


def _random_sl2z(rng):
    m = Mat2.identity()
    for i in range(4):
        x = rng.choice((-2, -1, 1, 2))
        m = m * (Mat2(1, x, 0, 1) if i % 2 else Mat2(1, 0, x, 1))
    return m


def test_integral_trace_scan_conjugation_invariant():
    # traces are class functions: an SL(2, Z) conjugate scans like long-reid
    ab = long_reid_pair()
    expected = trace_scan_oracle(ab, (2, 3), 7)
    assert sum(expected.hits_per_length.values()) > 0
    for seed in (5, 11, 23):
        m = _random_sl2z(random.Random(seed))
        conj = Alphabet(ab.names, [m * g * m.inverse() for g in ab.matrices])
        assert conj.matrices != ab.matrices
        assert integral_trace_scan(conj, (2, 3), 7) == expected


# Denominators unit * 2^e2 * 3^e3 * 5^e5 with exponents up to 60, and prime
# lists that may hold primes not dividing den.
_UNITS = st.sampled_from((1, 7, 11, 77, 143))
_DENS = st.builds(lambda u, e2, e3, e5: u * 2**e2 * 3**e3 * 5**e5, _UNITS, *[st.integers(0, 60)] * 3)
_PRIME_LISTS = st.lists(st.sampled_from((2, 3, 5, 7, 11, 13)), min_size=1, max_size=4, unique=True)


@settings(derandomize=True, max_examples=300, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(st.integers(-(10**40), 10**40), _DENS, _PRIME_LISTS)
@example(0, 2**45 * 3**45, [2, 3])
@example(-2, 2**60 * 7, [2, 3, 5])
@example(-(2**45) * 3**44 * 11, 2**45 * 3**45, [3, 2])
@example(6, 1, [13])
@example(0, 1, [2])
def test_integral_trace_scan_gcd_test_matches_the_valuation_rule(t, den, primes):
    # A one-letter scan whose trace is t/den over the integer form's den:
    # the letter (1/den, 1; c, (t - 1)/den) has integer form
    # (1, den, c den, t - 1) over den, and c = +-1 keeps it nonsingular.
    g = Mat2(Fraction(1, den), 1, 1 if t - 1 == -den * den else -1, Fraction(t - 1, den))
    vals = {p: vp(Fraction(t, den), p) for p in primes}
    for p in primes:
        assert (den // math.gcd(t, den) % p != 0) == (vals[p] >= 0)
    expected = ((Word((0,)), Fraction(t, den), vals),) if all(v >= 0 for v in vals.values()) else ()
    assert integral_trace_scan(Alphabet("a", (g,)), tuple(primes), 1).hits == expected


def _s_integral(rng):
    # an SL(2, Z) word conjugated by diag(s, 1), s a {2, 3, 5}-unit
    m = Mat2.identity()
    for i in range(3):
        x = rng.choice((-2, -1, 1, 2))
        m = m * (Mat2(1, x, 0, 1) if i % 2 else Mat2(1, 0, x, 1))
    s = Mat2(2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 2) * 5 ** rng.randint(0, 1), 0, 0, 1)
    return s * m * s.inverse()


def test_integral_trace_scan_matches_the_oracle_on_s_integral_pairs():
    zero_traces = 0
    for seed in range(8):
        rng = random.Random(seed)
        ab = Alphabet("ab", (_s_integral(rng), _s_integral(rng)))
        res = integral_trace_scan(ab, (2, 3, 5), 6)
        assert res == trace_scan_oracle(ab, (2, 3, 5), 6)
        assert 0 < len(res.hits) < sum(res.classes_per_length.values())
        zero_traces += sum(1 for _, t, _ in res.hits if t == 0)
    assert zero_traces


def test_integral_trace_scan_takes_valuations_only_for_hits(monkeypatch):
    # The long-reid scan has two hits among 1 791 classes: the trace -2 hit
    # takes one _split of t and one of den per prime, the trace 0 hit none.
    calls = []
    split = diagnostics._split

    def counted(x, p):
        calls.append((x, p))
        return split(x, p)

    monkeypatch.setattr(diagnostics, "_split", counted)
    res = integral_trace_scan(long_reid_pair(), (2, 3), 9)
    assert [t for _, t, _ in res.hits] == [0, -2]
    assert sum(res.classes_per_length.values()) == 1791
    assert len(calls) == 4


# ---------------------------------------------------------------- per place

def test_irreducibility_report_lu_half():
    rep = irreducibility_report(lu_generators(Fraction(1, 2)))
    assert rep.support.primes == (2,)
    real, p2 = rep.places
    assert real.place == "real" and real.status == "indiscrete-witness"
    assert "Knapp indiscreteness window" in real.note
    assert p2.place == "2" and p2.status == "indiscrete-witness"
    assert p2.word == Word((A,))  # a itself is integral of infinite order
    assert p2.classification.kind == "parabolic"
    assert rep.product_discrete
    assert rep.density.verdict == "dense"
    assert len(rep.conditional_notes) == 2
    assert rep.conditional_notes[0].startswith(GS_TAG)


def test_irreducibility_report_long_reid():
    rep = irreducibility_report(long_reid_pair())
    assert rep.support.primes == (2, 3)
    real, p2, p3 = rep.places
    assert p2.status == "indiscrete-witness"
    assert p2.word == Word((A,))  # diag(3, 1/3) is a 2-adic unit matrix
    assert p3.status == "indiscrete-witness"
    assert p3.word == Word((B,))  # the other generator is 3-integral
    assert rep.density.verdict == "dense"
    if all(st.status == "indiscrete-witness" for st in (p2, p3)):
        assert rep.conditional_notes
        assert rep.conditional_notes[0].startswith(GS_TAG)


def test_irreducibility_report_free_case_offers_no_notes():
    rep = irreducibility_report(lu_generators(4))
    assert rep.support.primes == ()
    (real,) = rep.places
    assert "ping-pong" in real.note
    assert rep.conditional_notes == ()


def test_irreducibility_report_knapp_discrete_note():
    rep = irreducibility_report(lu_generators(1))
    (real,) = rep.places
    assert real.status == "inconclusive"
    assert "Knapp parameter n = 3" in real.note
    assert rep.conditional_notes == ()


def _gl2q(rng):
    while True:
        c = Mat2(*(rand_frac(rng, 9) for _ in range(4)))
        if c.det():
            return c


@pytest.mark.parametrize("q", [Fraction(1, 2), 1, 3, Fraction(9, 2), -5])
def test_two_parabolic_notes_survive_conjugation(q):
    # the rule reads traces only: conjugates, and a generator of trace -2,
    # get the literal pair's real place, note included
    literal = lu_generators(q)
    expected = irreducibility_report(literal).places[0]
    rng = random.Random(f"two-parabolic {q}")
    for c in [Mat2(2, 0, 0, 1)] + [_gl2q(rng) for _ in range(4)]:
        a, b = (c * m * c.inverse() for m in literal.matrices)
        for pair in ((a, b), (a.scale(-1), b)):
            conj = Alphabet(("a", "b"), pair)
            assert diagnostics._two_parabolic_q(conj) == q
            assert irreducibility_report(conj).places[0] == expected


def test_two_parabolic_q_needs_two_parabolics_without_a_common_fixed_point():
    u = Mat2(1, 1, 0, 1)
    for pair in ((u, u * u), (u, Mat2(2, 0, 0, Fraction(1, 2))), (u, Mat2(2, 0, 1, 2))):
        assert diagnostics._two_parabolic_q(Alphabet(("a", "b"), pair)) is None
    assert diagnostics._two_parabolic_q(Alphabet(("a",), (u,))) is None


# ---------------------------------------------------------------- the probe

def test_probe_canonical_pair():
    g, h = probe_pair()
    rep = two_gen_probe(g, h, 2)
    c1, c2, c3, c4 = rep.checks
    assert c1.name == "real-loxodromic-generator" and c1.passed
    assert c1.data["trace"] == 3
    assert c2.name == "zariski-dense-pair" and c2.passed
    assert (c2.data["verdict"], c2.data["dimension"], len(c2.data["words"])) == ("dense", 9, 9)
    assert c3.name == "real-place-indiscrete" and c3.passed
    assert c3.data["word"] == Word((A, B, A + 1, B))  # g h g^-1 h
    assert c3.data["classification"].kind == "elliptic-infinite-order"
    assert c4.name == "loxodromic-word-at-p" and c4.passed
    assert c4.data["word"] == Word((0, 2))  # g h
    assert c4.data["trace"] == Fraction(25, 8)
    assert c4.data["valuation"] == -3
    assert c4.data["translation_length"] == 6
    assert rep.decisive_pass
    assert rep.message == PROBE_MESSAGE
    assert rep.message.endswith(GS_TAG)


def test_probe_degenerate_pairs():
    g, _ = probe_pair()
    rep = two_gen_probe(g, g, 2)  # commutator collapses
    assert not rep.checks[1].passed
    assert not rep.decisive_pass and rep.message is None

    u = Mat2(1, 1, 0, 1)
    v = Mat2(1, 0, 1, 1)
    rep = two_gen_probe(u, v, 2)  # no real-loxodromic generator
    assert not rep.checks[0].passed
    assert not rep.decisive_pass


def test_probe_validates_inputs():
    g, h = probe_pair()
    with pytest.raises(ValueError):
        two_gen_probe(g, h, 3)  # 1/8 is not in Z[1/3]
    with pytest.raises(ValueError):
        two_gen_probe(Mat2(2, 0, 0, 1), h, 2)  # det 2
    with pytest.raises(ValueError):
        two_gen_probe(g, h, 6)  # not a prime


def test_tag_text_is_stable():
    assert GS_TAG == "conditional on the Greenberg-Shalom hypothesis"
    assert PROBE_MESSAGE.endswith(GS_TAG)
