"""Free-group words: reduction, enumeration order, evaluation, necklaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from commlab import words
from commlab.exact_core import Mat2
from commlab.words import (
    EMPTY_WORD,
    MAX_WORD_LETTERS,
    Alphabet,
    Word,
    evaluate,
    format_word,
    invert,
    is_reduced,
    iter_forms,
    iter_level,
    iter_level_carrying,
    iter_level_with_matrices,
    iter_words,
    multiply,
    necklace_canonical,
    parse_word,
    reduce,
)
from helpers import necklace_oracle, rand_reduced_word

A = 0
Ai = 1
B = 2
Bi = 3


def two_gen_alphabet():
    return Alphabet(["a", "b"], [Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)])


# ---------------------------------------------------------------- reduction

def test_reduce_frozen():
    assert reduce(Word((A, B, Bi, A))) == Word((A, A))
    assert reduce(Word((A, Ai))) == EMPTY_WORD
    assert reduce(Word((B, A, Ai, Bi))) == EMPTY_WORD
    assert reduce(Word((A, B, A))) == Word((A, B, A))


def test_reduce_handles_cascades():
    # inner cancellation exposes an outer one
    w = Word((A, B, Ai, A, Bi, B, Bi, Ai))
    assert reduce(w) == EMPTY_WORD


def test_multiply_and_invert():
    rng = random.Random(17)
    for _ in range(200):
        u = rand_reduced_word(rng, 2, rng.randint(0, 6))
        v = rand_reduced_word(rng, 2, rng.randint(0, 6))
        assert multiply(u, invert(u)) == EMPTY_WORD
        assert invert(invert(u)) == u
        assert invert(multiply(u, v)) == multiply(invert(v), invert(u))
        assert is_reduced(multiply(u, v).letters)


# ---------------------------------------------------------------- enumeration

def test_iter_words_frozen_two_generators():
    got = [w.letters for w in iter_words(2, 1)]
    assert got == [(), (A,), (Ai,), (B,), (Bi,)]


def test_iter_words_frozen_one_generator():
    got = [w.letters for w in iter_words(1, 3)]
    assert got == [
        (),
        (A,),
        (Ai,),
        (A, A),
        (Ai, Ai),
        (A, A, A),
        (Ai, Ai, Ai),
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_level_counts(k):
    # reduced words of length n over k generators: 2k (2k-1)^(n-1)
    for n in range(1, 5):
        count = sum(1 for _ in iter_level(k, n))
        assert count == 2 * k * (2 * k - 1) ** (n - 1)


def test_enumeration_order_and_uniqueness():
    seen = set()
    prev = None
    for w in iter_words(2, 4):
        assert is_reduced(w.letters)
        key = (len(w), w.letters)
        if prev is not None:
            assert prev < key
        prev = key
        assert w.letters not in seen
        seen.add(w.letters)


def test_iter_level_with_matrices_consistent():
    ab = two_gen_alphabet()
    for w, m in iter_level_with_matrices(ab, 3):
        assert m == evaluate(w, ab)


def test_walker_reaches_any_depth():
    # an explicit stack: no recursion limit on the length
    def step(value, c):
        return value - 1 if c & 1 else value + 1

    assert list(iter_level_carrying(1, 5000, 0, step)) == [5000, -5000]


def test_a_step_returning_none_cuts_the_word_and_its_extensions():
    def step(codes, c):
        return None if c == Bi else codes + (c,)

    for n in range(5):
        cut = list(iter_level_carrying(2, n, (), step))
        assert cut == [w.letters for w in iter_level(2, n) if Bi not in w.letters]


# Nonsingular letters with small entries, so integer forms have denominators.
_FORM_MATS = st.builds(
    Mat2, *[st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))] * 4
).filter(lambda m: m.det() != 0)


# No shrinking: every shrink step reruns the full walk. The examples give
# each generator count its longest walk, and two generators the trace-scan
# size on the long-reid pair.
@settings(derandomize=True, max_examples=40, deadline=None, phases=(Phase.explicit, Phase.generate))
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.lists(_FORM_MATS, min_size=k, max_size=k), st.integers(1, 4 if k == 4 else 7))
))
@example(([Mat2(0, -1, 1, 1)], 7))
@example(([Mat2(1, 2, 0, 1), Mat2(1, 0, Fraction(1, 2), 1)], 7))
@example(([Mat2(2, 0, 0, 1), Mat2(1, Fraction(1, 3), 0, 1), Mat2(0, -1, 1, 0)], 7))
@example(([Mat2(0, -1, 1, 0), Mat2(1, 1, 0, 1), Mat2(3, 0, 0, 1), Mat2(1, 0, Fraction(2, 3), 1)], 4))
@example(([Mat2(3, 0, 0, Fraction(1, 3)), Mat2(Fraction(1, 8), 9, Fraction(1, 32), Fraction(41, 4))], 9))
@example(([Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1), Mat2(Fraction(1, 2), 1, 0, 2)], 6))
def test_necklace_walk_keeps_exactly_the_necklace_forms(case):
    mats, max_len = case
    ab = Alphabet("abcd"[: len(mats)], mats)
    necklaces = list(iter_forms(ab, max_len, necklaces=True))
    assert necklaces == [form for form in iter_forms(ab, max_len) if necklace_oracle(Word(form[0])).letters == form[0]]


def test_necklace_walk_work_counts(monkeypatch):
    # Counts of codes only, whatever the matrices: a lost cut shows here.
    leaves = []
    walk = words.iter_level_carrying

    def counted(*args):
        for value in walk(*args):
            leaves.append(value)
            yield value

    monkeypatch.setattr(words, "iter_level_carrying", counted)
    forms = list(iter_forms(two_gen_alphabet(), 9, necklaces=True))
    assert len(leaves) == 6283  # of the 39364 reduced words
    assert len(forms) == 1791


# ---------------------------------------------------------------- evaluation

def test_evaluate_is_a_homomorphism():
    ab = two_gen_alphabet()
    rng = random.Random(23)
    for _ in range(200):
        u = rand_reduced_word(rng, 2, rng.randint(0, 5))
        v = rand_reduced_word(rng, 2, rng.randint(0, 5))
        assert evaluate(multiply(u, v), ab) == evaluate(u, ab) * evaluate(v, ab)
        assert evaluate(invert(u), ab) == evaluate(u, ab).inverse()
    assert evaluate(EMPTY_WORD, ab) == Mat2.identity()


def test_evaluate_folds_runs_like_the_letter_by_letter_product():
    # runs of one letter are raised by squaring; unreduced words mix runs of
    # a letter and of its inverse, like a a a A A b
    ab = Alphabet(("a", "b"), (Mat2(2, 1, Fraction(1, 3), 5), Mat2(1, Fraction(-3, 2), 0, 1)))
    rng = random.Random(29)
    for _ in range(100):
        letters = []
        for _ in range(rng.randint(0, 5)):
            letters += [rng.choice(range(4))] * rng.randint(1, 6)
        product = Mat2.identity()
        for l in letters:
            product = product * ab.letter_matrices[l]
        assert evaluate(Word(tuple(letters)), ab) == product


# ---------------------------------------------------------------- necklaces

def test_necklace_frozen():
    assert necklace_canonical(Word((A, Bi))) == Word((A, Bi))
    # conjugate of b by a cyclically reduces to b
    assert necklace_canonical(Word((A, B, Ai))) == Word((B,))
    # inverse closure: least over the class of w and w^-1
    assert necklace_canonical(Word((Bi, A))) == Word((A, Bi))
    assert necklace_canonical(Word((B, Ai))) == Word((A, Bi))
    assert necklace_canonical(EMPTY_WORD) == EMPTY_WORD


def test_necklace_invariance():
    rng = random.Random(29)
    for _ in range(50):
        w = rand_reduced_word(rng, 2, rng.randint(1, 6))
        c = rand_reduced_word(rng, 2, rng.randint(0, 4))
        conj = multiply(multiply(c, w), invert(c))
        assert necklace_canonical(conj) == necklace_canonical(w)
        assert necklace_canonical(invert(w)) == necklace_canonical(w)
        # idempotent
        n = necklace_canonical(w)
        assert necklace_canonical(n) == n


# Words on 1-3 generators, unreduced as drawn; the tests also use their
# reductions and necklace forms, since long random words are rarely either.
_WORDS = st.integers(1, 3).flatmap(
    lambda k: st.lists(st.integers(0, 2 * k - 1), max_size=10)
).map(Word)
_NECKLACE = settings(derandomize=True, max_examples=300)


def test_letter_codes_follow_the_canonical_order():
    abc = Alphabet(["a", "b", "c"], [Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1), Mat2(2, 0, 0, 1)])
    names = ["a", "a^-1", "b", "b^-1", "c", "c^-1"]
    assert [format_word(Word((c,)), abc) for c in range(6)] == names
    assert [format_word(w, abc) for w in iter_level(3, 1)] == names
    for c, name in enumerate(names):
        assert parse_word(name, abc) == Word((c,))
        assert invert(Word((c,))) == Word((c ^ 1,))


@_NECKLACE
@given(_WORDS)
def test_necklace_canonical_matches_oracle(w):
    for v in (w, reduce(w)):
        assert necklace_canonical(v) == necklace_oracle(v)


# ---------------------------------------------------------------- parse/format

def test_format_frozen():
    ab = two_gen_alphabet()
    assert format_word(Word((A, Bi, Bi)), ab) == "a b^-1 b^-1"
    assert format_word(EMPTY_WORD, ab) == ""


def test_parse_round_trip():
    ab = two_gen_alphabet()
    rng = random.Random(37)
    for _ in range(100):
        w = rand_reduced_word(rng, 2, rng.randint(0, 6))
        assert parse_word(format_word(w, ab), ab) == w


def test_parse_syntax():
    ab = two_gen_alphabet()
    assert parse_word("a^3", ab) == Word((A, A, A))
    assert parse_word("b^-2", ab) == Word((Bi, Bi))
    assert parse_word("A b", ab) == Word((Ai, B))  # single uppercase = inverse
    assert parse_word("a b b^-1", ab) == Word((A, B, Bi))  # parse does not reduce
    assert parse_word("", ab) == EMPTY_WORD
    assert parse_word("   ", ab) == EMPTY_WORD
    assert parse_word(f"a^{MAX_WORD_LETTERS}", ab) == Word((A,) * MAX_WORD_LETTERS)


def test_parse_errors():
    ab = two_gen_alphabet()
    with pytest.raises(ValueError):
        parse_word("c", ab)
    with pytest.raises(ValueError):
        parse_word("a^0", ab)
    with pytest.raises(ValueError):
        parse_word("a^", ab)
    with pytest.raises(ValueError):
        parse_word("a*b", ab)
    # the letter limit counts every token, before any is expanded
    with pytest.raises(ValueError, match="limit"):
        parse_word(f"a^{MAX_WORD_LETTERS} b", ab)
    with pytest.raises(ValueError, match="limit"):
        parse_word("b^-300000000", ab)


# ---------------------------------------------------------------- alphabet

def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"], [Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)])
    with pytest.raises(ValueError):
        Alphabet(["a"], [Mat2(1, 2, 2, 4)])  # singular
    with pytest.raises(ValueError):
        Alphabet(["2bad"], [Mat2(1, 2, 0, 1)])
    with pytest.raises(ValueError):
        Alphabet([], [])


def test_alphabet_inverses_precomputed():
    ab = two_gen_alphabet()
    assert ab.letter_matrices[Ai] == Mat2(1, -2, 0, 1)
    assert ab.letter_matrices[B] * ab.letter_matrices[Bi] == Mat2.identity()
