"""Shared test utilities: seeded random rationals, SL2 matrices, words, and
reference implementations the fast paths are checked against."""

from fractions import Fraction

from commlab.diagnostics import TraceScanResult
from commlab.exact_core import Mat2, vp
from commlab.words import (
    Word,
    canonical_letters,
    invert_letters,
    iter_words_with_matrices,
    reduce_letters,
    word_key,
)


def rand_frac(rng, bound=30, nonzero=False):
    while True:
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if not (nonzero and x == 0):
            return x


def rand_sl2(rng, steps=4, bound=5):
    """Random det-1 matrix as a product of elementary shears; exact."""
    m = Mat2.identity()
    for _ in range(steps):
        x = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if rng.random() < 0.5:
            m = m * Mat2(1, x, 0, 1)
        else:
            m = m * Mat2(1, 0, x, 1)
    return m


def rand_reduced_word(rng, num_gens, length):
    letters = canonical_letters(num_gens)
    out = []
    while len(out) < length:
        l = rng.choice(letters)
        if out and out[-1][0] == l[0] and out[-1][1] == -l[1]:
            continue
        out.append(l)
    assert reduce_letters(tuple(out)) == tuple(out)
    return Word(tuple(out))


def necklace_oracle(w):
    """Reference necklace form on letter pairs: cyclically reduce, then the
    least rotation of the word and of its inverse under word_key."""
    ls = list(reduce_letters(w.letters))
    while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
        ls = ls[1:-1]
    if not ls:
        return Word(())
    best = None
    for cand in (tuple(ls), invert_letters(tuple(ls))):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or word_key(rot) < word_key(best):
                best = rot
    return Word(best)


def trace_scan_oracle(alphabet, primes, max_len):
    """Reference integral-trace scan: Mat2 products, necklace_oracle."""
    classes = {n: 0 for n in range(1, max_len + 1)}
    hit_counts = {n: 0 for n in range(1, max_len + 1)}
    hits = []
    for w, m in iter_words_with_matrices(alphabet, max_len):
        if len(w) == 0 or necklace_oracle(w) != w:
            continue
        classes[len(w)] += 1
        t = m.trace()
        vals = {p: vp(t, p) for p in primes}
        if all(v >= 0 for v in vals.values()):
            hit_counts[len(w)] += 1
            hits.append((w, t, vals))
    return TraceScanResult(tuple(primes), max_len, tuple(hits), classes, hit_counts)
