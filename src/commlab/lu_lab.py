"""Two-parabolic lab: the groups Delta_q = <a, b_q> with

    a = [[1, 0], [1, 1]],    b_q = [[1, q], [0, 1]],  q rational, q != 0.

Knapp's discreteness window, ping-pong freeness for |q| >= 4, and shortest
relator searches by meet-in-the-middle over projective images.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from fractions import Fraction

from .exact_core import Mat2, Record, key_mul, projective_key
from .report import frac_str
from .words import Alphabet, Word, evaluate, invert_letters, necklace_canonical, reduce_letters


def lu_generators(q):
    """The alphabet {a, b} of Delta_q. Rejects q = 0 (b collapses to I)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("q = 0 collapses b to the identity")
    a = Mat2(1, 0, 1, 1)
    b = Mat2(1, q, 0, 1)
    return Alphabet(("a", "b"), (a, b))


class KnappVerdict(Record):
    verdict: str  # "discrete" | "indiscrete"
    n: int        # Knapp parameter with |q| = 4cos^2(pi/n), None when indiscrete
    q: Fraction


def knapp(q):
    """Discreteness of Delta_q inside the window 0 < |q| < 4.

    The discrete parameters in the window are |q| = 4cos^2(pi/n) for
    n in {3, 4, 6}, i.e. |q| in {1, 2, 3}; 2 + 2cos(2pi/n) is rational at no
    other n >= 3, so every other rational q in the window is indiscrete.
    q and -q give conjugate groups (conjugate by diag(1, -1)).
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("q = 0 collapses b to the identity")
    if abs(q) >= 4:
        raise ValueError("knapp window is 0 < |q| < 4")
    table = {Fraction(1): 3, Fraction(2): 4, Fraction(3): 6}
    n = table.get(abs(q))
    if n is None:
        return KnappVerdict("indiscrete", None, q)
    return KnappVerdict("discrete", n, q)


class PingpongResult(Record):
    applicable: bool
    free: bool
    m_squared: Fraction  # |q|, the square of the balanced parameter
    steps: tuple
    q: Fraction


def pingpong(q):
    """Ping-pong freeness certificate for |q| >= 4.

    Conjugating by diag(t, 1/t) with t^4 = 1/|q| balances the pair to
    [[1, m], [0, 1]], [[1, 0], [m, 1]] with m^2 = |q| (and a sign flip on one
    parameter when q < 0, which does not affect the estimate). The classical
    chain |x + k*m*y| >= m|y| - |x| > |y| for k != 0 only needs m >= 2, so
    the exact inequality |q| >= 4 certifies freeness.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("q = 0 collapses b to the identity")
    if abs(q) < 4:
        return PingpongResult(False, False, abs(q), ("|q| < 4: ping-pong estimate not available",), q)
    steps = (
        f"|q| = {frac_str(abs(q))} >= 4",
        "balanced form has m^2 = |q|, so m >= 2",
        "for k != 0: |x + k*m*y| >= m|y| - |x| > |y| whenever |x| < |y|",
        "the two parabolic subgroups play ping-pong on the height-ordered halves of R^2",
    )
    return PingpongResult(True, True, abs(q), steps, q)


class RelatorResult(Record):
    status: str                # "relator-found" | "none-found" | "inconclusive"
    relator: Word              # necklace-canonical, None unless found
    scalar: Fraction           # evaluate(relator) = scalar * I
    strategy: str
    max_len: int
    completed_length: int      # no relator of length <= this was missed
    words_per_length: dict     # reduced words enumerated, by exact length
    images_per_length: dict    # distinct projective images among them, by exact length


def _entry_cost(key, word_len):
    # Coarse deterministic memory model for one table entry, in bytes: dict
    # slot overhead plus bignum digits plus the stored word. Used only to
    # compare against mem_cap; identical on every run by construction. The
    # digits are those of the Fraction normal form x/e of each entry x, where
    # e is the first nonzero entry of the key (positive).
    e = next(x for x in key if x)
    digits = 0
    for x in key:
        g = math.gcd(x, e)
        digits += ((x // g).bit_length() + (e // g).bit_length() + 15) // 8
    return 64 + 8 * word_len + digits


_IDENTITY_KEY = (1, 0, 0, 1)


@contextmanager
def _gc_paused():
    # The search allocates hundreds of thousands of tuples and ints but no
    # reference cycles, so refcounting frees everything it drops. Cyclic
    # collections would only rescan the growing table (about a tenth of a
    # max-len 18 search, all of it memory-bound); pause them for the search.
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _unpack_codes(packed, bits):
    """Letter codes of a packed word: a sentinel 1, then bits bits per code,
    first letter highest. Packed words of one length compare like words."""
    mask = (1 << bits) - 1
    return tuple((packed >> shift) & mask for shift in range(packed.bit_length() - 1 - bits, -1, -bits))


def _extend_level(keys, words, code_keys, bits):
    """The reduced words one letter longer than a level's, as parallel lists
    of keys and packed words, in the lexicographic order of
    words.iter_level_carrying: each parent in list order, then each letter
    code c except the inverse of its last letter. One key_mul per word, by
    code_keys[c], the projective key of letter c."""
    mask = (1 << bits) - 1
    codes = tuple(enumerate(code_keys))
    new_keys, new_words = [], []
    add_key, add_word = new_keys.append, new_words.append
    for key, packed in zip(keys, words):
        back = (packed & mask) ^ 1 if packed > 1 else -1  # packed == 1: the empty word
        packed <<= bits
        for c, code_key in codes:
            if c != back:
                add_key(key_mul(key, code_key))
                add_word(packed | c)
    return new_keys, new_words


def relator_search(alphabet, max_len, mem_cap=None, progress=None):
    """Shortest relator (word with scalar image) by meet-in-the-middle.

    Builds all reduced words of length <= ceil(max_len/2) keyed by their
    projective image, an exact_core.projective_key: the primitive integer
    quadruple of the class in PGL(2, Q). Each level is built from the one
    before (_extend_level), multiplying each kept key by each letter's key,
    so no Fraction matrix is built. Equal keys mean equal
    projective_normalize forms, so collisions are exactly those of the
    rational normal form.

    The table maps a key to the first word with that image, first in
    lexicographic order. A word x whose key is already stored, for the word
    F, collides as it is inserted: F x^-1 is a relator candidate, never
    empty since F != x. A relator F x^-1 of length L, split with
    |F| <= |x| = ceil(L/2), gives F and x one image, so the later of them
    collides by level |x|, and every rotation of a cyclic relator is
    scanned, so the first level with a collision carries a
    certified-minimal relator; among minimal-length relators the least
    necklace form is returned (necklace-deduplicating the collision set). No
    collision through level k certifies no relator of length <= 2k.

    Words travel packed into ints (_unpack_codes), and only colliding words
    are decoded; on a free group none is. A level's keys and words are
    dropped once the next level is built from them.

    mem_cap bounds the table size under a coarse deterministic byte model
    (_entry_cost), priced only when a cap is given; a breached cap yields
    status "inconclusive" unless a relator was already certified at a
    completed level; words_per_length and images_per_length then cover the
    completed levels only, not the level that breached the cap. Cyclic
    garbage collection is paused while the levels are built and restored,
    as found, on every return.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    half = (max_len + 1) // 2
    table = {_IDENTITY_KEY: 1}
    cost = 0 if mem_cap is None else _entry_cost(_IDENTITY_KEY, 0)
    words_per_length = {0: 1}
    images_per_length = {0: 1}
    bits = (2 * len(alphabet) - 1).bit_length()
    code_keys = [projective_key(m) for m in alphabet.letter_matrices]

    def finish(status, relator=None, scalar=None, completed=0):
        return RelatorResult(
            status,
            relator,
            scalar,
            "meet-in-the-middle",
            max_len,
            completed,
            words_per_length,
            images_per_length,
        )

    with _gc_paused():
        keys, words = [_IDENTITY_KEY], [1]
        for level in range(1, half + 1):
            keys, words = _extend_level(keys, words, code_keys, bits)
            # images = new keys + keys first met at an earlier level, whose
            # stored word is shorter: below this level's sentinel bit
            floor = 1 << bits * level
            new = 0
            earlier = set()
            capped = False
            candidates = []
            for key, packed in zip(keys, words):
                first = table.get(key)
                if first is None:
                    new += 1
                    if mem_cap is not None:
                        cost += _entry_cost(key, level)
                        if cost > mem_cap:
                            capped = True
                            break
                    table[key] = packed
                    continue
                if first < floor:
                    earlier.add(key)
                # first and packed share an image, so first packed^-1 is scalar
                rel = reduce_letters(_unpack_codes(first, bits) + invert_letters(_unpack_codes(packed, bits)))
                if len(rel) <= max_len:
                    candidates.append(Word(rel))
            if capped:
                return finish("inconclusive", completed=min(2 * (level - 1), max_len))
            words_per_length[level] = len(keys)
            images_per_length[level] = new + len(earlier)
            if progress is not None:
                progress(level, len(keys), len(table))
            if candidates:
                best = min(candidates, key=lambda w: (len(w), necklace_canonical(w).letters))
                relator = necklace_canonical(best)
                image = evaluate(relator, alphabet)
                if not image.is_scalar():
                    raise AssertionError("collision produced a non-scalar image")
                return finish(
                    "relator-found",
                    relator=relator,
                    scalar=image.a,
                    completed=min(2 * level, max_len),
                )
        return finish("none-found", completed=max_len)
