"""Two-parabolic lab: the groups Delta_q = <a, b_q> with

    a = [[1, 0], [1, 1]],    b_q = [[1, q], [0, 1]],  q rational, q != 0.

Knapp's discreteness window, ping-pong freeness for |q| >= 4, and shortest
relator searches by meet-in-the-middle over projective images.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact_core import Mat2, Record, projective_key
from .report import frac_str
from .words import Alphabet, Word, evaluate, invert_letters, necklace_canonical


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


_IDENTITY_KEY = (1, 0, 0, 1)
_FIRST_LEVELS = 16  # levels the first key width holds; past them it doubles


def _projected_bytes(level, words, new_words, width, repack):
    """Bytes the search holds once a level exists, projected before it is
    built: the words of the parent level (its dict, packed keys and last
    codes, at both widths under a repack), the new_words of the level (their
    packed keys, key and last-code lists and dict) and the two per-length
    count dicts, every key packed at width (the width after any repack). A
    held key is priced at 96 B, a list slot and a dict entry (a growing dict
    briefly holds about 90 B per entry, its old and new tables together), plus
    24 + 4 ceil(4 width / 30) B, the size of a 4 width-bit int; a new word
    at 8 B more, for its last code, and a level at 192 B, for its counts."""
    key = 96 + 24 + 4 * -(-4 * width // 30)
    return 8192 + (words * (1 + repack) + new_words) * key + 8 * new_words + 192 * (level + 1)


def _key_width(code_keys, levels):
    """Bits per entry that hold the key of any word of at most levels letters.

    With M the largest |entry| of a letter key and b = (2M).bit_length(), so
    M < 2^(b-1), each product entry is a sum of two products, and every
    entry x of a level-L key has |x| <= 2^(L-1) M^L < 2^(L b - 1).
    """
    m = max(abs(x) for key in code_keys for x in key)
    return levels * (2 * m).bit_length()


def _pack_key(key, width):
    """A key as one int: its entries (|x| < 2^(width-1)) as the signed digits
    of base 2^width, first entry highest. The int has the sign of the first
    nonzero entry, so a key packs to a positive int, and equal ints mean
    equal keys."""
    a, b, c, d = key
    return (((a << width) + b << width) + c << width) + d


def _offset(width):
    """2^(width-1) in each of the four fields: added to a packed key, it
    makes every field its entry plus 2^(width-1), in [1, 2^width)."""
    return (1 << width - 1) * (1 + (1 << width) + (1 << 2 * width) + (1 << 3 * width))


def _unpack_key(packed, width):
    """The key that _pack_key packed into packed at this width."""
    half = 1 << width - 1
    mask = (1 << width) - 1
    packed += _offset(width)
    return ((packed >> 3 * width) - half, (packed >> 2 * width & mask) - half,
            (packed >> width & mask) - half, (packed & mask) - half)


def _widen(packed, width):
    """A packed key repacked at twice the width."""
    return _pack_key(_unpack_key(packed, width), 2 * width)


def _word_at(length, index, num_codes):
    """Letter codes of the word at index in the level of reduced words of the
    given length over num_codes letter codes, in the order _extend_level
    builds it: mixed radix, with num_codes choices for the first letter and
    num_codes - 1 for each later one, in code order skipping the inverse of
    the letter before."""
    if not length:
        return ()
    fan = num_codes - 1
    digits = []
    for _ in range(length - 1):
        index, digit = divmod(index, fan)
        digits.append(digit)
    codes = [index]
    for digit in reversed(digits):
        codes.append(digit if digit < codes[-1] ^ 1 else digit + 1)
    return tuple(codes)


def _extend_level(keys, lasts, code_keys, width):
    """The reduced words one letter longer than a level's, from the parent
    level's packed keys in level order (any ordered iterable) and its last
    letter codes (-1 for the empty word): the lists of the new level's
    packed keys (_pack_key at width, which must hold the new level) and last
    codes, in the lexicographic order of words.iter_level_carrying: each
    parent in level order, then each letter code c except the inverse of its
    last letter. So a word is fixed by its index in its level (_word_at),
    and no word is built. Each parent key is unpacked once and multiplied in
    integers by code_keys[c], the projective key of letter c; the product is
    made primitive with its first nonzero entry positive, then packed.

    A letter key L of det +-1 needs no gcd: K L adj(L) = det(L) K, so the
    content of K L divides det L when K is primitive. Packing is linear, so
    the packed K L is a A + b B + c C + d D for the parent's entries a, b,
    c, d and four packed constants of L; its sign is the sign of the first
    nonzero entry, the only thing left to fix.
    """
    w2, w3 = 2 * width, 3 * width
    half = 1 << width - 1
    fields = (1 << width) - 1
    offset = _offset(width)
    letters = []  # (code, |det L| or 0 for no gcd, the entries of L or A, B, C, D)
    for code, (e, f, g, h) in enumerate(code_keys):
        det = e * h - f * g
        if det in (1, -1):
            letters.append((code, 0, (e << w3) + (f << w2), (g << w3) + (h << w2),
                            (e << width) + f, (g << width) + h))
        else:
            letters.append((code, abs(det), e, f, g, h))
    gcd = math.gcd
    new_keys, new_lasts = [], []
    add_key, add_last = new_keys.append, new_lasts.append
    for key, last in zip(keys, lasts):
        back = last ^ 1  # -2 after the empty word: no letter is skipped
        key += offset
        a, b = (key >> w3) - half, (key >> w2 & fields) - half
        c, d = (key >> width & fields) - half, (key & fields) - half
        for code, det, e, f, g, h in letters:
            if code == back:
                continue
            if not det:
                x = a * e + b * f + c * g + d * h
                add_key(x if x > 0 else -x)
            else:
                x, y, z, t = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
                n = gcd(det, x, y, z, t)
                if (x or y or z or t) < 0:
                    n = -n
                if n != 1:
                    x, y, z, t = x // n, y // n, z // n, t // n
                add_key((((x << width) + y << width) + z << width) + t)
            add_last(code)
    return new_keys, new_lasts


def relator_search(alphabet, max_len, mem_cap=None, progress=None):
    """Shortest relator (word with scalar image) by meet-in-the-middle.

    Builds all reduced words of length <= ceil(max_len/2) keyed by their
    projective image, an exact_core.projective_key: the primitive integer
    quadruple of the class in PGL(2, Q), packed into one int (_pack_key).
    Each level is built from the one before (_extend_level), multiplying each
    kept key by each letter's key, so no Fraction matrix is built. The key
    width is taken from the levels built, never from max_len (_key_width):
    it holds _FIRST_LEVELS levels, and doubles, repacking the level before,
    when a level needs more. Equal packed keys mean equal keys, and equal
    keys mean equal projective_normalize forms, so collisions are exactly
    those of the rational normal form.

    A word x whose key was already met, for the first word F with that key,
    collides: F x^-1 is a relator candidate, never empty since F != x. A
    relator of length n, split as u v with |u| = ceil(n/2), gives u and
    v^-1 one image, so the later of them collides by level |u|, and every
    rotation of a cyclic relator is scanned, so the first level with a
    collision carries a certified-minimal relator; among minimal-length
    relators the least necklace form is returned (necklace-deduplicating the
    collision set). No collision through level k certifies no relator of
    length <= 2k.

    Lemma: if no level below L collided, x of level L collides only with an
    F of level L - 1 or L, and F x^-1 is cyclically reduced. Proof: if F
    and x ended, or began, with one letter, stripping it would leave two
    distinct words shorter than L with one key, the later of which
    collided; so F x^-1 is a cyclically reduced relator of length
    |F| + L > 2 (L - 1). The search stops at its first collision level.

    So the search holds only the two levels that can collide, each a dict of
    its distinct packed keys in level order. A level keeps each word's key
    and last letter code only: the word is its index in the level, decoded
    (_word_at) only when its key collides, and on a free group none does.
    A level collides when it shares a key with the level before or repeats
    a key of its own; both tests run in C, on the dicts. Only then does one
    pass over the level find each F: at its position in the level before,
    or at the first index of its key in this level. A level that does not
    collide replaces the level before. progress(level, words, keys), if
    given, follows each level built, with its distinct keys.

    mem_cap bounds the bytes the search holds: the two levels' dicts and
    lists. Under a cap, one projection per level (_projected_bytes), made
    before the level is built and before any repack, prices what is held
    once the level exists, from the level, the parent and new word counts
    and the key width. A projection past the cap stops the search, status
    "inconclusive", with no relator of length <= 2 (level - 1) missed;
    words_per_length and images_per_length then cover the levels built. A
    relator met in a level the cap admitted is returned. So the traced peak
    of a capped search stays under its cap, and every result under a cap at
    or above the last projection is the uncapped one.
    """
    if max_len < 2:
        raise ValueError("max_len must be >= 2")
    half = (max_len + 1) // 2
    code_keys = [projective_key(m) for m in alphabet.letter_matrices]
    width = _key_width(code_keys, min(half, _FIRST_LEVELS))
    prev, lasts = dict.fromkeys([_pack_key(_IDENTITY_KEY, width)]), [-1]
    words_per_length = {0: 1}
    images_per_length = {0: 1}

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

    num_codes = len(code_keys)
    for level in range(1, half + 1):
        repack = _key_width(code_keys, level) > width
        if mem_cap is not None:
            new_words = len(prev) * (num_codes - 1) if level > 1 else num_codes
            if _projected_bytes(level, len(prev), new_words, width << repack, repack) > mem_cap:
                return finish("inconclusive", completed=min(2 * (level - 1), max_len))
        if repack:  # double the width, repack
            prev = dict.fromkeys([_widen(key, width) for key in prev])
            width *= 2
        keys, lasts = _extend_level(prev, lasts, code_keys, width)
        current = dict.fromkeys(keys)
        earlier = current.keys() & prev.keys()  # keys first met at level - 1 (lemma)
        words_per_length[level] = len(keys)
        images_per_length[level] = len(current)
        if progress is not None:
            progress(level, len(keys), len(current))
        if earlier or len(current) < len(keys):
            positions = {key: index for index, key in enumerate(prev) if key in earlier}
            candidates = []
            for index, key in enumerate(keys):
                if key in earlier:
                    word = _word_at(level - 1, positions[key], num_codes)
                elif current[key] is None:  # the first word of this level with key
                    current[key] = index
                    continue
                else:
                    word = _word_at(level, current[key], num_codes)
                # F and x share an image, so F x^-1 is scalar
                rel = word + invert_letters(_word_at(level, index, num_codes))
                if len(rel) <= max_len:
                    candidates.append(necklace_canonical(Word(rel)))
            if candidates:
                relator = min(candidates, key=lambda w: (len(w), w.letters))
                image = evaluate(relator, alphabet)
                if not image.is_scalar():
                    raise AssertionError("collision produced a non-scalar image")
                return finish(
                    "relator-found",
                    relator=relator,
                    scalar=image.a,
                    completed=min(2 * level, max_len),
                )
        prev = current
    return finish("none-found", completed=max_len)
