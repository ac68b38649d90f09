"""Reduced words over a symmetric alphabet and their matrix images.

A letter is a pair (index, sign) with sign +1 or -1; a word is a tuple of
letters. The canonical order on letters puts each generator just before its
inverse: a < a^-1 < b < b^-1 < ... All enumeration in the package follows
(length, lexicographic) order under that convention, so search results are
reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby

from .exact_core import Mat2, integer_form


@dataclass(frozen=True)
class Word:
    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


EMPTY_WORD = Word(())


def letter_key(letter):
    i, s = letter
    return (i, 0 if s > 0 else 1)


def word_key(letters):
    return tuple(letter_key(l) for l in letters)


def canonical_letters(num_gens):
    """All 2k letters in canonical order."""
    out = []
    for i in range(num_gens):
        out.append((i, 1))
        out.append((i, -1))
    return tuple(out)


def _cancels(x, y):
    return x[0] == y[0] and x[1] == -y[1]


def reduce_letters(letters):
    out = []
    for l in letters:
        if out and _cancels(out[-1], l):
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def invert_letters(letters):
    return tuple((i, -s) for i, s in reversed(letters))


def reduce(w):
    return Word(reduce_letters(w.letters))


def invert(w):
    return Word(invert_letters(w.letters))


def multiply(u, v):
    """Concatenate and reduce."""
    return Word(reduce_letters(u.letters + v.letters))


def is_reduced(letters):
    return all(not _cancels(letters[i], letters[i + 1]) for i in range(len(letters) - 1))


def letter_code(letter):
    """The letter as the int 2*i + (s < 0). Codes order letters canonically,
    a < a^-1 < b < ..., so code tuples compare like word_key tuples; a
    letter's inverse is its code XOR 1."""
    i, s = letter
    return 2 * i + (s < 0)


def _code_letter(code):
    return (code >> 1, -1 if code & 1 else 1)


def _inverse_codes(codes):
    return tuple(c ^ 1 for c in reversed(codes))


def is_necklace_form(codes):
    """Whether a code tuple is its own necklace_canonical form: no greater
    than any rotation of itself or of its inverse, and cyclically reduced.
    Exits at the first failing test; most words fail on a letter smaller
    than their first."""
    if not codes:
        return True
    first = codes[0]
    if min(codes) < first:  # the common rejection, before building the inverse
        return False
    for cand in (codes, _inverse_codes(codes)):
        for r, c in enumerate(cand):
            if c < first or (c == first and cand[r:] + cand[:r] < codes):
                return False
    # i = 0 compares the first code with the last, its cyclic neighbour
    return all(codes[i] ^ 1 != codes[i - 1] for i in range(len(codes)))


def necklace_canonical(w):
    """Canonical representative of the conjugacy class of w and w^-1.

    Cyclically reduce, then take the lexicographically least rotation of the
    word and of its inverse under the canonical letter order (least letter
    code tuple).
    """
    codes = [letter_code(l) for l in reduce_letters(w.letters)]
    while len(codes) >= 2 and codes[0] ^ 1 == codes[-1]:
        codes = codes[1:-1]
    if not codes:
        return EMPTY_WORD
    codes = tuple(codes)
    best = min(cand[r:] + cand[:r] for cand in (codes, _inverse_codes(codes)) for r in range(len(cand)))
    return word_of_codes(best)


class Alphabet:
    """Named generators with exact invertible matrices; inverses precomputed."""

    _NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")

    def __init__(self, names, matrices):
        self.names = tuple(names)
        self.matrices = tuple(matrices)
        if len(self.names) != len(self.matrices):
            raise ValueError("names and matrices differ in length")
        if not self.names:
            raise ValueError("empty alphabet")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator name")
        for n in self.names:
            if not self._NAME_RE.match(n):
                raise ValueError(f"bad generator name {n!r}")
        for m in self.matrices:
            if m.det() == 0:
                raise ValueError("singular generator matrix")
        self.inverses = tuple(m.inverse() for m in self.matrices)

    def __len__(self):
        return len(self.names)

    def matrix_of(self, letter):
        i, s = letter
        return self.matrices[i] if s > 0 else self.inverses[i]


def evaluate(w, alphabet):
    """Left-to-right matrix image of a word; a homomorphism on reduced words.
    Each run of one repeated letter is raised to its length by squaring."""
    out = Mat2.identity()
    for l, run in groupby(w.letters):
        out = out * alphabet.matrix_of(l) ** sum(1 for _ in run)
    return out


def iter_level_carrying(num_gens, length, start, step):
    """Values carried along a DFS over the reduced words of exactly the given
    length, in lexicographic order: start for the empty word, and
    step(value, code) for the word extended by the letter with that code
    (letter_code order, skipping code ^ 1 after code). Yields only the value;
    a caller that needs the word carries its codes and calls word_of_codes.
    """
    codes = range(2 * num_gens)

    def extend(value, last, remaining):
        if remaining == 0:
            yield value
            return
        for c in codes:
            if c != last ^ 1:
                yield from extend(step(value, c), c, remaining - 1)

    yield from extend(start, -1, length)


def word_of_codes(codes):
    """The word whose letter codes are codes."""
    return Word(tuple(_code_letter(c) for c in codes))


def iter_forms(alphabet, max_len):
    """Reduced words of length 1..max_len in canonical order, each as
    (codes, a, b, c, d, den): its letter codes and its image (a, b, c, d)/den,
    the product of the letters' integer forms (no gcd taken) over the product
    of their denominators. The walk builds no Fraction and no Word."""
    forms = [integer_form(alphabet.matrix_of(l)) for l in canonical_letters(len(alphabet))]

    def step(value, code):
        codes, a, b, c, d, den = value
        (e, f, g, h), k = forms[code]
        return (codes + (code,), a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, den * k)

    for n in range(1, max_len + 1):
        yield from iter_level_carrying(len(alphabet), n, ((), 1, 0, 0, 1, 1), step)


def _append_code(codes, code):
    return codes + (code,)


def iter_level(num_gens, length):
    """Reduced words of exactly the given length, lexicographic order."""
    for codes in iter_level_carrying(num_gens, length, (), _append_code):
        yield word_of_codes(codes)


def iter_words(num_gens, max_len):
    """All reduced words of length <= max_len, shortest first, lex within a length.

    Iterative deepening: memory stays O(max_len) while the output is in the
    canonical total order.
    """
    for n in range(max_len + 1):
        yield from iter_level(num_gens, n)


def iter_level_with_matrices(alphabet, length):
    """Like iter_level but carrying the exact matrix image along the DFS."""

    def step(value, code):
        codes, m = value
        return codes + (code,), m * alphabet.matrix_of(_code_letter(code))

    for codes, m in iter_level_carrying(len(alphabet), length, ((), Mat2.identity()), step):
        yield word_of_codes(codes), m


def iter_words_with_matrices(alphabet, max_len):
    for n in range(max_len + 1):
        yield from iter_level_with_matrices(alphabet, n)


def format_word(w, alphabet):
    """Whitespace-separated tokens, one per letter, ^-1 marking inverses."""
    parts = []
    for i, s in w.letters:
        name = alphabet.names[i]
        parts.append(name if s > 0 else name + "^-1")
    return " ".join(parts)


_TOKEN_RE = re.compile(r"^(?P<name>[A-Za-z][A-Za-z0-9_]*)(?:\^(?P<exp>-?\d+))?$")

# Longest word parse_word expands. Exact entries grow with the word; on the
# long-reid pair a word of this length already takes seconds to evaluate and
# its entries pass Python's 4300-digit int-to-str limit.
MAX_WORD_LETTERS = 4096


def parse_word(text, alphabet):
    """Parse whitespace-separated tokens into a word.

    Token forms: name, name^k, name^-k. A single uppercase token whose
    lowercase form is a generator denotes the inverse (A means a^-1); a
    mixed-case token names only a generator spelled that way. The
    result is not reduced; callers reduce when they need to. Raises
    ValueError for words of more than MAX_WORD_LETTERS letters, counted from
    the exponents before any letter is expanded.
    """
    index = {n: i for i, n in enumerate(alphabet.names)}
    tokens = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        name = m.group("name")
        sign = 1
        if name not in index and name.isupper() and name.lower() in index:
            name = name.lower()
            sign = -1
        if name not in index:
            raise ValueError(f"unknown generator {m.group('name')!r}")
        exp = m.group("exp")
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise ValueError(f"zero exponent in token {tok!r}")
        tokens.append(((index[name], sign * (1 if k > 0 else -1)), abs(k)))
    total = sum(k for _, k in tokens)
    if total > MAX_WORD_LETTERS:
        raise ValueError(f"word has {total} letters, more than the limit {MAX_WORD_LETTERS}")
    return Word(tuple(letter for letter, k in tokens for _ in range(k)))
