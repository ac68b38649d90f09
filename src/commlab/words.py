"""Reduced words over a symmetric alphabet and their matrix images.

A letter is an int code: 2*i for generator i and 2*i + 1 for its inverse, so
c ^ 1 inverts a letter; a word is a tuple of codes. Code order is the
canonical order on letters, each generator just before its inverse:
a < a^-1 < b < b^-1 < ... All enumeration in the package follows (length,
lexicographic) order under it, so search results are reproducible. Generator
names meet codes only in format_word and parse_word.
"""

from __future__ import annotations

import re
from itertools import groupby

from .exact_core import Mat2, Record, _set, integer_form


class Word(Record):
    letters: tuple

    def __init__(self, letters):
        _set(self, "letters", tuple(letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)


EMPTY_WORD = Word(())


def reduce_letters(letters):
    out = []
    for c in letters:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def invert_letters(letters):
    return tuple(c ^ 1 for c in reversed(letters))


def reduce(w):
    return Word(reduce_letters(w.letters))


def necklace_canonical(w):
    """Canonical representative of the conjugacy class of w and w^-1.

    Cyclically reduce, then take the lexicographically least rotation of the
    word and of its inverse under the canonical letter order (least code
    tuple).
    """
    codes = reduce_letters(w.letters)
    while len(codes) >= 2 and codes[0] ^ 1 == codes[-1]:
        codes = codes[1:-1]
    if not codes:
        return EMPTY_WORD
    best = min(cand[r:] + cand[:r] for cand in (codes, invert_letters(codes)) for r in range(len(cand)))
    return Word(best)


class Alphabet:
    """Named generators with exact invertible matrices. letter_matrices holds
    the 2k letter matrices in code order, inverses precomputed: the matrix of
    letter code c is letter_matrices[c]."""

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
        self.letter_matrices = tuple(x for m in self.matrices for x in (m, m.inverse()))

    def __len__(self):
        return len(self.names)


def evaluate(w, alphabet):
    """Left-to-right matrix image of a word; a homomorphism on reduced words.
    Each run of one repeated letter is raised to its length by squaring."""
    out = Mat2.identity()
    for c, run in groupby(w.letters):
        out = out * alphabet.letter_matrices[c] ** sum(1 for _ in run)
    return out


def iter_level_carrying(num_gens, length, start, step):
    """Values carried along a DFS over the reduced words of exactly the given
    length, in lexicographic order: start for the empty word, and
    step(value, code) for the word extended by the letter with that code
    (code order, skipping code ^ 1 after code). A step that returns None
    cuts that word and every extension of it. Yields only the value; a
    caller that needs the word carries its codes.

    The stack holds (value, last code, letters still to add), so a word of
    any length costs no recursion. A node popped with no letters left is
    yielded; otherwise its children are stepped together and pushed in
    reverse, so the least is popped first.
    """
    backward = range(2 * num_gens - 1, -1, -1)
    stack = [(start, -1, length)]
    pop, push = stack.pop, stack.append
    while stack:
        value, last, remaining = pop()
        if not remaining:
            yield value
            continue
        back = last ^ 1
        remaining -= 1
        for c in backward:
            if c != back and (child := step(value, c)) is not None:
                push((child, c, remaining))


def iter_forms(alphabet, max_len):
    """One word per class: the reduced words of length 1..max_len equal to
    their necklace_canonical form, in canonical order, each as
    (codes, a, b, c, d, den): its letter codes and its image (a, b, c, d)/den,
    the product of the letters' integer forms (no gcd taken) over the product
    of their denominators. The walk builds no Fraction and no Word.

    For a property kept by conjugation and inversion, the first word with it
    in canonical order is its own necklace form, so a scan for that first
    word loses nothing by walking only these.

    The step visits only prefixes that can still extend to a class
    representative, and lets through only representatives as leaves; every
    cut is exact:

    - the first letter is a generator, not an inverse: otherwise the
      inverse word holds the generator, a letter below the first;
    - the word is a prenecklace, a prefix of a word no greater than any of
      its rotations. The walk carries its period per, as in the FKM rule
      (Ruskey, Savage and Wang, Generating necklaces, J. Algorithms 1992):
      appending c to a prefix of length n is cut if c < codes[n - per],
      and sets per = n + 1 if c is greater. This also cuts any letter
      below the first.

    The last letter of a word of length n is then cut unless per divides n,
    the FKM test for the word to be no greater than its own rotations, the
    word is cyclically reduced (its last letter is not the inverse of its
    first), and no rotation of its inverse is smaller. Every letter of the
    inverse is at least the first letter, and equal to it only as the
    inverse of a letter first ^ 1, so only the rotations starting at those
    positions, found by index in the doubled inverse, are compared, and only
    if first ^ 1 occurs. On two generators at max-len 9 the walk makes
    10 731 steps, and 1 791 leaves reach the stack, one per class.
    """
    forms = [integer_form(m) for m in alphabet.letter_matrices]
    flip = [c ^ 1 for c in range(len(forms))].__getitem__  # inverts a letter

    def step(value, code):
        codes, per, a, b, c, d, den = value
        n = len(codes)
        if not n:
            if code & 1:
                return None
        elif code != (prev := codes[n - per]):
            if code < prev:
                return None
            per = n + 1
        codes += (code,)
        if n == last:
            if (n + 1) % per:
                return None
            # both remaining tests can fail only on a word holding first ^ 1
            if (first := codes[0]) ^ 1 in codes:
                if code == first ^ 1:
                    return None
                doubled = (*map(flip, reversed(codes)),) * 2
                r = doubled.index(first)  # first recurs at r + n + 1: index never fails
                while r <= n and doubled[r:r + n + 1] >= codes:
                    r = doubled.index(first, r + 1)
                if r <= n:
                    return None
        (e, f, g, h), k = forms[code]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return (codes, a, b, c, d, den * k) if n == last else (codes, per, a, b, c, d, den * k)

    for n in range(1, max_len + 1):
        last = n - 1
        yield from iter_level_carrying(len(alphabet), n, ((), 1, 1, 0, 0, 1, 1), step)


def _append_code(codes, code):
    return codes + (code,)


def iter_level(num_gens, length):
    """Reduced words of exactly the given length, lexicographic order."""
    for codes in iter_level_carrying(num_gens, length, (), _append_code):
        yield Word(codes)


def iter_words(num_gens, max_len):
    """All reduced words of length <= max_len, shortest first, lex within a length.

    Iterative deepening: memory stays O(max_len) while the output is in the
    canonical total order.
    """
    for n in range(max_len + 1):
        yield from iter_level(num_gens, n)


def iter_level_with_matrices(alphabet, length):
    """Like iter_level but carrying the exact matrix image along the DFS."""
    letter_matrices = alphabet.letter_matrices

    def step(value, code):
        codes, m = value
        return codes + (code,), m * letter_matrices[code]

    for codes, m in iter_level_carrying(len(alphabet), length, ((), Mat2.identity()), step):
        yield Word(codes), m


def iter_words_with_matrices(alphabet, max_len):
    for n in range(max_len + 1):
        yield from iter_level_with_matrices(alphabet, n)


def format_word(w, alphabet):
    """Whitespace-separated tokens, one per letter, ^-1 marking inverses."""
    names = alphabet.names
    return " ".join(names[c >> 1] + ("^-1" if c & 1 else "") for c in w.letters)


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
    the exponents before any letter is expanded, and for an exponent with
    more digits than MAX_WORD_LETTERS, before it is read as an int.
    """
    index = {n: 2 * i for i, n in enumerate(alphabet.names)}
    tokens = []
    for tok in text.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        name = m.group("name")
        upper = name not in index and name.isupper() and name.lower() in index
        code = index.get(name.lower() if upper else name)
        if code is None:
            raise ValueError(f"unknown generator {name!r}")
        exp = m.group("exp")
        if exp is not None and (digits := len(exp.lstrip("-0"))) > len(str(MAX_WORD_LETTERS)):
            raise ValueError(f"exponent of {name!r} has {digits} digits, so the word has "
                             f"more than the limit {MAX_WORD_LETTERS} letters")
        k = 1 if exp is None else int(exp)
        if k == 0:
            raise ValueError(f"zero exponent in token {tok!r}")
        # an uppercase name and a negative exponent each invert the letter
        tokens.append((code + (upper != (k < 0)), abs(k)))
    total = sum(k for _, k in tokens)
    if total > MAX_WORD_LETTERS:
        raise ValueError(f"word has {total} letters, more than the limit {MAX_WORD_LETTERS}")
    return Word(tuple(code for code, k in tokens for _ in range(k)))
