"""Shared test utilities: seeded random rationals, SL2 matrices, words, and
reference implementations the fast paths are checked against."""

from fractions import Fraction

from collections import deque

from commlab.bt_tree import OrbitResult, TreeVertex, act, base_vertex, orbit_bounded
from commlab.diagnostics import PlaceStatus, ProbeCheck, TraceScanResult
from commlab.exact_core import (
    ElementClass,
    Mat2,
    Record,
    _primitive,
    _require_prime,
    classify_real,
    prime_factors,
    projective_normalize,
    vp,
)
from commlab.lu_lab import RelatorResult
from commlab.report import dumps_canonical, to_json
from commlab.words import (
    Alphabet,
    Word,
    evaluate,
    invert_letters,
    iter_level,
    iter_words_with_matrices,
    necklace_canonical,
    reduce_letters,
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


def commutator(g, h):
    """[g, h] = g h g^-1 h^-1."""
    return g * h * g.inverse() * h.inverse()


def rand_reduced_word(rng, num_gens, length):
    out = []
    while len(out) < length:
        c = rng.randrange(2 * num_gens)
        if out and out[-1] == c ^ 1:
            continue
        out.append(c)
    assert reduce_letters(tuple(out)) == tuple(out)
    return Word(tuple(out))


def invert(w):
    return Word(invert_letters(w.letters))


def multiply(u, v):
    """Concatenate and reduce."""
    return Word(reduce_letters(u.letters + v.letters))


def is_reduced(letters):
    return all(letters[i] ^ 1 != letters[i + 1] for i in range(len(letters) - 1))


def dump_generator_file(alphabet):
    """Inverse of cli.load_generator_file, up to canonical fraction strings."""
    return dumps_canonical(to_json(
        {"generators": [{"name": n, "matrix": m} for n, m in zip(alphabet.names, alphabet.matrices)]},
        alphabet,
    ))


def denominator_primes(x):
    """Primes at which the rational x fails to be integral."""
    x = Fraction(x)
    if x.denominator == 1:
        return ()
    return tuple(prime_factors(x.denominator))


def necklace_oracle(w):
    """Reference necklace form: cyclically reduce, then the least rotation
    of the word and of its inverse as a letter code tuple."""
    ls = list(reduce_letters(w.letters))
    while len(ls) >= 2 and ls[0] ^ 1 == ls[-1]:
        ls = ls[1:-1]
    if not ls:
        return Word(())
    best = None
    for cand in (tuple(ls), invert_letters(tuple(ls))):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or rot < best:
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


# PGL(2, Q_p) torsion detected by r = tr^2/det: r = 2 + 2cos(2*pi/n) is
# rational only for n in {1, 2, 3, 4, 6}, i.e. r in {4, 0, 1, 2, 3}. r = 4 is
# the parabolic/identity line; the rest give the order in PGL(2, Q_p).
_PGL2_TORSION_ORDER = {Fraction(0): 2, Fraction(1): 3, Fraction(2): 4, Fraction(3): 6}


def classify_padic_oracle(m, p):
    """Reference classify_padic: the Fraction body the library ran before its
    rule moved to integer forms, kept verbatim but for the name.

    Classify the action of m on the Bruhat-Tits tree of PGL(2, Q_p).

    det(m) may be any nonzero rational; every test is invariant under
    scaling. Loxodromic means v_p(tr^2/det) < 0, with translation length
    -v_p(tr^2/det). Orders are orders in PGL(2, Q_p). Bounded elements with
    odd v_p(det) fix no vertex (only an edge midpoint); the note records
    that.
    """
    _require_prime(p)
    det = m.det()
    if det == 0:
        raise ValueError("singular matrix")
    if m.is_scalar():
        return ElementClass("identity")
    t = m.trace()
    r = t * t / det
    if t != 0:
        v = vp(r, p)
        if v < 0:
            return ElementClass("loxodromic", translation_length=-v)
    note = None
    if vp(det, p) % 2 == 1:
        note = "bounded (vertex or edge midpoint)"
    if r == 4:
        return ElementClass("parabolic", note=note)
    order = _PGL2_TORSION_ORDER.get(r)
    if order is not None:
        return ElementClass("elliptic-finite-order", order=order, note=note)
    return ElementClass("elliptic-infinite-order", note=note)


def translation_length_oracle(m, p):
    return classify_padic_oracle(m, p).translation_length or 0


# Reference word scans: Mat2 walks over every word, where the library walks
# integer forms of one word per class (the finite place decides boundedness
# by Serre's lemma).

_TORSION_R = tuple(_PGL2_TORSION_ORDER)


def real_place_oracle(alphabet, max_len):
    for word, m in iter_words_with_matrices(alphabet, max_len):
        if len(word) == 0:
            continue
        det = m.det()
        if det <= 0:
            continue
        r = m.trace() ** 2 / det
        if r < 4 and r not in _TORSION_R:
            if det == 1:
                cls = classify_real(m)
            else:
                cls = ElementClass("elliptic-infinite-order", note="class from tr^2/det")
            return PlaceStatus("real", "indiscrete-witness", word, cls,
                               "elliptic of infinite order: orbits accumulate")
    return PlaceStatus(
        "real", "inconclusive", None, None,
        f"no elliptic element of infinite order among words of length <= {max_len}",
    )


def finite_place_oracle(alphabet, p, max_len):
    # witness: the first word of infinite order that is not loxodromic, over
    # every word, not one per class; it fixes a point of the tree, so its
    # powers stay in a compact stabilizer
    for word, m in iter_words_with_matrices(alphabet, max_len):
        if len(word) == 0:
            continue
        cls = classify_padic_oracle(m, p)
        if cls.kind in ("parabolic", "elliptic-infinite-order"):
            return PlaceStatus(
                str(p), "indiscrete-witness", word, cls,
                "infinite order and not loxodromic: its powers accumulate in a compact stabilizer",
            )
    # Serre's lemma: the group is bounded iff no word of length <= 2 is loxodromic
    for word, m in iter_words_with_matrices(alphabet, 2):
        if len(word) and (cls := classify_padic_oracle(m, p)).kind == "loxodromic":
            return PlaceStatus(
                str(p), "inconclusive", word, cls,
                f"loxodromic witness, so the group is unbounded; every infinite-order word of length <= {max_len} is loxodromic",
            )
    return PlaceStatus(
        str(p), "bounded-orbit", None, None,
        f"bounded: no word of length <= 2 is loxodromic; no infinite-order word of length <= {max_len}",
    )


def probe_check4_oracle(alphabet, p, max_word_len):
    check4 = ProbeCheck("loxodromic-word-at-p", False, {"p": p})
    for word, m in iter_words_with_matrices(alphabet, max_word_len):
        if len(word) == 0:
            continue
        ell = translation_length_oracle(m, p)
        if ell > 0:
            check4 = ProbeCheck(
                "loxodromic-word-at-p", True,
                {"p": p, "word": word, "trace": m.trace(),
                 "valuation": vp(m.trace(), p), "translation_length": ell},
            )
            break
    return check4


# Reference tree primitives: the Fraction bodies the library ran before its
# vertices moved to integer charts, kept verbatim but for the oracle names.

def canonical_residue_oracle(u, n, p):
    """The canonical representative of u + p^n Z_(p)."""
    u = Fraction(u)
    if u == 0:
        return Fraction(0)
    m = vp(u, p)
    if m >= n:
        return Fraction(0)
    # unit part of u is A/B with both prime to p
    if m >= 0:
        A, B = u.numerator // p**m, u.denominator
    else:
        A, B = u.numerator, u.denominator // p ** (-m)
    mod = p ** (n - m)
    c = A * pow(B, -1, mod) % mod
    return Fraction(c) * Fraction(p) ** m


def vertex_of_oracle(m, p):
    """The vertex spanned by the columns of an invertible matrix.

    Column operations over Z_p preserve the lattice: pivot on the bottom-row
    entry of least valuation, rescale by it (a homothety), then clear the
    other column. What remains is [[det/d^2, b/d], [0, 1]] up to units.
    """
    _require_prime(p)
    det = m.det()
    if det == 0:
        raise ValueError("singular matrix spans no lattice")
    a, b, c, d = m.entries()
    if vp(c, p) < vp(d, p):
        a, b, c, d = b, a, d, c
    n = vp(det / (d * d), p)
    return TreeVertex(p, n, canonical_residue_oracle(b / d, n, p))


def rep_matrix(v):
    """The canonical lattice basis [[p^n, u], [0, 1]] of a vertex."""
    return Mat2(Fraction(v.p) ** v.n, v.u, 0, 1)


def act_oracle(g, v):
    """Image vertex of v under g in GL(2, Q)."""
    return vertex_of_oracle(g * rep_matrix(v), v.p)


def distance_oracle(v, w):
    """Tree distance: the gap between the elementary divisor exponents of the
    transition matrix between representative lattices."""
    if v.p != w.p:
        raise ValueError("vertices live on different trees")
    p = v.p
    m = rep_matrix(v).inverse() * rep_matrix(w)
    least = min(vp(e, p) for e in m.entries() if e != 0)
    return abs(vp(m.det(), p) - 2 * least)


def orbit_oracle(alphabet, p, max_radius, base=None):
    """Breadth-first orbit; on escape, the full scan of words of length
    <= 2*max_radius for a loxodromic witness."""
    _require_prime(p)
    if base is None:
        base = base_vertex(p)
    # canonical, or the base is listed again when the search reaches its canonical form
    base = TreeVertex(p, base.n, canonical_residue_oracle(base.u, base.n, p))
    gens = alphabet.matrices  # a finite closure under the generators is closed under inverses
    seen = {base}
    order = [base]
    frontier = deque([base])
    radius_seen = 0
    escaped = False
    while frontier and not escaped:
        v = frontier.popleft()
        for g in gens:
            w = act_oracle(g, v)
            if w in seen:
                continue
            d = distance_oracle(base, w)
            if d > max_radius:
                escaped = True
                break
            radius_seen = max(radius_seen, d)
            seen.add(w)
            order.append(w)
            frontier.append(w)
    if not escaped:
        return OrbitResult("bounded", tuple(order), radius_seen, None, max_radius)
    for word, m in iter_words_with_matrices(alphabet, 2 * max_radius):
        if len(word) == 0:
            continue
        if translation_length_oracle(m, p) > 0:
            return OrbitResult("unbounded", None, max_radius, word, max_radius)
    return OrbitResult("inconclusive", None, max_radius, None, max_radius)


def doubled(alphabet):
    """Each generator and its inverse as separate generators, so that the
    closure under its generators is the search over all 2k letters."""
    return Alphabet([n + s for n in alphabet.names for s in ("", "_inv")], alphabet.letter_matrices)


def assert_closed_under_generators(alphabet, p, radius, base=None):
    """The closure of {base} under the generators alone is the bounded orbit:
    each generator maps a finite set injectively into itself, hence onto it,
    so the set is closed under the inverses too. The search over the k
    generators finds the vertex set, size and radius_seen of the search over
    the 2k letters, with the same status at every radius up to radius_seen,
    and every letter maps the set into itself."""
    both_letters = doubled(alphabet)
    res = orbit_bounded(alphabet, p, radius, base=base)
    both = orbit_bounded(both_letters, p, radius, base=base)
    assert res.status == both.status == "bounded"
    orbit = set(res.orbit)
    assert orbit == set(both.orbit)
    assert (len(res.orbit), res.radius_seen) == (len(both.orbit), both.radius_seen)
    assert {act(g, v) for g in alphabet.letter_matrices for v in orbit} == orbit
    for r in range(1, res.radius_seen + 1):
        assert orbit_bounded(alphabet, p, r, base=base).status == orbit_bounded(both_letters, p, r, base=base).status


def key_mul(k, l):
    """Key of the product of two matrices, from their keys: the tuple oracle
    for the packed keys that lu_lab._extend_level builds."""
    a, b, c, d = k
    e, f, g, h = l
    return _primitive(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def naive_relator_search(alphabet, max_len):
    """Reference strategy: scan every reduced word by length for a scalar image.

    Exponentially slower than relator_search; an independent oracle,
    including an independent count of distinct projective images per length.
    """
    words_per_length = {}
    images_per_length = {}
    found = []
    for length in range(max_len + 1):
        count = 0
        keys = set()
        for word in iter_level(len(alphabet), length):
            m = evaluate(word, alphabet)
            count += 1
            keys.add(projective_normalize(m))
            if length > 0 and m.is_scalar():
                found.append(word)
        words_per_length[length] = count
        images_per_length[length] = len(keys)
        if found:
            best = min(found, key=lambda w: necklace_canonical(w).letters)
            relator = necklace_canonical(best)
            return RelatorResult(
                "relator-found",
                relator,
                evaluate(relator, alphabet).a,
                "naive",
                max_len,
                length,
                words_per_length,
                images_per_length,
            )
    return RelatorResult(
        "none-found", None, None, "naive", max_len, max_len, words_per_length, images_per_length
    )


# Zariski density oracles: the pair test the library ran before the adjoint
# span, kept verbatim but for its result type, and a brute-force rank.

class PairDensity(Record):
    verdict: str      # "dense" | "not-dense"
    reason: str       # "reducible" | "monomial" | None
    traces: dict      # labelled exact traces backing the verdict


def zariski_dense(g, h):
    """Zariski density of <g, h> in SL_2, decided by exact trace conditions.

    Requires det 1. tr[g, h] = 2 is equivalent to a common eigenvector over
    an extension (reducible). Otherwise the only way to miss density is to
    preserve an unordered pair of lines (monomial up to conjugacy): with
    both squares noncentral that is detected by tr[g^2, h^2] = 2; when a
    generator s has trace 0 (central square) the pair of lines test becomes
    tr([t, s t s^-1]) = 2 for the other generator t. Finite image cannot
    occur for det-1 matrices over Q beyond the cases already covered.
    """
    if g.det() != 1 or h.det() != 1:
        raise ValueError("zariski_dense needs det 1")
    c = commutator(g, h).trace()
    traces = {"tr_commutator": c}
    if c == 2:
        return PairDensity("not-dense", "reducible", traces)
    g2, h2 = g * g, h * h
    if not g2.is_scalar() and not h2.is_scalar():
        c2 = commutator(g2, h2).trace()
        traces["tr_commutator_squares"] = c2
        if c2 == 2:
            return PairDensity("not-dense", "monomial", traces)
        return PairDensity("dense", None, traces)
    # a central square means that generator has trace 0
    if g.trace() == 0 and h.trace() == 0:
        traces["tr_g"] = g.trace()
        traces["tr_h"] = h.trace()
        return PairDensity("not-dense", "monomial", traces)
    s, t = (g, h) if g.trace() == 0 else (h, g)
    cc = commutator(t, s * t * s.inverse()).trace()
    traces["tr_line_pair_test"] = cc
    if cc == 2:
        return PairDensity("not-dense", "monomial", traces)
    return PairDensity("dense", None, traces)


SL2_BASIS = (Mat2(0, 1, 0, 0), Mat2(0, 0, 1, 0), Mat2(1, 0, 0, -1))


def rank(rows, full=None):
    """Rank of equal-length Fraction vectors, by Gaussian elimination; it
    stops reading rows once the rank reaches full."""
    echelon, seen = [], set()  # echelon rows as (pivot, row with 1 at the pivot)
    for v in rows:
        if len(echelon) == full:
            break
        if v in seen:
            continue
        seen.add(v)
        for j, r in echelon:
            if v[j]:
                v = [x - v[j] * y if y else x for x, y in zip(v, r)]
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is not None:
            echelon.append((pivot, [x / v[pivot] for x in v]))
    return len(echelon)


def conjugation_row(w):
    """The map X -> W X W^-1 on sl_2, as the 9 Fraction coordinates of the
    images of e, f, h in that basis."""
    w_inv = w.inverse()
    return tuple(c for x in SL2_BASIS for y in (w * x * w_inv,) for c in (y.b, y.c, y.a))


def adjoint_rank_oracle(alphabet, max_len=8):
    """Dimension of the span of the conjugation maps of all reduced words of
    length <= max_len. Words up to length 8 reach the whole span of the
    group: each length adds a dimension until the span stops growing."""
    return rank((conjugation_row(w) for _, w in iter_words_with_matrices(alphabet, max_len)), full=9)
