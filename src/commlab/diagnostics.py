"""Irreducibility and discreteness diagnostics for S-arithmetic subgroups of
SL(2, Q): place support, Zariski density, integral-trace scans, per-place
verdicts, and a two-generator probe.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bt_tree import first_loxodromic, translation_length
from .exact_core import (
    INFINITY,
    ElementClass,
    Mat2,
    Record,
    _require_prime,
    _split,
    classify_padic,
    form_order,
    form_translation_length,
    integer_form,
    prime_factors,
    vp,
)
from .lu_lab import knapp
from .words import Alphabet, Word, evaluate, iter_forms

SCAN_MAX_LEN = 6  # default word length of the per-place scans: diag irreducible, probe check (3)

GS_TAG = "conditional on the Greenberg-Shalom hypothesis"

GS_NOTES = (
    GS_TAG + ": if the diagonal image is discrete in the product over its place "
    "support, these witnesses fit the profile of an irreducible lattice there",
    "discreteness of the image in the product over the finite places alone "
    "is not decided by these searches",
)

PROBE_MESSAGE = (
    "candidate irreducible pair: finite index in an arithmetic lattice "
    "would follow, " + GS_TAG
)


def long_reid_pair():
    """The diagonal/dense pair in SL(2, Z[1/6]) acting on H^2 x T_2 x T_3."""
    a = Mat2(3, 0, 0, Fraction(1, 3))
    b = Mat2(Fraction(1, 8), 9, Fraction(1, 32), Fraction(41, 4))
    return Alphabet(("a", "b"), (a, b))


class PlaceSupport(Record):
    primes: tuple
    includes_real: bool = True


def place_support(alphabet):
    """Primes appearing in any denominator of a generator or its inverse;
    each distinct denominator is factored once."""
    dens = {e.denominator for m in alphabet.letter_matrices for e in m.entries()} - {1}
    return PlaceSupport(tuple(sorted({q for n in dens for q in prime_factors(n)})), True)


class DensityResult(Record):
    verdict: str      # "dense" | "not-dense"
    dimension: int    # of the span of Ad(G) in End(sl_2); 9 exactly when dense
    words: tuple      # Words whose Ad images are the echelon basis of that span


def _adjoint(a, b, c, d):
    """X -> M X adj(M) on sl_2 for M = (a, b, c, d), row-major in the basis
    e, f, h: Ad of M up to the nonzero scalar det M, in integers."""
    return (a * a, -b * b, -2 * a * b, -c * c, d * d, 2 * c * d, -a * c, b * d, a * d + b * c)


def _primitive_row(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v)


def density_report(alphabet):
    """Zariski density of the image of the generated group in PGL(2), decided
    by the span of its adjoint images.

    Ad(g) is conjugation by g on sl_2; for the integer form M of g it is
    _adjoint(M) up to a scalar, so the Q-span S of Ad(G) in End(sl_2) = M_3(Q)
    is computed on integers. S is span{I} closed under right multiplication by
    each Ad(g_i) (an algebra holding Ad(g) holds Ad(g)^-1), so a breadth-first
    walk over words keeps at most 9 of them and makes at most 9 k products.
    The image is dense exactly when dim S = 9: a dense image acts absolutely
    irreducibly on sl_2, and Burnside's theorem gives all of M_3. Otherwise its
    Zariski closure lies in a Borel subgroup, a torus normalizer or a finite
    subgroup of PGL(2, Q), which is cyclic or dihedral, and each of these fixes
    a line of sl_2. For generators of any nonzero det the verdict is about the
    image in PGL(2). words, the empty word first, are those whose Ad images
    form the echelon basis of S: 9 independent words when dense, else a basis
    of a subspace that holds I and is closed under every Ad(g_i).
    """
    ads = [_adjoint(*integer_form(m)[0]) for m in alphabet.matrices]
    echelon, words = [], []  # echelon rows as (pivot, row)
    queue = [((), (1, 0, 0, 0, 1, 0, 0, 0, 1))]
    for codes, x in queue:  # grows while it is read: breadth first
        v = x
        for j, row in echelon:
            if v[j]:
                v = tuple(row[j] * s - v[j] * t for s, t in zip(v, row))
        if not any(v):
            continue
        v = _primitive_row(v)
        echelon.append((next(j for j, s in enumerate(v) if s), v))
        words.append(Word(codes))
        if len(words) == 9:
            break
        for i, ad in enumerate(ads):
            queue.append((codes + (2 * i,), _primitive_row(
                [sum(x[r + k] * ad[3 * k + c] for k in range(3)) for r in (0, 3, 6) for c in range(3)])))
    verdict = "dense" if len(words) == 9 else "not-dense"
    return DensityResult(verdict, len(words), tuple(words))


class TraceScanResult(Record):
    primes: tuple
    max_len: int
    hits: tuple               # (word, trace, {p: v_p(trace)}) per hit
    classes_per_length: dict  # necklace classes scanned, by representative length
    hits_per_length: dict


def integral_trace_scan(alphabet, primes, max_len):
    """Conjugacy-class scan for words whose trace is integral at every prime.

    Walks iter_forms, one representative per necklace class (the word equal
    to its own canonical form) of length 1..max_len in canonical order, and
    records those whose trace has nonnegative valuation at every listed
    prime. The identity (length 0) is integral trivially and skipped. The
    trace (a + d)/den of (a, b, c, d)/den is integral at p exactly when p
    does not divide den / gcd(a + d, den), its reduced denominator (1 for a
    zero trace), so one gcd of that with the product of the primes decides
    every prime at once. Only a hit gets its valuations
    v_p(a + d) - v_p(den) (INFINITY for a zero trace), its trace as a
    Fraction and its Word.
    """
    for p in primes:
        _require_prime(p)
    classes_per_length = {n: 0 for n in range(1, max_len + 1)}
    hits_per_length = {n: 0 for n in range(1, max_len + 1)}
    hits = []
    prime_product = math.prod(primes)
    for codes, a, _, _, d, den in iter_forms(alphabet, max_len):
        classes_per_length[len(codes)] += 1
        t = a + d
        if math.gcd(den // math.gcd(t, den), prime_product) == 1:
            hits_per_length[len(codes)] += 1
            vals = {p: _split(t, p)[0] - _split(den, p)[0] for p in primes} if t else dict.fromkeys(primes, INFINITY)
            hits.append((Word(codes), Fraction(t, den), vals))
    return TraceScanResult(tuple(primes), max_len, tuple(hits), classes_per_length, hits_per_length)


class PlaceVerdict(Record):
    """One place's verdict and the rule that decided it: "ping-pong" or
    "knapp" on two parabolics at the real place (q, and n where Knapp finds
    the pair discrete), "serre-lemma" at a compact prime, or "scan" over the
    classes of length <= max_len, indiscrete with a witness word and unknown
    without one. An unknown prime carries its loxodromic word. max_len is
    None when no scan ran."""
    place: str            # "real" or the prime as a string
    verdict: str          # "discrete" | "indiscrete" | "compact" | "unknown"
    rule: str
    word: Word = None
    classification: ElementClass = None
    q: Fraction = None
    n: int = None
    max_len: int = None


def _real_place(alphabet, max_len):
    """The real place. Two parabolics are decided on q: free and discrete by
    ping-pong for |q| >= 4, discrete by Knapp for |q| in {1, 2, 3}, else
    indiscrete, with the scan's word if one is short enough. The rule reads
    the given generators only, so another presentation of the group may fall
    to the scan, which looks for an elliptic word of infinite order."""
    q = _two_parabolic_q(alphabet)
    if q is not None and abs(q) >= 4:
        return PlaceVerdict("real", "discrete", "ping-pong", q=q)
    if q is not None and (n := knapp(q).n) is not None:
        return PlaceVerdict("real", "discrete", "knapp", q=q, n=n)
    word = cls = None
    for codes, a, b, c, d, den in iter_forms(alphabet, max_len):
        det = a * d - b * c
        if det > 0 and (a + d) ** 2 < 4 * det and form_order(a, b, c, d) is None:
            word, cls = Word(codes), ElementClass("elliptic-infinite-order",
                                                  note=None if det == den * den else "class from tr^2/det")
            break
    verdict = "unknown" if q is None and word is None else "indiscrete"
    return PlaceVerdict("real", verdict, "scan" if q is None else "knapp", word, cls, q=q, max_len=max_len)


def _finite_place(alphabet, p, max_len):
    """The prime p: compact when first_loxodromic finds no loxodromic word
    (Serre's lemma). Otherwise a word of infinite order that is not
    loxodromic fixes a point of the tree (Serre, Trees, I.6), so its powers
    accumulate in a compact stabilizer: the scan's first such word makes the
    place indiscrete, and without one it is unknown."""
    loxodromic = first_loxodromic(alphabet, p)
    if loxodromic is None:
        return PlaceVerdict(str(p), "compact", "serre-lemma")
    for codes, a, b, c, d, _ in iter_forms(alphabet, max_len):
        if form_order(a, b, c, d) is None and not form_translation_length(a, b, c, d, p):
            verdict, word = "indiscrete", Word(codes)
            break
    else:
        verdict, word = "unknown", loxodromic
    cls = classify_padic(evaluate(word, alphabet), p)
    return PlaceVerdict(str(p), verdict, "scan", word, cls, max_len=max_len)


def _two_parabolic_q(alphabet):
    """q when the two generators are parabolics of det 1 with no common fixed
    point, else None. Scaled to trace 2, such a pair is conjugate in GL(2, Q)
    to Delta_q with q = tr(ab) - 2, which for traces +-2 is
    tr(ab) tr(a) tr(b) / 4 - 2, a conjugation invariant; q = 0 exactly when a
    and b share a fixed point.
    """
    if len(alphabet) != 2:
        return None
    a, b = alphabet.matrices
    if any(m.det() != 1 or m.trace() ** 2 != 4 or m.is_scalar() for m in (a, b)):
        return None
    return (a * b).trace() * a.trace() * b.trace() / 4 - 2 or None


class IrreducibilityReport(Record):
    support: PlaceSupport
    places: tuple             # PlaceVerdict entries, real first then primes ascending
    product_discrete: bool
    product_justification: str
    density: DensityResult
    conditional_notes: tuple


def greenberg_shalom_notes(places, density):
    """GS_NOTES when the places fit the profile of an irreducible lattice in
    a product, else (): the real place (places[0]) is not discrete, some
    prime is indiscrete, every prime is indiscrete or compact, and the group
    is dense. Only the verdicts and the density are read."""
    finite = {st.verdict for st in places[1:]}
    fits = "indiscrete" in finite and finite <= {"indiscrete", "compact"}
    return GS_NOTES if fits and places[0].verdict != "discrete" and density.verdict == "dense" else ()


def irreducibility_report(alphabet, max_len=SCAN_MAX_LEN):
    """Per-place verdicts and the product-level summary.

    Each place asks its theorem first and scans only what the theorem leaves
    open, up to max_len (_real_place, _finite_place). The diagonal image in
    the product over the full support is always discrete (S-integer
    matrices of bounded denominator form a discrete set), which is what
    makes per-place indiscreteness evidence of irreducibility rather than
    of chaos.
    """
    support = place_support(alphabet)
    places = (_real_place(alphabet, max_len),
              *(_finite_place(alphabet, p, max_len) for p in support.primes))
    density = density_report(alphabet)
    return IrreducibilityReport(
        support,
        places,
        True,
        "S-integer diagonal embedding: finitely many generators with "
        "denominators supported on S give a discrete diagonal image in the "
        "product over S and the real place",
        density,
        greenberg_shalom_notes(places, density),
    )


class ProbeCheck(Record):
    name: str
    passed: bool
    data: dict


class ProbeReport(Record):
    checks: tuple
    decisive_pass: bool   # checks (1), (2) and (4); check (3) is reported, not required
    message: str          # PROBE_MESSAGE on decisive pass, else None


def two_gen_probe(g, h, p):
    """Four quick exact checks on a candidate irreducible pair at {real, p}.

    (1) g is loxodromic over R; (2) <g, h> is Zariski dense, by
    density_report, whose words certify the verdict; (3) <g, h> is
    indiscrete at the real place: its data is the real place's verdict in
    diag irreducible at SCAN_MAX_LEN, and a fail is discrete or unknown; (4) first_loxodromic
    finds a loxodromic word at p (a fail means bounded at p). Entries must
    lie in Z[1/p] with det 1.
    """
    _require_prime(p)
    for m in (g, h):
        if m.det() != 1:
            raise ValueError("probe needs det 1")
        for e in m.entries():
            if _split(e.denominator, p)[1] > 1:
                raise ValueError(f"entries outside Z[1/{p}]: denominator {e.denominator} is not a power of {p}")

    t = g.trace()
    check1 = ProbeCheck("real-loxodromic-generator", t * t > 4, {"trace": t})

    alphabet = Alphabet(("g", "h"), (g, h))
    density = density_report(alphabet)
    check2 = ProbeCheck("zariski-dense-pair", density.verdict == "dense", dict(vars(density)))

    real = _real_place(alphabet, SCAN_MAX_LEN)
    check3 = ProbeCheck("real-place-indiscrete", real.verdict == "indiscrete", dict(vars(real)))

    check4 = ProbeCheck("loxodromic-word-at-p", False, {"p": p})
    if (word := first_loxodromic(alphabet, p)) is not None:
        m = evaluate(word, alphabet)
        check4 = ProbeCheck(
            "loxodromic-word-at-p", True,
            {"p": p, "word": word, "trace": m.trace(),
             "valuation": vp(m.trace(), p), "translation_length": translation_length(m, p)},
        )

    decisive = check1.passed and check2.passed and check4.passed
    return ProbeReport(
        (check1, check2, check3, check4),
        decisive,
        PROBE_MESSAGE if decisive else None,
    )
