"""Irreducibility and discreteness diagnostics for S-arithmetic subgroups of
SL(2, Q): place support, Zariski density, integral-trace scans, per-place
indiscreteness witnesses, and a two-generator probe.
"""

from __future__ import annotations

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
    commutator,
    denominator_primes,
    vp,
)
from .lu_lab import knapp
from .report import frac_str
from .words import Alphabet, Word, evaluate, format_word, iter_forms

GS_TAG = "conditional on the Greenberg-Shalom hypothesis"

PROBE_MESSAGE = (
    "candidate irreducible pair: finite index in an arithmetic lattice "
    "would follow, " + GS_TAG
)


def _infinite_order(a, b, c, d):
    """Whether (a, b, c, d)/den has infinite order in PGL(2): not scalar, and
    tr^2/det = (a + d)^2/(ad - bc) is not a torsion value 0, 1, 2 or 3."""
    det = a * d - b * c
    return not (b == c == 0 and a == d) and (a + d) ** 2 not in (0, det, 2 * det, 3 * det)


def long_reid_pair():
    """The diagonal/dense pair in SL(2, Z[1/6]) acting on H^2 x T_2 x T_3."""
    a = Mat2(3, 0, 0, Fraction(1, 3))
    b = Mat2(Fraction(1, 8), 9, Fraction(1, 32), Fraction(41, 4))
    return Alphabet(("a", "b"), (a, b))


class PlaceSupport(Record):
    primes: tuple
    includes_real: bool = True


def place_support(alphabet):
    """Primes appearing in any denominator of a generator or its inverse."""
    primes = set()
    for m in alphabet.letter_matrices:
        for e in m.entries():
            primes.update(denominator_primes(e))
    return PlaceSupport(tuple(sorted(primes)), True)


class DensityResult(Record):
    verdict: str      # "dense" | "not-dense" | "unknown"
    reason: str       # "reducible" | "monomial" | "finite" | None
    traces: dict      # labelled exact traces backing the verdict
    pair: tuple = None  # words tested, as formatted strings, when relevant


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
        return DensityResult("not-dense", "reducible", traces)
    g2, h2 = g * g, h * h
    if not g2.is_scalar() and not h2.is_scalar():
        c2 = commutator(g2, h2).trace()
        traces["tr_commutator_squares"] = c2
        if c2 == 2:
            return DensityResult("not-dense", "monomial", traces)
        return DensityResult("dense", None, traces)
    # a central square means that generator has trace 0
    if g.trace() == 0 and h.trace() == 0:
        traces["tr_g"] = g.trace()
        traces["tr_h"] = h.trace()
        return DensityResult("not-dense", "monomial", traces)
    s, t = (g, h) if g.trace() == 0 else (h, g)
    cc = commutator(t, s * t * s.inverse()).trace()
    traces["tr_line_pair_test"] = cc
    if cc == 2:
        return DensityResult("not-dense", "monomial", traces)
    return DensityResult("dense", None, traces)


def density_report(alphabet):
    """Density verdict for the whole generating set.

    One generator is never dense. For two, the pair decides the group. For
    more, pairs of generators and two-letter products are tried until one is
    dense; failing that the verdict stays unknown (pair certificates cannot
    rule density out).
    """
    k = len(alphabet)
    if k == 1:
        return DensityResult(
            "not-dense", "reducible", {}, (alphabet.names[0],)
        )
    candidates = [Word((2 * i,)) for i in range(k)]
    if k > 2:
        for i in range(k):
            for j in range(k):
                if i != j:
                    candidates.append(Word((2 * i, 2 * j)))
    # zariski_dense needs det 1; each candidate is evaluated once, not once per pair
    candidates = [(w, m) for w in candidates if (m := evaluate(w, alphabet)).det() == 1]
    best = None
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            (u, g), (v, h) = candidates[i], candidates[j]
            r = zariski_dense(g, h)
            named = DensityResult(
                r.verdict, r.reason, r.traces,
                (format_word(u, alphabet), format_word(v, alphabet)),
            )
            if r.verdict == "dense":
                return named
            if best is None:
                best = named
    if k == 2 and best is not None:
        # the pair is the whole group, so its verdict is exact
        return best
    return DensityResult("unknown", None, {}, None)


class TraceScanResult(Record):
    primes: tuple
    max_len: int
    hits: tuple               # (word, trace, {p: v_p(trace)}) per hit
    classes_per_length: dict  # necklace classes scanned, by representative length
    hits_per_length: dict


def integral_trace_scan(alphabet, primes, max_len):
    """Conjugacy-class scan for words whose trace is integral at every prime.

    Walks one representative per necklace class (the word equal to its own
    canonical form) of length 1..max_len in canonical order, and records
    those whose trace has nonnegative valuation at every listed prime. The
    identity (length 0) is integral trivially and skipped.

    The walk (iter_forms with necklaces) yields exactly the class
    representatives, and carries letter codes and integer forms. The trace
    of (a, b, c, d)/den has v_p = v_p(a + d) - v_p(den), INFINITY for a zero
    trace, taken on the integers; only a hit gets its trace as a Fraction
    and its Word.
    """
    for p in primes:
        _require_prime(p)
    classes_per_length = {n: 0 for n in range(1, max_len + 1)}
    hits_per_length = {n: 0 for n in range(1, max_len + 1)}
    hits = []
    for codes, a, _, _, d, den in iter_forms(alphabet, max_len, necklaces=True):
        classes_per_length[len(codes)] += 1
        t = a + d
        if t:
            vals = {p: _split(t, p)[0] - _split(den, p)[0] for p in primes}
        else:
            vals = dict.fromkeys(primes, INFINITY)
        if all(v >= 0 for v in vals.values()):
            hits_per_length[len(codes)] += 1
            hits.append((Word(codes), Fraction(t, den), vals))
    return TraceScanResult(tuple(primes), max_len, tuple(hits), classes_per_length, hits_per_length)


class PlaceStatus(Record):
    place: str            # "real" or the prime as a string
    status: str           # "indiscrete-witness" | "bounded-orbit" | "inconclusive",
                          # which at a prime always carries a loxodromic word
    word: Word            # witness word, None otherwise
    classification: ElementClass
    note: str = None


def _real_place_status(alphabet, max_len):
    for codes, a, b, c, d, den in iter_forms(alphabet, max_len):
        det = a * d - b * c
        if det > 0 and (a + d) ** 2 < 4 * det and _infinite_order(a, b, c, d):
            cls = ElementClass("elliptic-infinite-order", note=None if det == den * den else "class from tr^2/det")
            return PlaceStatus("real", "indiscrete-witness", Word(codes), cls,
                               "elliptic of infinite order: orbits accumulate")
    return PlaceStatus(
        "real", "inconclusive", None, None,
        f"no elliptic element of infinite order among words of length <= {max_len}",
    )


def _finite_place_status(alphabet, p, max_len):
    """Indiscreteness at p from words of length <= max_len, on integer forms.

    A word of infinite order whose image (a, b, c, d)/den is p-integral with
    unit det (every entry has v_p >= v_p(den), and v_p(ad - bc) = 2 v_p(den))
    lies in the compact stabilizer of the base vertex. Failing that, Serre's
    lemma (Trees, I.6.5) decides: the group is bounded iff no word of length
    <= 2 is loxodromic, and then any word of infinite order is a witness.
    """
    first_infinite = None
    for codes, a, b, c, d, den in iter_forms(alphabet, max_len):
        if not _infinite_order(a, b, c, d):
            continue
        if first_infinite is None:
            first_infinite = codes
        k = _split(den, p)[0]
        if not any(x % p**k for x in (a, b, c, d)) and _split(a * d - b * c, p)[0] == 2 * k:
            word = Word(codes)
            return PlaceStatus(
                str(p), "indiscrete-witness", word, classify_padic(evaluate(word, alphabet), p),
                "infinite order inside the base vertex stabilizer",
            )
    loxodromic = first_loxodromic(alphabet, p, 2)
    if loxodromic is not None:
        return PlaceStatus(
            str(p), "inconclusive", loxodromic, None,
            f"loxodromic witness, so the group is unbounded; no integrality witness of length <= {max_len}",
        )
    if first_infinite is not None:
        # a bounded group has no loxodromic: infinite order is parabolic or elliptic
        word = Word(first_infinite)
        return PlaceStatus(
            str(p), "indiscrete-witness", word, classify_padic(evaluate(word, alphabet), p),
            "infinite order in a bounded group: no word of length <= 2 is loxodromic",
        )
    return PlaceStatus(
        str(p), "bounded-orbit", None, None,
        f"bounded: no word of length <= 2 is loxodromic; no infinite-order word of length <= {max_len}",
    )


def _lu_parameter(alphabet):
    if len(alphabet) != 2:
        return None
    a, b = alphabet.matrices
    if a != Mat2(1, 0, 1, 1):
        return None
    if b.a == 1 and b.d == 1 and b.c == 0 and b.b != 0:
        return b.b
    return None


class IrreducibilityReport(Record):
    support: PlaceSupport
    places: tuple             # PlaceStatus entries, real first then primes ascending
    product_discrete: bool
    product_justification: str
    density: DensityResult
    conditional_notes: tuple


def irreducibility_report(alphabet, max_len=6):
    """Per-place indiscreteness diagnostics and the product-level summary.

    Each finite place in the support gets an integral-unit witness or a
    verdict by Serre's lemma, so it is inconclusive only with a loxodromic
    word; the real place is scanned for elliptic elements of infinite
    order. The diagonal image in the product over the full support is
    always discrete (S-integer matrices of bounded denominator form a
    discrete set), which is what makes per-place indiscreteness evidence
    of irreducibility rather than of chaos.
    """
    support = place_support(alphabet)
    real = _real_place_status(alphabet, max_len)
    q = _lu_parameter(alphabet)
    if q is not None:
        if abs(q) >= 4:
            note = f"free and discrete at the real place by ping-pong (|q| = {frac_str(abs(q))} >= 4)"
        elif (kv := knapp(q)).verdict == "discrete":
            note = f"discrete at the real place (Knapp parameter n = {kv.n})"
        else:
            note = "inside the Knapp indiscreteness window"
        real = real.replace(note=real.note + "; " + note)
    places = [real]
    for p in support.primes:
        places.append(_finite_place_status(alphabet, p, max_len))
    density = density_report(alphabet)
    notes = []
    finite = places[1:]
    if finite and all(st.status == "indiscrete-witness" for st in finite) and density.verdict == "dense":
        notes.append(
            GS_TAG + ": if the diagonal image is discrete in the product over "
            "its place support, these witnesses fit the profile of an "
            "irreducible lattice there"
        )
        notes.append(
            "discreteness of the image in the product over the finite places "
            "alone is not decided by these searches"
        )
    return IrreducibilityReport(
        support,
        tuple(places),
        True,
        "S-integer diagonal embedding: finitely many generators with "
        "denominators supported on S give a discrete diagonal image in the "
        "product over S and the real place",
        density,
        tuple(notes),
    )


class ProbeCheck(Record):
    name: str
    passed: bool
    data: dict


class ProbeReport(Record):
    checks: tuple
    decisive_pass: bool   # checks (1), (2) and (4); check (3) is evidence only
    message: str          # PROBE_MESSAGE on decisive pass, else None


def _delta_from_identity(m):
    return max(abs(m.a - 1), abs(m.b), abs(m.c), abs(m.d - 1))


def two_gen_probe(g, h, p, iterations=5, max_word_len=6):
    """Four quick exact checks on a candidate irreducible pair at {real, p}.

    (1) g is loxodromic over R; (2) <g, h> is Zariski dense; (3) iterated
    commutators c_0 = h, c_(k+1) = [c_k, g] stay nontrivial while their
    max-entry distance from I strictly decreases, reported as evidence and
    never as proof; (4) some word of length <= max_word_len is loxodromic on
    the tree at p. Entries must lie in Z[1/p] with det 1. The first delta
    too long for the report to print stops the probe with DigitLimitError.
    """
    for m in (g, h):
        if m.det() != 1:
            raise ValueError("probe needs det 1")
        for e in m.entries():
            extra = [q for q in denominator_primes(e) if q != p]
            if extra:
                raise ValueError(f"entries outside Z[1/{p}]: denominator prime {extra[0]}")
    _require_prime(p)

    t = g.trace()
    check1 = ProbeCheck("real-loxodromic-generator", t * t > 4, {"trace": t})

    density = zariski_dense(g, h)
    check2 = ProbeCheck("zariski-dense-pair", density.verdict == "dense",
                        {"verdict": density.verdict, "traces": density.traces})

    deltas = []
    nonidentity = True
    c = h
    for _ in range(iterations):
        c = commutator(c, g)
        deltas.append(_delta_from_identity(c))
        frac_str(deltas[-1])  # raises DigitLimitError: the digits double each step
        if c.is_identity():
            nonidentity = False
            break
    first_violation = next(  # 1-based index of the first c_k that fails to contract
        (i + 2 for i in range(len(deltas) - 1) if deltas[i] <= deltas[i + 1]), None)
    decreasing = first_violation is None
    check3 = ProbeCheck(
        "iterated-commutator-contraction",
        nonidentity and decreasing and len(deltas) == iterations,
        {
            "start_delta": _delta_from_identity(h),
            "deltas": tuple(deltas),
            "nonidentity": nonidentity,
            "strictly_decreasing": decreasing,
            "first_violation": first_violation,
        },
    )

    alphabet = Alphabet(("g", "h"), (g, h))
    check4 = ProbeCheck("loxodromic-word-at-p", False, {"p": p})
    word = first_loxodromic(alphabet, p, max_word_len)
    if word is not None:
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
