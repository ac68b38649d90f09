"""Exact arithmetic layer: valuations, 2x2 matrices, element classification.

The torsion tables are pinned two independent ways: a float enumeration of
2cos(pi k/n) (the only rational values are 0, +-1, +-2), and direct matrix
powers. Floats appear only here, never in the package.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.bt_tree import TreeVertex, translation_length
from commlab.exact_core import (
    INFINITY,
    PRIME_TEST_BOUND,
    ElementClass,
    Mat2,
    Record,
    classify_padic,
    classify_real,
    integer_form,
    is_prime,
    prime_factors,
    projective_key,
    projective_normalize,
    vp,
)
from commlab.lu_lab import KnappVerdict
from commlab.words import Word
from helpers import (
    classify_padic_oracle,
    commutator,
    denominator_primes,
    key_mul,
    rand_frac,
    rand_sl2,
    translation_length_oracle,
)


# ---------------------------------------------------------------- oracles

def test_rational_trace_oracle():
    # enumerate 2cos(pi k/n); the values that land on a rational are exactly
    # 0, +-1, +-2, which is why the finite-order trace tables below are short
    hits = set()
    for n in range(1, 121):
        for k in range(0, 2 * n + 1):
            x = 2.0 * math.cos(math.pi * k / n)
            r = Fraction(x).limit_denominator(1000)
            if abs(float(r) - x) < 1e-9:
                hits.add(r)
    assert hits == {Fraction(v) for v in (-2, -1, 0, 1, 2)}


@pytest.mark.parametrize(
    "m,order",
    [
        (Mat2(0, 1, -1, 0), 4),  # trace 0
        (Mat2(1, -1, 1, 0), 6),  # trace 1
        (Mat2(0, 1, -1, -1), 3),  # trace -1
    ],
)
def test_sl2_torsion_orders_by_direct_power(m, order):
    assert m.det() == 1
    p = Mat2.identity()
    for _ in range(order - 1):
        p = p * m
        assert p != Mat2.identity()
    assert p * m == Mat2.identity()
    c = classify_real(m)
    assert c.kind == "elliptic-finite-order" and c.order == order


@pytest.mark.parametrize(
    "m,order",
    [
        (Mat2(0, 1, -1, 0), 2),  # tr^2/det = 0
        (Mat2(1, 1, -1, 0), 3),  # tr^2/det = 1
        (Mat2(1, 1, -1, 1), 4),  # tr^2/det = 2
        (Mat2(2, 1, -1, 1), 6),  # tr^2/det = 3
    ],
)
def test_pgl2_torsion_orders_by_direct_power(m, order):
    # projective order: least k with m^k scalar
    r = m.trace() ** 2 / m.det()
    assert r in (0, 1, 2, 3)
    p = m
    for k in range(1, 7):
        if p.b == 0 and p.c == 0 and p.a == p.d:
            assert k == order
            break
        p = p * m
    else:
        pytest.fail("no scalar power found")


# ---------------------------------------------------------------- primes

def test_is_prime_frozen():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    assert all(is_prime(n) == trial(n) for n in range(10**5))


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 respectively
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)


def test_is_prime_refuses_numbers_past_its_bound():
    assert is_prime(PRIME_TEST_BOUND - 168)  # the largest prime below the bound
    for n in (PRIME_TEST_BOUND, 2**89 - 1):
        with pytest.raises(ValueError, match="decided only below"):
            is_prime(n)


def test_prime_factors_agrees_with_is_prime():
    for n in range(1, 400):
        fs = prime_factors(n)
        assert all(is_prime(p) for p in fs)
        m = n
        for p in fs:
            while m % p == 0:
                m //= p
        assert m == 1
        assert list(fs) == sorted(set(fs))


def test_prime_factors_matches_trial_division():
    def trial(n):
        out, f = [], 2
        while f * f <= n:
            if n % f == 0:
                out.append(f)
                while n % f == 0:
                    n //= f
            f += 1
        return out + [n] if n > 1 else out

    assert all(prime_factors(n) == trial(n) for n in range(1, 2 * 10**4))


def test_prime_factors_splits_large_cofactors():
    assert prime_factors(1000000007 * 1000000009) == [1000000007, 1000000009]
    assert prime_factors((10**12 + 39) * (10**12 + 61)) == [10**12 + 39, 10**12 + 61]
    assert prime_factors(-(2**5) * 1000003**3) == [2, 1000003]
    assert prime_factors(2**64 + 1) == [274177, 67280421310721]


def test_prime_factors_refuses_a_cofactor_past_the_prime_bound():
    with pytest.raises(ValueError, match="decided only below"):
        prime_factors((10**13 + 37) * (10**13 + 51))


# ---------------------------------------------------------------- valuations

def test_vp_frozen():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(Fraction(3, 4), 2) == -2
    assert vp(Fraction(-9, 5), 3) == 2
    assert vp(7, 5) == 0
    assert vp(0, 5) is INFINITY


def test_vp_rejects_nonprime():
    with pytest.raises(ValueError):
        vp(10, 4)
    with pytest.raises(ValueError):
        vp(10, 1)


def test_infinity_ordering():
    assert INFINITY > 10**9 and INFINITY >= 10**9
    assert not (INFINITY < 0) and not (INFINITY <= -(10**9))
    assert INFINITY == INFINITY and INFINITY >= INFINITY and INFINITY <= INFINITY
    assert not (INFINITY > INFINITY)
    assert min(INFINITY, 3) == 3
    assert max(INFINITY, 3) is INFINITY


def test_vp_multiplicative_and_ultrametric():
    rng = random.Random(101)
    for _ in range(1000):
        p = rng.choice([2, 3, 5, 7])
        x = rand_frac(rng, nonzero=True)
        y = rand_frac(rng, nonzero=True)
        assert vp(x * y, p) == vp(x, p) + vp(y, p)
        if x + y != 0:
            lo = min(vp(x, p), vp(y, p))
            assert vp(x + y, p) >= lo
            if vp(x, p) != vp(y, p):
                assert vp(x + y, p) == lo


def test_denominator_primes():
    assert denominator_primes(Fraction(1, 12)) == (2, 3)
    assert denominator_primes(Fraction(-5, 6)) == (2, 3)
    assert denominator_primes(Fraction(3)) == ()


# ---------------------------------------------------------------- matrices

def test_mat2_algebra():
    rng = random.Random(7)
    for _ in range(200):
        m = rand_sl2(rng)
        n = rand_sl2(rng)
        assert (m * n).det() == m.det() * n.det() == 1
        assert m * m.inverse() == Mat2.identity()
        assert m.inverse() * m == Mat2.identity()
        assert (m * n).inverse() == n.inverse() * m.inverse()
        assert m**3 == m * m * m
        assert m**-2 == (m.inverse()) ** 2
        assert m**0 == Mat2.identity()


def test_mat2_pow_matches_linear_product():
    for m in (Mat2(2, 1, 1, 1), Mat2(Fraction(1, 2), 3, -1, Fraction(5, 3)), Mat2(0, 2, 3, 0)):
        for k in range(-7, 8):
            base = m if k >= 0 else m.inverse()
            expect = Mat2.identity()
            for _ in range(abs(k)):
                expect = expect * base
            assert m**k == expect, (m, k)


def test_mat2_inverse_rejects_singular():
    with pytest.raises(ZeroDivisionError):
        Mat2(1, 2, 2, 4).inverse()


def test_mat2_hash_and_eq():
    a = Mat2(1, Fraction(1, 2), 0, 1)
    b = Mat2(Fraction(2, 2), Fraction(2, 4), Fraction(0), Fraction(3, 3))
    assert a == b and hash(a) == hash(b)


# ---------------------------------------------------------------- records

class _Pair(Record):
    left: int
    right: str = "r"


def test_record_construction_by_position_keyword_and_default():
    assert _Pair.__match_args__ == ("left", "right")
    for p in (_Pair(1, "x"), _Pair(1, right="x"), _Pair(right="x", left=1)):
        assert (p.left, p.right) == (1, "x")
    assert _Pair(1) == _Pair(1, "r")
    assert vars(_Pair(1)) == {"left": 1, "right": "r"}
    e = ElementClass("loxodromic", translation_length=2)
    assert (e.kind, e.order, e.translation_length, e.note) == ("loxodromic", None, 2, None)


@pytest.mark.parametrize("args, kwargs, message", [
    ((), {}, "_Pair is missing field 'left'"),
    ((1, "x", 3), {}, "_Pair got an extra or repeated field: 3"),
    ((1,), {"colour": 3}, "_Pair got an extra or repeated field: 'colour'"),
    ((1,), {"left": 2}, "_Pair got an extra or repeated field: 'left'"),
])
def test_record_refuses_a_missing_extra_or_repeated_field(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        _Pair(*args, **kwargs)


@pytest.mark.parametrize("record", [_Pair(1), Mat2(1, 0, 0, 1), Word((0,)), TreeVertex(2, 0, 0)])
def test_record_is_immutable(record):
    name = record.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, 5)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 5


def test_record_equality_is_by_type_and_fields():
    assert _Pair(1, "x") == _Pair(1, "x") and hash(_Pair(1, "x")) == hash(_Pair(1, "x"))
    assert _Pair(1, "x") != _Pair(1, "y") and _Pair(1, "x") != _Pair(2, "x")

    class Other(Record):
        left: int
        right: str = "r"

    assert _Pair(1) != Other(1)
    assert Mat2(1, 2, 3, 4) != (1, 2, 3, 4) and (1, 2, 3, 4) != Mat2(1, 2, 3, 4)
    assert Word((0, 2)) != (0, 2)
    assert len({_Pair(1), _Pair(1, "r"), Other(1)}) == 2


def test_record_replace():
    p = _Pair(1, "x")
    assert p.replace(right="y") == _Pair(1, "y") and p == _Pair(1, "x")
    assert p.replace() == p and p.replace() is not p
    assert KnappVerdict("discrete", 3, 1).replace(q=-1) == KnappVerdict("discrete", 3, -1)
    with pytest.raises(TypeError, match="extra or repeated field: 'colour'"):
        p.replace(colour=3)


def test_record_repr_has_the_dataclass_format():
    assert repr(_Pair(1, "x")) == "_Pair(left=1, right='x')"
    assert repr(ElementClass("parabolic")) == (
        "ElementClass(kind='parabolic', order=None, translation_length=None, note=None)")
    assert repr(Word((0, 3))) == "Word(letters=(0, 3))"
    assert repr(KnappVerdict("discrete", 4, Fraction(2))) == (
        "KnappVerdict(verdict='discrete', n=4, q=Fraction(2, 1))")
    assert repr(TreeVertex(3, -2, Fraction(5, 9))) == "TreeVertex(3^-2:0)"  # 5/9 is 0 mod 3^-2
    assert repr(Mat2(1, Fraction(1, 2), 0, 1)) == "Mat2[[1, 1/2], [0, 1]]"


def test_hot_records_from_ints_and_fractions_agree():
    pairs = [
        (Mat2(1, 2, 0, -1), Mat2(Fraction(1), Fraction(4, 2), Fraction(0), Fraction(-3, 3))),
        (Word((0, 3)), Word([Fraction(0), Fraction(3)])),
        (Word(iter((0, 3))), Word((0, 3))),
        (TreeVertex(3, 1, 2), TreeVertex(3, 1, Fraction(2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
    assert all(type(x) is Fraction for x in Mat2(1, 2, 0, -1).entries())
    assert type(TreeVertex(3, 1, 2).u) is Fraction
    assert type(Word([0, 3]).letters) is tuple


def test_commutator_convention():
    g = Mat2(1, 1, 0, 1)
    h = Mat2(1, 0, 1, 1)
    assert commutator(g, h) == g * h * g.inverse() * h.inverse()


def test_two_generator_trace_identity():
    # Fricke: tr[g,h] = tr^2 g + tr^2 h + tr^2(gh) - tr g tr h tr gh - 2
    rng = random.Random(55)
    for _ in range(500):
        g = rand_sl2(rng)
        h = rand_sl2(rng)
        x, y, z = g.trace(), h.trace(), (g * h).trace()
        assert commutator(g, h).trace() == x * x + y * y + z * z - x * y * z - 2


# ------------------------------------------------------ projective normal form

def test_projective_normalize_basics():
    m = Mat2(0, Fraction(3, 2), 5, 7)
    n = projective_normalize(m)
    assert n == Mat2(0, 1, Fraction(10, 3), Fraction(14, 3))
    # first nonzero entry in row-major order is 1
    first = next(x for x in (n.a, n.b, n.c, n.d) if x != 0)
    assert first == 1


def test_projective_normalize_scale_invariant():
    rng = random.Random(31)
    for _ in range(50):
        m = rand_sl2(rng)
        s = rand_frac(rng, nonzero=True)
        assert projective_normalize(m.scale(s)) == projective_normalize(m)
        assert projective_normalize(projective_normalize(m)) == projective_normalize(m)


def test_projective_normalize_separates():
    a = Mat2(1, 1, 0, 1)
    b = Mat2(1, 2, 0, 1)
    assert projective_normalize(a) != projective_normalize(b)
    with pytest.raises(ValueError):
        projective_normalize(Mat2(0, 0, 0, 0))


# ------------------------------------------------- integer projective key

# Small entries make equal projective classes likely; wide ones exercise
# big numerators and denominators. Zero is drawn often on purpose.
_ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.fractions(max_denominator=10**9),
)
_MATS = st.builds(Mat2, _ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES)
_NONZERO_MATS = _MATS.filter(lambda m: any(m.entries()))
_NONZERO_SCALARS = st.fractions(max_denominator=10**6).filter(bool)
_KERNEL = settings(derandomize=True, max_examples=150)


@_KERNEL
@given(_MATS, _MATS)
def test_integer_form_clears_denominators_and_multiplies(m, n):
    (a, b, c, d), den = integer_form(m)
    assert den == math.lcm(*(f.denominator for f in m.entries()))
    assert Mat2(Fraction(a, den), Fraction(b, den), Fraction(c, den), Fraction(d, den)) == m
    # unreduced products of integer forms stay exact: the walk of
    # diagnostics.integral_trace_scan relies on this
    (e, f, g, h), den2 = integer_form(n)
    prod = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    assert Mat2(*(Fraction(x, den * den2) for x in prod)) == m * n


@_KERNEL
@given(_NONZERO_MATS, _NONZERO_MATS, _NONZERO_SCALARS, st.booleans())
def test_projective_key_equality_is_normal_form_equality(m, n, s, scaled):
    if scaled:
        n = m.scale(s)
    same_key = projective_key(m) == projective_key(n)
    assert same_key == (projective_normalize(m) == projective_normalize(n))


@_KERNEL
@given(_NONZERO_MATS)
def test_projective_key_is_primitive_with_positive_lead(m):
    key = projective_key(m)
    assert all(isinstance(x, int) for x in key)
    assert math.gcd(*key) == 1
    assert next(x for x in key if x) > 0


@_KERNEL
@given(_NONZERO_MATS, _NONZERO_SCALARS)
def test_projective_key_scale_invariant(m, s):
    assert projective_key(m.scale(s)) == projective_key(m)


@_KERNEL
@given(_NONZERO_MATS, _NONZERO_MATS)
def test_key_mul_agrees_with_matrix_product(m, n):
    product = m * n
    if not any(product.entries()):
        with pytest.raises(ValueError):
            key_mul(projective_key(m), projective_key(n))
        return
    assert key_mul(projective_key(m), projective_key(n)) == projective_key(product)


def test_projective_key_frozen():
    assert projective_key(Mat2(0, Fraction(3, 2), 5, 7)) == (0, 3, 10, 14)
    assert projective_key(Mat2(0, Fraction(-3, 2), 5, 7)) == (0, 3, -10, -14)
    assert projective_key(Mat2.identity().scale(Fraction(-7, 3))) == (1, 0, 0, 1)


def test_projective_key_rejects_zero_matrix():
    with pytest.raises(ValueError):
        projective_key(Mat2(0, 0, 0, 0))


# ---------------------------------------------------------------- real place

def test_classify_real_frozen():
    assert classify_real(Mat2.identity()).kind == "identity"
    assert classify_real(Mat2.identity().scale(-1)).kind == "identity"
    assert classify_real(Mat2(1, 5, 0, 1)).kind == "parabolic"
    assert classify_real(Mat2(-1, 0, 3, -1)).kind == "parabolic"
    assert classify_real(Mat2(3, 0, 0, Fraction(1, 3))).kind == "loxodromic"
    c = classify_real(Mat2(0, 1, -1, Fraction(1, 2)))
    assert c.kind == "elliptic-infinite-order" and c.order is None


def test_classify_real_requires_det_one():
    with pytest.raises(ValueError):
        classify_real(Mat2(2, 0, 0, 1))


def test_classify_real_conjugation_invariant():
    rng = random.Random(13)
    samples = [
        Mat2(0, 1, -1, 0),
        Mat2(1, -1, 1, 0),
        Mat2(1, 1, 0, 1),
        Mat2(2, 1, 1, 1),
        Mat2(0, 2, Fraction(-1, 2), Fraction(1, 2)),
    ]
    for m in samples:
        base = classify_real(m)
        for _ in range(20):
            c = rand_sl2(rng)
            conj = classify_real(c * m * c.inverse())
            assert (conj.kind, conj.order) == (base.kind, base.order)


# ---------------------------------------------------------------- finite places

def test_classify_padic_frozen():
    p2 = lambda m: classify_padic(m, 2)
    assert p2(Mat2.identity()).kind == "identity"
    assert p2(Mat2(3, 0, 0, 3)).kind == "identity"

    c = p2(Mat2(2, 0, 0, Fraction(1, 2)))
    assert c.kind == "loxodromic" and c.translation_length == 2

    c = p2(Mat2(1, 0, 0, 2))
    assert c.kind == "loxodromic" and c.translation_length == 1

    assert p2(Mat2(1, 0, 1, 1)).kind == "parabolic"
    assert p2(Mat2(1, Fraction(1, 2), 0, 1)).kind == "parabolic"

    c = p2(Mat2(0, 1, -1, 0))  # trace 0: projective order 2
    assert c.kind == "elliptic-finite-order" and c.order == 2

    c = p2(Mat2(1, 1, -1, 1))  # tr^2/det = 2
    assert c.kind == "elliptic-finite-order" and c.order == 4

    c = p2(Mat2(1, 2, -1, 1))  # tr^2/det = 4/3, a 2-adic unit, not in the table
    assert c.kind == "elliptic-infinite-order"

    c = classify_padic(Mat2(1, 2, -1, 1), 3)  # v_3(4/3) = -1
    assert c.kind == "loxodromic" and c.translation_length == 1

    c = p2(Mat2(0, 1, 2, 0))  # trace 0, det -2 of odd valuation
    assert c.kind == "elliptic-finite-order" and c.order == 2
    assert c.note is not None


def test_classify_padic_scale_invariant():
    rng = random.Random(97)
    samples = [
        Mat2(2, 0, 0, Fraction(1, 2)),
        Mat2(1, 0, 1, 1),
        Mat2(0, 1, -1, 0),
        Mat2(1, 2, -1, 1),
        Mat2(1, Fraction(1, 4), 0, 1),
    ]
    for m in samples:
        for p in (2, 3, 5):
            base = classify_padic(m, p)
            for _ in range(10):
                s = rand_frac(rng, nonzero=True)
                c = classify_padic(m.scale(s), p)
                assert (c.kind, c.order, c.translation_length) == (
                    base.kind,
                    base.order,
                    base.translation_length,
                )


def _typed_matrix(rng, p):
    """A seeded matrix of nonzero det: a scalar, or the companion matrix
    [[0, -det], [1, t]] with r = t^2/det in {0, 1, 2, 3, 4} or arbitrary,
    conjugated by a random C in GL(2, Q) and scaled. det carries a random
    power of p, so v_p(det) is odd about half the time."""
    s = rand_frac(rng, nonzero=True) * Fraction(p) ** rng.randint(-3, 3)
    r = rng.choice(("scalar", "any", 0, 1, 2, 3, 4))
    if r == "scalar":
        return Mat2(s, 0, 0, s)
    if r == "any":
        t, det = rand_frac(rng), s * rand_frac(rng, nonzero=True)
    else:
        t, det = (r * s, r * s * s) if r else (0, s)
    while (c := Mat2(*(rand_frac(rng, bound=6) for _ in range(4)))).det() == 0:
        pass
    return (c * Mat2(0, -det, 1, t) * c.inverse()).scale(rand_frac(rng, nonzero=True))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_element_type_matches_the_fraction_oracle(p):
    rng = random.Random(7000 + p)
    kinds, notes = set(), set()
    for _ in range(400):
        m = _typed_matrix(rng, p)
        want = classify_padic_oracle(m, p)
        assert classify_padic(m, p) == want, m
        assert translation_length(m, p) == translation_length_oracle(m, p), m
        kinds.add(want.kind)
        notes.add(want.note)
    assert kinds == {"identity", "elliptic-finite-order", "elliptic-infinite-order",
                     "parabolic", "loxodromic"}
    assert None in notes and len(notes) == 2  # odd v_p(det) is reached
    # the integer rule never sees det = 0, where v_p would not end
    for m in (Mat2(1, 2, 2, 4), Mat2(0, 1, 0, 0), Mat2(0, 0, 0, 0), Mat2(p, 1, 0, 0)):
        with pytest.raises(ValueError, match="singular matrix"):
            classify_padic(m, p)
        with pytest.raises(ValueError, match="singular matrix"):
            translation_length(m, p)


def test_classify_padic_parabolic_iff_r_is_four():
    # unipotent conjugates all come out parabolic
    rng = random.Random(43)
    u = Mat2(1, 1, 0, 1)
    for _ in range(30):
        c = rand_sl2(rng)
        m = c * u * c.inverse()
        for p in (2, 3):
            assert classify_padic(m, p).kind == "parabolic"
