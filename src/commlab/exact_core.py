"""Exact 2x2 linear algebra over Q, p-adic valuations, element classification.

Everything in this module is exact: scalars are fractions.Fraction, valuations
are plain ints (or INFINITY for v_p(0)), projective keys are primitive integer
quadruples. No floats anywhere.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

_set = object.__setattr__


class Record:
    """Immutable record. The fields are the class annotations, in order; a
    class attribute is its field's default. Records of one type with equal
    fields are equal and hash alike, unless the class defines _key, the
    function of a record that equality and hash compare; repr is
    Name(field=value, ...). Mat2, Word and TreeVertex, built on hot paths,
    write their own __init__."""

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        if "_key" not in cls.__dict__:
            cls._key = operator.attrgetter(*cls.__match_args__)

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.__match_args__
        given = dict(zip(names, args))
        extra = args[len(names):] or [k for k in kwargs if k in given or k not in names]
        if extra:
            raise TypeError(f"{cls.__name__} got an extra or repeated field: {extra[0]!r}")
        given.update(kwargs)
        for name in names:
            if name not in given and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
            _set(self, name, given[name] if name in given else cls.__dict__[name])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**{**{name: getattr(self, name) for name in self.__match_args__}, **changes})


class _Infinity:
    """The value of v_p(0). Compares greater than every int and equals only itself."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("commlab.INFINITY")

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with these bases is exact below this bound (Sorenson-Webster)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n):
    """Exact primality: trial division by _SMALL_PRIMES, then Miller-Rabin
    with each of them as a base. Raises ValueError from PRIME_TEST_BOUND on."""
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if any(n % q == 0 for q in _SMALL_PRIMES):
        return False
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base a: a^d = 1, or a^(d 2^j) = -1 with j < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << j, n) == n - 1 for j in range(s))
               for a in _SMALL_PRIMES)


def _rho_divisor(n):
    """A proper divisor of the composite n: Pollard's rho on x^2 + c with
    Brent's cycle search, one gcd per 128 steps, c = 1, 2, ... in turn."""
    for c in range(1, n):
        y, r, g = 2, 1, 1
        while g == 1:
            x, acc = y, 1
            for _ in range(r):  # Brent: skip r steps, then compare the next r with x
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                if g != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def prime_factors(n):
    """Distinct prime factors of a nonzero integer, ascending: trial division below 1000,
    then is_prime (ValueError from PRIME_TEST_BOUND on) or _rho_divisor on each cofactor."""
    n = abs(int(n))
    if n == 0:
        raise ValueError("0 has no factorization")
    out, f = set(), 2
    while f * f <= n and f < 1000:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1 if f == 2 else 2
    if n > 1 and not is_prime(n):
        d = _rho_divisor(n)
        out.update(prime_factors(d), prime_factors(n // d))
    elif n > 1:
        out.add(n)
    return sorted(out)


def _require_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")


def _split(x, p):
    """(v_p(x), x / p^v_p(x)) for a nonzero integer x."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return v, x


def vp(x, p):
    """p-adic valuation of a rational. vp(0, p) is INFINITY."""
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _split(x.numerator, p)[0] - _split(x.denominator, p)[0]


class Mat2(Record):
    """Immutable 2x2 matrix with Fraction entries, row-major a b / c d."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __init__(self, a, b, c, d):
        _set(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        _set(self, "b", b if isinstance(b, Fraction) else Fraction(b))
        _set(self, "c", c if isinstance(c, Fraction) else Fraction(c))
        _set(self, "d", d if isinstance(d, Fraction) else Fraction(d))

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def is_scalar(self):
        return self.b == 0 and self.c == 0 and self.a == self.d and self.a != 0

    def scale(self, s):
        s = Fraction(s)
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self):
        det = self.det()
        if det == 0:
            raise ZeroDivisionError("singular matrix has no inverse")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self if k >= 0 else self.inverse()
        out = None  # the identity, left implicit so m ** 1 multiplies nothing
        k = abs(k)
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Mat2.identity() if out is None else out

    def __repr__(self):
        return f"Mat2[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def projective_normalize(m):
    """Scale so the first nonzero entry in row-major order becomes 1.

    Two invertible matrices have the same normal form exactly when they agree
    in PGL(2, Q), so the entry quadruple is a collision key for projective
    images.
    """
    for e in m.entries():
        if e != 0:
            return m.scale(1 / e)
    raise ValueError("zero matrix has no projective class")


def _primitive(a, b, c, d):
    g = math.gcd(a, b, c, d)
    if g == 0:
        raise ValueError("zero matrix has no projective class")
    if (a or b or c or d) < 0:
        g = -g
    return (a // g, b // g, c // g, d // g)


def integer_form(m):
    """((a, b, c, d), den) with m = (a, b, c, d) / den, den the lcm of the
    entry denominators. The quadruple is not divided by its gcd, so products
    of integer forms are integer forms of products, denominators multiplying.
    """
    den = math.lcm(*(f.denominator for f in m.entries()))
    return tuple(f.numerator * (den // f.denominator) for f in m.entries()), den


def projective_key(m):
    """Integer collision key for the class of m in PGL(2, Q).

    Clear denominators (integer_form), divide by the gcd of the four entries,
    and make the first nonzero entry in row-major order positive. The result
    is a primitive integer quadruple; two matrices have equal keys exactly
    when their projective_normalize forms are equal.
    """
    return _primitive(*integer_form(m)[0])


class ElementClass(Record):
    """Dynamical type of a matrix acting on the relevant symmetric space.

    kind is one of "identity", "elliptic-finite-order",
    "elliptic-infinite-order", "parabolic", "loxodromic". order carries the
    torsion order where finite, translation_length the p-adic translation
    length for loxodromics, note any caveat.
    """

    kind: str
    order: int = None
    translation_length: int = None
    note: str = None


# Rational traces t with |t| < 2 give torsion in SL(2, R) only at t in
# {0, 1, -1}: by Niven, 2cos of a rational angle is rational only at
# 0, +-1, +-2. The value is the order in SL(2, R), smallest k with m^k = I.
_SL2_TORSION_ORDER = {Fraction(0): 4, Fraction(1): 6, Fraction(-1): 3}


def classify_real(m):
    """Classify m in SL(2, R) by its trace. Requires det(m) = 1.

    Orders are orders in SL(2, R): trace 0 gives m^2 = -I so order 4.
    """
    if m.det() != 1:
        raise ValueError("classify_real needs det 1")
    if m.is_scalar():
        return ElementClass("identity")
    t = m.trace()
    if t * t < 4:
        order = _SL2_TORSION_ORDER.get(t)
        if order is not None:
            return ElementClass("elliptic-finite-order", order=order)
        return ElementClass("elliptic-infinite-order")
    if t * t == 4:
        return ElementClass("parabolic")
    return ElementClass("loxodromic")


def form_order(a, b, c, d):
    """The order in PGL(2) of the nonsingular (a, b, c, d)/den, any den, or
    None when infinite. Scalars have order 1. For the rest, r = tr^2/det =
    (a + d)^2/(ad - bc) = 2 + 2cos(2 pi/n) is rational only for n in
    {1, 2, 3, 4, 6}: r = 4 is the parabolic line, and r = 0, 1, 2, 3 give
    the orders 2, 3, 4, 6."""
    if b == c == 0 and a == d:
        return 1
    t2, det = (a + d) ** 2, a * d - b * c
    for r, order in ((0, 2), (1, 3), (2, 4), (3, 6)):
        if t2 == r * det:
            return order
    return None


def form_translation_length(a, b, c, d, p):
    """The translation length at the prime p (unchecked) of (a, b, c, d)/den, any den:
    -v_p(tr^2/det) = v_p(ad - bc) - 2 v_p(a + d) when positive, else 0.
    Raises ValueError for a singular matrix, whose det has no valuation."""
    det = a * d - b * c
    if not det:
        raise ValueError("singular matrix")
    return max(0, _split(det, p)[0] - 2 * _split(a + d, p)[0]) if a + d else 0


def classify_padic(m, p):
    """Classify the action of m on the Bruhat-Tits tree of PGL(2, Q_p).

    det(m) may be any nonzero rational; both rules (form_translation_length,
    form_order) read the integer form, so every test is invariant under
    scaling. Orders are orders in PGL(2, Q_p). Bounded elements with odd
    v_p(det) fix no vertex (only an edge midpoint); the note records that.
    """
    _require_prime(p)
    (a, b, c, d), _ = integer_form(m)
    length = form_translation_length(a, b, c, d, p)
    if length:
        return ElementClass("loxodromic", translation_length=length)
    order = form_order(a, b, c, d)
    if order == 1:
        return ElementClass("identity")
    det = a * d - b * c
    note = "bounded (vertex or edge midpoint)" if _split(det, p)[0] % 2 else None
    if (a + d) ** 2 == 4 * det:
        return ElementClass("parabolic", note=note)
    if order is not None:
        return ElementClass("elliptic-finite-order", order=order, note=note)
    return ElementClass("elliptic-infinite-order", note=note)
