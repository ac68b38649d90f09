"""The Bruhat-Tits tree of PGL(2, Q_p): vertices, metric, group actions.

A vertex is a homothety class of rank-2 Z_p-lattices in Q_p^2. Every class
has a unique representative lattice spanned by the columns of

    [[p^n, u], [0, 1]]    with n an integer and u a rational determined
                          modulo p^n Z_p,

so a vertex is charted by the pair (n, u) once u is forced into a canonical
residue: u = 0 when v_p(u) >= n, otherwise u = c * p^m with m = v_p(u)
(possibly negative), 0 < c < p^(n-m) and gcd(c, p) = 1. The pairs (n, u) are
in bijection with vertices only together with that residue rule. The base
vertex v_0 = (0, 0) is the class of Z_p^2.

The arithmetic runs on the integer chart (n, m, c) of u = c * p^m, with
(n, 0, 0) for u = 0. A matrix acts through its integer form (its
denominator is a homothety), valuations are taken of integers, and the
residue c is a modular inverse, so act, vertex_of, distance and the orbit
search do no Fraction arithmetic. A TreeVertex carries its chart (v.chart);
orbit_charts returns bare charts, and a TreeVertex, with its Fraction u, is
built only where a caller asks for one.
"""

from __future__ import annotations

import operator
from collections import deque
from fractions import Fraction

from .exact_core import Mat2, Record, form_translation_length, integer_form, vp, _require_prime, _set, _split
from .words import Word, iter_forms


class TreeVertex(Record):
    """The vertex charted (n, u) on the tree at the prime p. The constructor
    checks p and reduces u to its canonical residue once, keeping the integer
    chart (n, m, c) as v.chart (not a field). Equality and hash compare
    (p, chart), which names the vertex, so equal vertices are equal records."""

    p: int
    n: int
    u: Fraction

    _key = operator.attrgetter("p", "chart")

    def __init__(self, p, n, u):
        _require_prime(p)
        u = u if isinstance(u, Fraction) else Fraction(u)
        _vertex(p, _chart_of(n, u.numerator, *_split(u.denominator, p), p), self)

    def __repr__(self):
        return f"TreeVertex({self.p}^{self.n}:{self.u})"


def _vertex(p, chart, v=None):
    """The TreeVertex (v, if given) of a chart that _chart_of made
    canonical, built without checking p or reducing u again."""
    v = object.__new__(TreeVertex) if v is None else v
    n, m, c = chart
    _set(v, "p", p)
    _set(v, "n", n)
    _set(v, "u", Fraction(c * p**m) if m >= 0 else Fraction(c, p**-m))
    _set(v, "chart", chart)
    return v


def base_vertex(p):
    return TreeVertex(p, 0, 0)


def _chart_of(n, b, vd, ud, p):
    """The chart (n, m, c) of the vertex [[p^n, u], [0, 1]] with
    u = b / (ud * p^vd), for integers b and ud, ud prime to p: c * p^m is the
    canonical residue of u modulo p^n, and (m, c) = (0, 0) when it is 0."""
    if b:
        m, ub = _split(b, p)
        m -= vd
        if m < n:
            mod = p ** (n - m)
            return n, m, ub * pow(ud, -1, mod) % mod
    return n, 0, 0


def _letter(g, p):
    """The integer form (a, b, c, d) of g with v_p(det) and the split of c:
    what _act needs of g, computed once per matrix."""
    (a, b, c, d), _ = integer_form(g)
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix spans no lattice")
    return (a, b, c, d, _split(det, p)[0]) + (_split(c, p) if c else (None, 0))


def _act(g, v, p):
    """Chart of g applied to the vertex charted by v = (n, m, c).

    The columns of g * [[p^n, u], [0, 1]] span the image lattice. Its first
    column is p^n (a, c_g), of known valuation; the second, (a u + b, c_g u + d),
    is scaled by p^e with e = max(0, -m), a homothety, to clear the denominator.
    Pivot on the bottom entry of least valuation (the first column only when
    strictly less); with D its unscaled valuation the image is
    n' = v_p(det g) + n - 2 D and u' = top / bottom of the pivot column.
    """
    a, b, gc, gd, vdet, vc, uc = g
    n, m, c = v
    if c:
        e = -m if m < 0 else 0
        s = c * p ** (m + e)
        t = p ** e
        top, bottom = a * s + b * t, gc * s + gd * t
    else:
        e, top, bottom = 0, b, gd
    if bottom:
        vy, uy = _split(bottom, p)
        if vc is None or vy - e <= vc + n:
            return _chart_of(vdet + n - 2 * (vy - e), top, vy, uy, p)
    return _chart_of(vdet - n - 2 * vc, a, vc, uc, p)


def _distance(v, w, p):
    """Tree distance between charted vertices: |dn - 2 min(dn, v_p(u_w - u_v) - n_v, 0)|
    with dn = n_w - n_v, from the transition matrix [[p^dn, (u_w - u_v)/p^n_v], [0, 1]]."""
    n1, m1, c1 = v
    n2, m2, c2 = w
    dn = n2 - n1
    if c1 and c2:
        k = min(m1, m2)
        diff = c2 * p ** (m2 - k) - c1 * p ** (m1 - k)
        least = min(dn, _split(diff, p)[0] + k - n1, 0) if diff else min(dn, 0)
    elif c1 or c2:
        least = min(dn, (m2 if c2 else m1) - n1, 0)
    else:
        least = min(dn, 0)
    return abs(dn - 2 * least)


def canonical_residue(u, n, p):
    """The canonical representative of u + p^n Z_(p)."""
    return TreeVertex(p, n, u).u


def vertex_of(m, p):
    """The vertex spanned by the columns of an invertible matrix.

    Column operations over Z_p preserve the lattice: pivot on the bottom-row
    entry of least valuation, rescale by it (a homothety), then clear the
    other column. What remains is [[det/d^2, b/d], [0, 1]] up to units. This
    is the image of the base vertex under m.
    """
    _require_prime(p)
    return _vertex(p, _act(_letter(m, p), (0, 0, 0), p))


def act(g, v):
    """Image vertex of v under g in GL(2, Q)."""
    return _vertex(v.p, _act(_letter(g, v.p), v.chart, v.p))


def distance(v, w):
    """Tree distance: the gap between the elementary divisor exponents of the
    transition matrix between representative lattices."""
    if v.p != w.p:
        raise ValueError("vertices live on different trees")
    return _distance(v.chart, w.chart, v.p)


def neighbors(v):
    """The p + 1 adjacent vertices: [[p^n, u], [0, 1]] times [[1, 0], [0, p]]
    spans (n - 1, u), and times [[p, j], [0, 1]] spans (n + 1, u + j p^n), j < p.

    On the chart (n, m, c) of u = c p^m: u mod p^(n-1) is c mod p^(n-1-m),
    or 0 when m >= n - 1; u + j p^n is p^m (c + j p^(n-m)) when c != 0, and
    j p^n, charted (n + 1, n, j), when u = 0."""
    p = v.p
    n, m, c = v.chart
    if c and m < n - 1:
        charts = [(n - 1, m, c % p ** (n - 1 - m))]
    else:
        charts = [(n - 1, 0, 0)]
    if c:
        step = p ** (n - m)
        charts += [(n + 1, m, c + j * step) for j in range(p)]
    else:
        charts += [(n + 1, 0, 0)] + [(n + 1, n, j) for j in range(1, p)]
    return [_vertex(p, chart) for chart in charts]


def ball(center, radius):
    """Vertices within the radius, as a dict vertex -> distance, BFS order."""
    out = {center: 0}
    frontier = deque([center])
    while frontier:
        v = frontier.popleft()
        if out[v] == radius:
            continue
        for w in neighbors(v):
            if w not in out:
                out[w] = out[v] + 1
                frontier.append(w)
    return out


def translation_length(g, p):
    """min over vertices of d(v, g v), from the trace: max(0, -v_p(tr^2/det)),
    by exact_core.form_translation_length on the integer form of g.

    Bounded elements with odd v_p(det) invert an edge and fix no vertex; for
    them the vertex minimum is 1 while the translation length is 0.
    """
    _require_prime(p)
    return form_translation_length(*integer_form(g)[0], p)


def busemann(g, p):
    """Busemann cocycle at the end fixed by the upper-triangular subgroup.

    For g = [[a, b], [0, d]] the value is v_p(a) - v_p(d), the signed rate at
    which g shifts horospheres centered on that end. Additive on products.
    """
    _require_prime(p)
    if g.c != 0:
        raise ValueError("matrix does not fix the charted end")
    if g.a == 0 or g.d == 0:
        raise ValueError("singular matrix")
    return vp(g.a, p) - vp(g.d, p)


class OrbitResult(Record):
    status: str        # "bounded" | "unbounded" | "inconclusive"
    orbit: tuple       # vertices (or charts) in breadth-first order over the generators, None unless bounded
    radius_seen: int
    witness: Word      # loxodromic word certifying escape, None otherwise
    max_radius: int


def first_loxodromic(alphabet, p):
    """The first word in canonical order, over all lengths, that is loxodromic
    at p; None means that no word is, so the group is bounded at p.

    Serre's lemma (Trees, I.6.5, on the barycentric subdivision, which absorbs
    edge inversions): the group fixes a point iff every generator and every
    product of two does, so some word is loxodromic iff one of length <= 2 is,
    and only the class representatives of those (iter_forms) are walked."""
    _require_prime(p)
    for codes, a, b, c, d, _ in iter_forms(alphabet, 2):
        if form_translation_length(a, b, c, d, p):
            return Word(codes)
    return None


def orbit_charts(alphabet, p, max_radius, base=None):
    """Decide whether the orbit of the base vertex stays within max_radius;
    a bounded orbit comes back as its (n, m, c) charts in discovery order.

    first_loxodromic decides boundedness: its word certifies every orbit
    unbounded; without one the group is bounded, and {base} is closed under
    the generators breadth-first: the orbit if the closure ends inside the
    radius, inconclusive if it leaves.

    The inverse letters are not needed. Each generator acts on the tree as
    an injective map, so a finite set of vertices that every generator maps
    into itself is mapped onto itself, and is closed under the inverses
    too: if the closure is finite, it is the orbit. If it is infinite, so
    is the orbit, and the search leaves max_radius either way. That is k
    acts per orbit vertex for k generators, in breadth-first discovery
    order over the generators in alphabet order.
    """
    if base is None:
        base = base_vertex(p)
    if base.p != p:
        raise ValueError("base vertex lives on a different tree")
    witness = first_loxodromic(alphabet, p)
    if witness is not None:
        return OrbitResult("unbounded", None, max_radius, witness, max_radius)
    gens = [_letter(g, p) for g in alphabet.matrices]
    start = base.chart
    seen = {start}
    order = [start]
    radius_seen = 0
    for v in order:  # breadth-first: order grows behind the loop
        for g in gens:
            w = _act(g, v, p)
            if w in seen:
                continue
            d = _distance(start, w, p)
            if d > max_radius:
                return OrbitResult("inconclusive", None, max_radius, None, max_radius)
            radius_seen = max(radius_seen, d)
            seen.add(w)
            order.append(w)
    del seen  # the largest object goes before the orbit tuple is built
    return OrbitResult("bounded", tuple(order), radius_seen, None, max_radius)


def orbit_bounded(alphabet, p, max_radius, base=None):
    """orbit_charts with the orbit as TreeVertex rows."""
    res = orbit_charts(alphabet, p, max_radius, base)
    return res if res.orbit is None else res.replace(orbit=tuple(_vertex(p, w) for w in res.orbit))


class PigeonholeResult(Record):
    n1: int
    n2: int
    k: int             # n1 - n2
    z: Mat2            # x y^k x^-1 y^-k, fixes v
    radius: int        # common distance of the orbit points from v
    steps: int         # orbit points computed up to the collision
    ball_bound: int    # _pigeonhole_bound(p, radius), an a priori bound on steps


class PigeonholeBudgetError(RuntimeError):
    def __init__(self, n_max, ball_bound):
        super().__init__(
            f"no collision within n_max = {n_max}; the pigeonhole bound is {ball_bound}"
        )
        self.n_max = n_max
        self.ball_bound = ball_bound


def _pigeonhole_bound(p, R):
    """One more than the number of vertices within R of a vertex whose
    distance from it has the parity of R. In the (p + 1)-regular tree there
    is 1 vertex at d = 0 and (p + 1) p^(d - 1) at each d >= 1."""
    return 1 + sum((p + 1) * p ** (d - 1) if d else 1 for d in range(R % 2, R + 1, 2))


def commutator_pigeonhole(x, y, v, n_max=None):
    """Produce z = [x, y^k] fixing v by pigeonholing the y-orbit of x^-1 v.

    Requires y v = v. The points w_j = y^j x^-1 v all lie at the fixed
    distance R = d(v, x^-1 v) from v because y is an isometry fixing v, and
    vertices at distance R from v are finitely many, so two indices collide
    and z = x y^(n1-n2) x^-1 y^(n2-n1) fixes v. The reported bound,
    _pigeonhole_bound(p, R), counts by formula the vertices within R of v
    at a distance of R's parity, plus one; the loop never needs more steps,
    and a smaller n_max raises PigeonholeBudgetError.
    """
    if act(y, v) != v:
        raise ValueError("y must fix v")
    w = act(x.inverse(), v)
    R = distance(v, w)
    ball_bound = _pigeonhole_bound(v.p, R)
    limit = ball_bound if n_max is None else n_max
    seen = {w: 0}
    wj = w
    for j in range(1, limit + 1):
        wj = act(y, wj)
        if wj in seen:
            n2 = seen[wj]
            k = j - n2
            z = x * y**k * x.inverse() * y**-k
            if act(z, v) != v:
                raise AssertionError("pigeonhole element failed to fix v")
            return PigeonholeResult(j, n2, k, z, R, j + 1, ball_bound)
        seen[wj] = j
    raise PigeonholeBudgetError(limit, ball_bound)
