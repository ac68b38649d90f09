"""A verdict is about the group, not its generators.

Every group of the word-scan SETS, Delta_q for q of small height,
long-reid, seeded subgroups of SL(2, Z) and a conjugate of one (F) is
compared with other presentations of itself. Conjugation by a seeded
[[x, 1], [0, 1]], a swap of two generators and the inversion of one keep
the real verdict, the verdict of every prime that is not compact, the
density and whether the Greenberg-Shalom note is printed. A Nielsen move or
a redundant generator never turns discrete into indiscrete or back; the
two-parabolic rule reads the given generators only, so there a discrete
real place may become unknown. `support` is not compared: it lists the
primes of the generators' denominators, which conjugation moves.

The bounded-orbit search is compared the same way, with conjugation left
out, as it moves the base vertex: the generators change, the orbit does not.
"""

import random
from fractions import Fraction

import pytest

from commlab.bt_tree import orbit_bounded
from commlab.diagnostics import irreducibility_report
from commlab.exact_core import Mat2
from commlab.lu_lab import lu_generators
from commlab.words import Alphabet
from test_bt_tree import _conjugated_sl2z
from test_word_scans import SETS

_S, _T = Mat2(0, -1, 1, 0), Mat2(1, 1, 0, 1)
_SL2Z_LETTERS = (_S, _T, _T.inverse(), _T * _T, _T.inverse() * _T.inverse())


def _sl2z_subgroup(seed):
    """1 to 3 generators, each a seeded word in S and T^+-1, T^+-2 that is
    not +-I."""
    rng = random.Random(f"sl2z {seed}")
    mats = []
    while len(mats) < 1 + seed % 3:
        m = Mat2.identity()
        for _ in range(rng.randint(1, 6)):
            m = m * rng.choice(_SL2Z_LETTERS)
        if not m.is_scalar():
            mats.append(m)
    return Alphabet("abc"[:len(mats)], mats)


# F, a conjugate of a subgroup of SL(2, Z): compact at 3, and discrete at the
# real place by Knapp (q = 1, n = 3)
FILE_F = Alphabet("ab", (Mat2(1, Fraction(1, 6561), 0, 1), Mat2(10, Fraction(-1, 81), 6561, -8)))
SL2Z_GROUPS = [_sl2z_subgroup(seed) for seed in range(24)] + [FILE_F]

GROUPS = (SETS + [lu_generators(Fraction(q)) for q in ("1/2", "1", "2", "3", "9/2", "5", "7/2")]
          + SL2Z_GROUPS)


def _invariants(alphabet):
    rep = irreducibility_report(alphabet)
    real, *primes = rep.places
    return {
        "real": real.verdict,
        "primes": {st.place: st.verdict for st in primes if st.verdict != "compact"},
        "density": (rep.density.verdict, rep.density.dimension),
        "note": bool(rep.conditional_notes),
    }


def _conjugate(ab, seed):
    rng = random.Random(f"conjugator {seed}")
    c = Mat2(Fraction(rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 3))), 1, 0, 1)
    c_inv = c.inverse()
    return Alphabet(ab.names, [c * m * c_inv for m in ab.matrices])


def _same_group(ab, seed):
    """The presentations that keep every invariant."""
    yield "conjugate", _conjugate(ab, seed)
    yield from _relabelled(ab)


def _relabelled(ab):
    """The inversion of a generator and a swap of two: the same generating set."""
    mats = list(ab.matrices)
    yield "invert", Alphabet(ab.names, [mats[0].inverse()] + mats[1:])
    if len(ab) >= 2:
        yield "swap", Alphabet(ab.names, [mats[1], mats[0]] + mats[2:])


def _moved(ab):
    """A Nielsen move and a redundant generator: the same group again."""
    mats = list(ab.matrices)
    extra = mats[0] * (mats[1] if len(ab) >= 2 else mats[0])
    yield "redundant", Alphabet(ab.names + ("z",), mats + [extra])
    if len(ab) >= 2:
        yield "nielsen", Alphabet(ab.names, [extra] + mats[1:])


@pytest.mark.parametrize("seed", range(len(GROUPS)))
def test_conjugation_swap_and_inversion_keep_every_verdict(seed):
    ab = GROUPS[seed]
    expected = _invariants(ab)
    for name, other in _same_group(ab, seed):
        assert _invariants(other) == expected, name


@pytest.mark.parametrize("seed", range(len(GROUPS)))
def test_a_nielsen_move_never_flips_a_decided_verdict(seed):
    ab = GROUPS[seed]
    expected = _invariants(ab)
    for name, other in _moved(ab):
        got = _invariants(other)
        assert {expected["real"], got["real"]} != {"discrete", "indiscrete"}, name
        # compactness at p is Serre's lemma, exact for any generators
        assert got["primes"].keys() == expected["primes"].keys(), name
        assert got["density"] == expected["density"], name


def test_the_suite_reaches_every_real_verdict_and_both_notes():
    seen = [_invariants(ab) for ab in GROUPS]
    assert {inv["real"] for inv in seen} == {"discrete", "indiscrete", "unknown"}
    assert {inv["note"] for inv in seen} == {True, False}
    assert {v for inv in seen for v in inv["primes"].values()} == {"indiscrete", "unknown"}


def test_file_f_is_discrete_by_knapp_and_compact_at_3():
    real, three = irreducibility_report(FILE_F).places
    assert (real.verdict, real.rule, real.q, real.n) == ("discrete", "knapp", 1, 3)
    assert (three.place, three.verdict) == ("3", "compact")


def test_every_prime_of_a_conjugate_of_an_sl2z_subgroup_is_compact():
    # under [[x, 1], [0, 1]] and under diag(p^k, 1); a conjugate that stays
    # integral has no prime, so the primes checked are counted
    checked = 0
    for seed, ab in enumerate(SL2Z_GROUPS):
        rng = random.Random(f"diagonal {seed}")
        p, k = rng.choice((2, 3, 5, 7)), rng.randint(1, 3)
        d = Mat2(p**k, 0, 0, 1)
        d_inv = d.inverse()
        for conj in (_conjugate(ab, seed), Alphabet(ab.names, [d * m * d_inv for m in ab.matrices])):
            real, *primes = irreducibility_report(conj).places
            assert [st.verdict for st in primes] == ["compact"] * len(primes), seed
            checked += len(primes)
    assert checked >= len(SL2Z_GROUPS)


def _orbit_invariants(alphabet, p, radius):
    res = orbit_bounded(alphabet, p, radius)
    orbit = None if res.orbit is None else frozenset(res.orbit)
    return res.status, orbit, res.orbit and len(res.orbit), res.radius_seen


# (alphabet, p, radii): the SETS at 2 and 3, and the conjugated SL(2, Z)
# family, whose orbit is a sphere of radius k about a vertex k from the base
_ORBIT_CASES = [
    *(pytest.param(ab, p, (2, 6), id=f"set-{i}-{p}") for i, ab in enumerate(SETS) for p in (2, 3)),
    *(pytest.param(_conjugated_sl2z(p, k, seed), p, (k, 2 * k), id=f"sl2z-{p}-{k}-{seed}")
      for p, k in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2)) for seed in range(3)),
]


@pytest.mark.parametrize("ab,p,radii", _ORBIT_CASES)
def test_the_orbit_search_is_a_group_invariant(ab, p, radii):
    # status, vertex set, size and radius_seen; the rows' order may differ
    for radius in radii:
        expected = _orbit_invariants(ab, p, radius)
        for name, other in (*_relabelled(ab), *_moved(ab)):
            assert _orbit_invariants(other, p, radius) == expected, name


def test_the_orbit_cases_reach_every_status():
    statuses = {orbit_bounded(ab, p, radius).status
                for param in _ORBIT_CASES for ab, p, radii in [param.values] for radius in radii}
    assert statuses == {"bounded", "unbounded", "inconclusive"}
