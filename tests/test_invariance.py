"""A verdict is about the group, not its generators.

Every group of the word-scan SETS, Delta_q for q of small height and
long-reid is compared with other presentations of itself. Conjugation by a
seeded [[x, 1], [0, 1]], a swap of two generators and the inversion of one
keep the real verdict, the verdict of every prime that is not compact, the
density and whether the Greenberg-Shalom note is printed. A Nielsen move or
a redundant generator never turns discrete into indiscrete or back; the
two-parabolic rule reads the given generators only, so there a discrete
real place may become unknown. `support` is not compared: it lists the
primes of the generators' denominators, which conjugation moves.
"""

import random
from fractions import Fraction

import pytest

from commlab.diagnostics import irreducibility_report
from commlab.exact_core import Mat2
from commlab.lu_lab import lu_generators
from commlab.words import Alphabet
from test_word_scans import SETS

GROUPS = SETS + [lu_generators(Fraction(q)) for q in ("1/2", "1", "2", "3", "9/2", "5", "7/2")]


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
    mats = list(ab.matrices)
    yield "conjugate", _conjugate(ab, seed)
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
