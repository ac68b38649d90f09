"""Command line interface. Reports go to stdout as canonical JSON; progress
chatter goes to stderr. Exit codes: 0 success, 2 parameter problems (with a
machine-readable error object), 3 inconclusive because a search budget ran
out.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import re
import sys
import time
from fractions import Fraction

import click

from .bt_tree import orbit_bounded, translation_length
from .diagnostics import (
    density_report,
    integral_trace_scan,
    irreducibility_report,
    long_reid_pair,
    place_support,
    two_gen_probe,
)
from .exact_core import Mat2, classify_padic, classify_real, is_prime
from .lu_lab import knapp, lu_generators, pingpong, relator_search
from .report import build_report, dumps_canonical, error_report, frac_str, to_json
from .words import evaluate, format_word, parse_word, reduce, Alphabet

BUILTINS = ("long-reid",)
SL2_NOTES = {  # by the scalar a relator evaluates to
    -1: "evaluates to -I: trivial in PGL2, and its square is the SL2 identity",
    1: "evaluates to I: already trivial in SL2",
}


class ParameterError(ValueError):
    """A bad option or input file; detail, when given, locates the problem."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


_EXPONENT_RE = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*$", re.IGNORECASE)


def _parse_fraction(text, label):
    """The rational that text spells. An exponent past the int-to-str digit
    limit is refused before Fraction builds its power of ten."""
    exp = _EXPONENT_RE.search(text)
    limit = sys.get_int_max_str_digits()
    try:
        if exp is None or not 0 < limit < abs(int(exp.group(1))):
            return Fraction(text)
        Fraction(text[:exp.start(1)] + "0")  # a rational but for its exponent
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{label} must be a rational like 3 or -5/2, got {text!r}")
    raise ParameterError(f"{label} has an exponent past the {limit}-digit limit, got {text!r}")


def _parse_prime(value, label="p"):
    if not is_prime(value):
        raise ParameterError(f"{label} must be a prime, got {value}")
    return value


def load_generator_file(path):
    """Read a generator file: JSON {"generators": [{"name", "matrix"}, ...]}.

    Matrix entries are rational strings (or integers). Malformed JSON is
    reported with line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParameterError(f"cannot read generator file: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParameterError(
            f"malformed JSON in generator file: {e.msg}",
            {"line": e.lineno, "column": e.colno},
        )
    if not isinstance(doc, dict) or "generators" not in doc:
        raise ParameterError('generator file needs a top-level "generators" list')
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParameterError('"generators" must be a nonempty list')
    names, matrices = [], []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "matrix" not in g:
            raise ParameterError(f'generator #{i} needs "name" and "matrix"')
        rows = g["matrix"]
        if (
            not isinstance(rows, list)
            or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)
        ):
            raise ParameterError(f'generator #{i}: "matrix" must be 2 rows of 2 entries')
        entries = [_parse_fraction(str(e), f"generator #{i}: matrix entry") for r in rows for e in r]
        names.append(str(g["name"]))
        matrices.append(Mat2(*entries))
    try:
        return Alphabet(tuple(names), tuple(matrices))
    except ValueError as e:
        raise ParameterError(f"bad generator set: {e}")


def dump_generator_file(alphabet):
    """Inverse of load_generator_file, up to canonical fraction strings."""
    return dumps_canonical(to_json(
        {"generators": [{"name": n, "matrix": m} for n, m in zip(alphabet.names, alphabet.matrices)]},
        alphabet,
    ))


SOURCE_OPTIONS = (
    click.option("--builtin", "builtin", type=click.Choice(BUILTINS), default=None,
                 help="Use a named builtin generator set."),
    click.option("--q", "q_text", type=str, default=None, help="Use the two-parabolic pair Delta_q."),
    click.option("--gens", "gens_path", type=str, default=None, help="Generator file (JSON)."),
)


def resolve_alphabet(gens_path, q_text, builtin):
    if sum(x is not None for x in (gens_path, q_text, builtin)) != 1:
        raise ParameterError("exactly one of --gens, --q, --builtin is required")
    q = None
    if gens_path is not None:
        alphabet = load_generator_file(gens_path)
    elif q_text is not None:
        q = _parse_fraction(q_text, "--q")
        alphabet = lu_generators(q)
    else:
        alphabet = long_reid_pair()
    return alphabet, {"gens": gens_path, "q": q, "builtin": builtin}


def _witness(word, alphabet, classify):
    m = evaluate(word, alphabet)
    return {"word": word, "matrix": m, "classification": classify(m)}


def command(group, name, *options, source=True):
    """Register the decorated function as `group name`, with its options.

    With source=True the SOURCE_OPTIONS come first and resolve into the
    function's `alphabet` argument, echoed into params. The function returns
    (params, results, witnesses[, exit code]) in raw values for to_json. Any
    ValueError (a bad option, a library range check, the digit limit) becomes
    a parameter error with exit 2."""
    def decorate(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            started = time.monotonic()
            alphabet, src = None, {}
            try:
                if source:
                    alphabet, src = resolve_alphabet(
                        kwargs.pop("gens_path"), kwargs.pop("q_text"), kwargs.pop("builtin"))
                    kwargs["alphabet"] = alphabet
                params, results, witnesses, *code = fn(**kwargs)
                ms = max(0, int(round((time.monotonic() - started) * 1000)))
                report = to_json(build_report(f"{group.name} {name}", dict(src, **params),
                                              results, witnesses, ms), alphabet)
            except ValueError as e:
                report = error_report("parameter", str(e), getattr(e, "detail", None))
                code = [2]
            click.echo(dumps_canonical(report), nl=False)
            return code[0] if code else 0

        # click lists options in the reverse of the order they are applied
        for option in reversed((SOURCE_OPTIONS if source else ()) + options):
            run = option(run)
        return group.command(name)(run)

    return decorate


@click.group()
def cli():
    """Exact-arithmetic lab for discreteness, freeness and irreducibility
    experiments on explicit matrix groups."""


@cli.group()
def lu():
    """Two-parabolic groups Delta_q = <[[1,0],[1,1]], [[1,q],[0,1]]>."""


@command(lu, "knapp", click.option("--q", "q_text", type=str, required=True), source=False)
def lu_knapp(q_text):
    """Knapp discreteness verdict inside the window 0 < |q| < 4."""
    q = _parse_fraction(q_text, "--q")
    return {"q": q}, [knapp(q)], []


@command(lu, "pingpong", click.option("--q", "q_text", type=str, required=True), source=False)
def lu_pingpong(q_text):
    """Ping-pong freeness certificate for |q| >= 4."""
    q = _parse_fraction(q_text, "--q")
    return {"q": q}, [pingpong(q)], []


@command(lu, "relators",
         click.option("--max-len", type=int, required=True),
         click.option("--mem-cap", type=int, default=None, help="Table budget in bytes."))
def lu_relators(alphabet, max_len, mem_cap):
    """Shortest relator (word with scalar image), meet-in-the-middle."""
    if max_len < 2:
        raise ParameterError("--max-len must be >= 2")
    if mem_cap is not None and mem_cap < 1:
        raise ParameterError("--mem-cap must be >= 1")

    def progress(level, words, table):
        click.echo(f"level {level}: {words} words, table {table}", err=True)

    res = relator_search(alphabet, max_len, mem_cap=mem_cap, progress=progress)
    results = [dict(vars(res), relator_length=res.relator and len(res.relator),
                    sl2_note=SL2_NOTES.get(res.scalar))]
    witnesses = [] if res.relator is None else [
        _witness(res.relator, alphabet, lambda m: classify_real(m) if m.det() == 1 else None)]
    return ({"max_len": max_len, "mem_cap": mem_cap}, results, witnesses,
            3 if res.status == "inconclusive" else 0)


@cli.group()
def tree():
    """Bruhat-Tits tree computations for PGL(2, Q_p)."""


@command(tree, "orbit",
         click.option("--p", type=int, required=True),
         click.option("--radius", type=int, required=True))
def tree_orbit(alphabet, p, radius):
    """Bounded-orbit test for the base vertex under the generated group."""
    p = _parse_prime(p)
    if radius < 1:
        raise ParameterError("--radius must be >= 1")
    res = orbit_bounded(alphabet, p, radius)
    results = [{
        "status": res.status,
        "p": p,
        "max_radius": radius,
        "radius_seen": res.radius_seen,
        "orbit_size": res.orbit and len(res.orbit),
        "orbit": res.orbit,
        "witness_word": res.witness,
    }]
    witnesses = [] if res.witness is None else [
        _witness(res.witness, alphabet, lambda m: classify_padic(m, p))]
    return ({"p": p, "radius": radius}, results, witnesses,
            3 if res.status == "inconclusive" else 0)


@command(tree, "length",
         click.option("--p", type=int, required=True),
         click.option("--word", "word_text", type=str, required=True))
def tree_length(alphabet, p, word_text):
    """Translation length of a word on the tree at p."""
    p = _parse_prime(p)
    w = parse_word(word_text, alphabet)
    m = evaluate(w, alphabet)  # nonsingular: the alphabet rejects singular generators
    cls = classify_padic(m, p)
    results = [{
        "p": p,
        "word": word_text,
        "reduced": reduce(w),
        "trace": m.trace(),
        "translation_length": translation_length(m, p),
        "classification": cls,
    }]
    witness = {"word": reduce(w), "matrix": m, "classification": cls}
    return {"p": p, "word": word_text}, results, [witness]


@cli.group()
def diag():
    """Irreducibility diagnostics for S-arithmetic subgroups of SL(2, Q)."""


@command(diag, "places")
def diag_places(alphabet):
    """Place support: primes dividing any generator denominator."""
    return {}, [place_support(alphabet)], []


@command(diag, "density")
def diag_density(alphabet):
    """Zariski density of the generated subgroup of SL_2."""
    return {}, [density_report(alphabet)], []


@command(diag, "traces",
         click.option("--primes", "primes_text", type=str, default=None,
                      help="Comma-separated; defaults to the place support."),
         click.option("--max-len", type=int, required=True),
         click.option("--csv", "csv_path", type=str, default=None))
def diag_traces(alphabet, primes_text, max_len, csv_path):
    """Integral-trace scan over necklace classes of words."""
    if max_len < 1:
        raise ParameterError("--max-len must be >= 1")
    if primes_text is not None:
        try:
            primes = tuple(int(tok) for tok in primes_text.split(","))
        except ValueError:
            raise ParameterError(f"--primes must be comma-separated integers, got {primes_text!r}")
        for i, p in enumerate(primes):
            _parse_prime(p, "--primes")
            if p in primes[:i]:
                raise ParameterError(f"--primes repeats {p}")
    else:
        primes = place_support(alphabet).primes
        if not primes:
            raise ParameterError("generators are integral; pass --primes explicitly")
    fh = contextlib.nullcontext()
    if csv_path is not None:  # opened before the scan, so a bad path fails fast
        try:
            fh = open(csv_path, "w", encoding="utf-8", newline="")
        except OSError as e:
            raise ParameterError(f"cannot write CSV file: {e}")
    with fh:
        scan = integral_trace_scan(alphabet, primes, max_len)
        if csv_path is not None:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["word", "length", "trace"] + [f"v{p}" for p in primes])
            for w, t, vals in scan.hits:
                writer.writerow([format_word(w, alphabet), len(w), frac_str(t)]
                                + [frac_str(vals[p]) for p in primes])
    # valuations print as exact scalars ("inf" for a zero trace), not as ints
    hit_rows = [{
        "word": w,
        "length": len(w),
        "trace": t,
        "valuations": {p: frac_str(v) for p, v in vals.items()},
    } for w, t, vals in scan.hits]
    results = [{
        "primes": primes,
        "max_len": max_len,
        "classes_per_length": scan.classes_per_length,
        "hits_per_length": scan.hits_per_length,
        "hit_count": len(scan.hits),
        "hits": hit_rows,
    }]
    return {"primes": primes, "max_len": max_len, "csv": csv_path}, results, []


@command(diag, "irreducible",
         click.option("--max-len", type=int, default=6),
         click.option("--radius", type=int, default=3))
def diag_irreducible(alphabet, max_len, radius):
    """Per-place indiscreteness witnesses plus the product-level summary."""
    if max_len < 1 or radius < 1:
        raise ParameterError("--max-len and --radius must be >= 1")
    rep = irreducibility_report(alphabet, max_len=max_len, radius=radius)
    witnesses = [_witness(st.word, alphabet, lambda m: st.classification)
                 for st in rep.places if st.word is not None]
    return {"max_len": max_len, "radius": radius}, [rep], witnesses


@command(diag, "probe",
         click.option("--p", type=int, required=True),
         click.option("--iterations", type=int, default=5),
         click.option("--max-word-len", type=int, default=6))
def diag_probe(alphabet, p, iterations, max_word_len):
    """Four-check probe of a candidate irreducible two-generator pair."""
    p = _parse_prime(p)
    if len(alphabet) != 2:
        raise ParameterError("probe needs exactly two generators")
    if iterations < 1:
        raise ParameterError("--iterations must be >= 1")
    if max_word_len < 1:
        raise ParameterError("--max-word-len must be >= 1")
    g, h = alphabet.matrices
    rep = two_gen_probe(g, h, p, iterations=iterations, names=alphabet.names,
                        max_word_len=max_word_len)
    witnesses = [_witness(ck.data["word"], alphabet, lambda m: classify_padic(m, p))
                 for ck in rep.checks if ck.name == "loxodromic-word-at-p" and ck.passed]
    params = {"p": p, "iterations": iterations, "max_word_len": max_word_len}
    return params, [rep], witnesses


def main(argv=None):
    try:
        # non-standalone click returns the command's exit code, and 0 for --help
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.UsageError as e:
        click.echo(dumps_canonical(error_report("parameter", e.format_message())), nl=False)
        return 2


if __name__ == "__main__":
    sys.exit(main())
