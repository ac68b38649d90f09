"""Command line interface. Reports go to stdout as canonical JSON; progress
chatter goes to stderr. Exit codes: 0 success, 2 parameter problems (with a
machine-readable error object), 3 inconclusive because a search budget ran
out. COMMLAB_THREADS picks the worker count for sharded searches and never
changes any output byte.
"""

from __future__ import annotations

import csv
import json
import os
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
from .report import (
    DigitLimitError,
    build_report,
    classification_obj,
    dumps_canonical,
    error_report,
    frac_str,
    int_key_map,
    mat_rows,
    vertex_str,
    witness_obj,
)
from .words import evaluate, format_word, parse_word, reduce, Alphabet

BUILTINS = ("long-reid",)


class ParameterError(Exception):
    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail


def _threads():
    raw = os.environ.get("COMMLAB_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"COMMLAB_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ParameterError(f"COMMLAB_THREADS must be >= 1, got {n}")
    return n


def _parse_fraction(text, label):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"{label} must be a rational like 3 or -5/2, got {text!r}")


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
        try:
            entries = [Fraction(str(e)) for r in rows for e in r]
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"generator #{i}: matrix entries must be rationals")
        names.append(str(g["name"]))
        matrices.append(Mat2(*entries))
    try:
        return Alphabet(tuple(names), tuple(matrices))
    except ValueError as e:
        raise ParameterError(f"bad generator set: {e}")


def dump_generator_file(alphabet):
    """Inverse of load_generator_file, up to canonical fraction strings."""
    return dumps_canonical(
        {
            "generators": [
                {"name": n, "matrix": mat_rows(m)}
                for n, m in zip(alphabet.names, alphabet.matrices)
            ]
        }
    )


def gen_source_options(f):
    f = click.option("--gens", "gens_path", type=str, default=None,
                     help="Generator file (JSON).")(f)
    f = click.option("--q", "q_text", type=str, default=None,
                     help="Use the two-parabolic pair Delta_q.")(f)
    f = click.option("--builtin", "builtin", type=click.Choice(BUILTINS), default=None,
                     help="Use a named builtin generator set.")(f)
    return f


def resolve_alphabet(gens_path, q_text, builtin):
    picked = [x for x in (gens_path, q_text, builtin) if x is not None]
    if len(picked) != 1:
        raise ParameterError("exactly one of --gens, --q, --builtin is required")
    if gens_path is not None:
        alphabet = load_generator_file(gens_path)
    elif q_text is not None:
        q = _parse_fraction(q_text, "--q")
        try:
            alphabet = lu_generators(q)
        except ValueError as e:
            raise ParameterError(str(e))
    else:
        alphabet = long_reid_pair()
    params = {"gens": gens_path, "q": q_text and frac_str(_parse_fraction(q_text, "--q")),
              "builtin": builtin}
    return alphabet, params


def _ms(started):
    return max(0, int(round((time.monotonic() - started) * 1000)))


def _emit(ctx, report, code=0):
    click.echo(dumps_canonical(report), nl=False)
    if code:
        ctx.exit(code)


@click.group()
def cli():
    """Exact-arithmetic lab for discreteness, freeness and irreducibility
    experiments on explicit matrix groups."""


@cli.group()
def lu():
    """Two-parabolic groups Delta_q = <[[1,0],[1,1]], [[1,q],[0,1]]>."""


@lu.command("knapp")
@click.option("--q", "q_text", type=str, required=True)
@click.pass_context
def lu_knapp(ctx, q_text):
    """Knapp discreteness verdict inside the window 0 < |q| < 4."""
    started = time.monotonic()
    q = _parse_fraction(q_text, "--q")
    try:
        v = knapp(q)
    except ValueError as e:
        raise ParameterError(str(e))
    results = [{"q": frac_str(q), "verdict": v.verdict, "n": v.n}]
    _emit(ctx, build_report("lu knapp", {"q": frac_str(q)}, results, [], _ms(started)))


@lu.command("pingpong")
@click.option("--q", "q_text", type=str, required=True)
@click.pass_context
def lu_pingpong(ctx, q_text):
    """Ping-pong freeness certificate for |q| >= 4."""
    started = time.monotonic()
    q = _parse_fraction(q_text, "--q")
    try:
        r = pingpong(q)
    except ValueError as e:
        raise ParameterError(str(e))
    results = [{
        "q": frac_str(q),
        "applicable": r.applicable,
        "free": r.free,
        "m_squared": frac_str(r.m_squared),
        "steps": list(r.inequalities),
    }]
    _emit(ctx, build_report("lu pingpong", {"q": frac_str(q)}, results, [], _ms(started)))


@lu.command("relators")
@gen_source_options
@click.option("--max-len", type=int, required=True)
@click.option("--mem-cap", type=int, default=None, help="Table budget in bytes.")
@click.pass_context
def lu_relators(ctx, gens_path, q_text, builtin, max_len, mem_cap):
    """Shortest relator (word with scalar image), meet-in-the-middle."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    if max_len < 2:
        raise ParameterError("--max-len must be >= 2")
    if mem_cap is not None and mem_cap < 1:
        raise ParameterError("--mem-cap must be >= 1")

    def progress(level, words, table):
        click.echo(f"level {level}: {words} words, table {table}", err=True)

    res = relator_search(alphabet, max_len, mem_cap=mem_cap, threads=_threads(),
                         progress=progress)
    sl2_note = None
    if res.scalar == -1:
        sl2_note = "evaluates to -I: trivial in PGL2, and its square is the SL2 identity"
    elif res.scalar == 1:
        sl2_note = "evaluates to I: already trivial in SL2"
    results = [{
        "status": res.status,
        "relator": res.relator and format_word(res.relator, alphabet),
        "relator_length": res.relator and len(res.relator),
        "scalar": frac_str(res.scalar) if res.scalar is not None else None,
        "sl2_note": sl2_note,
        "strategy": res.strategy,
        "max_len": res.max_len,
        "completed_length": res.completed_length,
        "words_per_length": int_key_map(res.words_per_length),
        "images_per_length": int_key_map(res.images_per_length),
    }]
    witnesses = []
    if res.relator is not None:
        image = evaluate(res.relator, alphabet)
        witnesses.append(witness_obj(format_word(res.relator, alphabet), image,
                                     classify_real(image) if image.det() == 1 else None))
    params = dict(src, max_len=max_len, mem_cap=mem_cap)
    _emit(ctx, build_report("lu relators", params, results, witnesses, _ms(started)),
          3 if res.status == "inconclusive" else 0)


@cli.group()
def tree():
    """Bruhat-Tits tree computations for PGL(2, Q_p)."""


@tree.command("orbit")
@gen_source_options
@click.option("--p", type=int, required=True)
@click.option("--radius", type=int, required=True)
@click.pass_context
def tree_orbit(ctx, gens_path, q_text, builtin, p, radius):
    """Bounded-orbit test for the base vertex under the generated group."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
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
        "orbit": res.orbit and [vertex_str(v) for v in res.orbit],
        "witness_word": res.witness and format_word(res.witness, alphabet),
    }]
    witnesses = []
    if res.witness is not None:
        m = evaluate(res.witness, alphabet)
        witnesses.append(witness_obj(format_word(res.witness, alphabet), m, classify_padic(m, p)))
    params = dict(src, p=p, radius=radius)
    _emit(ctx, build_report("tree orbit", params, results, witnesses, _ms(started)),
          3 if res.status == "inconclusive" else 0)


@tree.command("length")
@gen_source_options
@click.option("--p", type=int, required=True)
@click.option("--word", "word_text", type=str, required=True)
@click.pass_context
def tree_length(ctx, gens_path, q_text, builtin, p, word_text):
    """Translation length of a word on the tree at p."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    p = _parse_prime(p)
    try:
        w = parse_word(word_text, alphabet)
    except ValueError as e:
        raise ParameterError(str(e))
    m = evaluate(w, alphabet)
    if m.det() == 0:
        raise ParameterError("word evaluates to a singular matrix")
    cls = classify_padic(m, p)
    results = [{
        "p": p,
        "word": word_text,
        "reduced": format_word(reduce(w), alphabet),
        "trace": frac_str(m.trace()),
        "translation_length": translation_length(m, p),
        "classification": classification_obj(cls),
    }]
    witnesses = [witness_obj(format_word(reduce(w), alphabet), m, cls)]
    params = dict(src, p=p, word=word_text)
    _emit(ctx, build_report("tree length", params, results, witnesses, _ms(started)))


@cli.group()
def diag():
    """Irreducibility diagnostics for S-arithmetic subgroups of SL(2, Q)."""


@diag.command("places")
@gen_source_options
@click.pass_context
def diag_places(ctx, gens_path, q_text, builtin):
    """Place support: primes dividing any generator denominator."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    s = place_support(alphabet)
    results = [{"primes": list(s.primes), "includes_real": s.includes_real}]
    _emit(ctx, build_report("diag places", src, results, [], _ms(started)))


@diag.command("density")
@gen_source_options
@click.pass_context
def diag_density(ctx, gens_path, q_text, builtin):
    """Zariski density of the generated subgroup of SL_2."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    try:
        r = density_report(alphabet)
    except ValueError as e:
        raise ParameterError(str(e))
    results = [{
        "verdict": r.verdict,
        "reason": r.reason,
        "pair": r.pair and list(r.pair),
        "traces": {k: frac_str(v) for k, v in r.traces.items()},
    }]
    _emit(ctx, build_report("diag density", src, results, [], _ms(started)))


@diag.command("traces")
@gen_source_options
@click.option("--primes", "primes_text", type=str, default=None,
              help="Comma-separated; defaults to the place support.")
@click.option("--max-len", type=int, required=True)
@click.option("--csv", "csv_path", type=str, default=None)
@click.pass_context
def diag_traces(ctx, gens_path, q_text, builtin, primes_text, max_len, csv_path):
    """Integral-trace scan over necklace classes of words."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    if max_len < 1:
        raise ParameterError("--max-len must be >= 1")
    if primes_text is not None:
        try:
            primes = tuple(int(tok) for tok in primes_text.split(","))
        except ValueError:
            raise ParameterError(f"--primes must be comma-separated integers, got {primes_text!r}")
        for p in primes:
            _parse_prime(p, "--primes")
    else:
        primes = place_support(alphabet).primes
        if not primes:
            raise ParameterError("generators are integral; pass --primes explicitly")
    scan = integral_trace_scan(alphabet, primes, max_len)
    hit_rows = [{
        "word": format_word(w, alphabet),
        "length": len(w),
        "trace": frac_str(t),
        "valuations": {str(p): frac_str(v) for p, v in vals.items()},
    } for w, t, vals in scan.hits]
    results = [{
        "primes": list(primes),
        "max_len": max_len,
        "classes_per_length": int_key_map(scan.classes_per_length),
        "hits_per_length": int_key_map(scan.hits_per_length),
        "hit_count": len(scan.hits),
        "hits": hit_rows,
    }]
    if csv_path is not None:
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["word", "length", "trace"] + [f"v{p}" for p in primes])
            for w, t, vals in scan.hits:
                writer.writerow([format_word(w, alphabet), len(w), frac_str(t)]
                                + [frac_str(vals[p]) for p in primes])
    params = dict(src, primes=list(primes), max_len=max_len, csv=csv_path)
    _emit(ctx, build_report("diag traces", params, results, [], _ms(started)))


@diag.command("irreducible")
@gen_source_options
@click.option("--max-len", type=int, default=6)
@click.option("--radius", type=int, default=3)
@click.pass_context
def diag_irreducible(ctx, gens_path, q_text, builtin, max_len, radius):
    """Per-place indiscreteness witnesses plus the product-level summary."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    if max_len < 1 or radius < 1:
        raise ParameterError("--max-len and --radius must be >= 1")
    rep = irreducibility_report(alphabet, max_len=max_len, radius=radius)
    places = []
    witnesses = []
    for st in rep.places:
        places.append({
            "place": st.place,
            "status": st.status,
            "word": st.word and format_word(st.word, alphabet),
            "classification": classification_obj(st.classification),
            "note": st.note,
        })
        if st.word is not None:
            m = evaluate(st.word, alphabet)
            witnesses.append(witness_obj(format_word(st.word, alphabet), m, st.classification))
    results = [{
        "support": {"primes": list(rep.support.primes), "includes_real": True},
        "places": places,
        "product_discrete": rep.product_discrete,
        "product_justification": rep.product_justification,
        "density": {
            "verdict": rep.density.verdict,
            "reason": rep.density.reason,
            "pair": rep.density.pair and list(rep.density.pair),
            "traces": {k: frac_str(v) for k, v in rep.density.traces.items()},
        },
        "conditional_notes": list(rep.conditional_notes),
    }]
    params = dict(src, max_len=max_len, radius=radius)
    _emit(ctx, build_report("diag irreducible", params, results, witnesses, _ms(started)))


@diag.command("probe")
@gen_source_options
@click.option("--p", type=int, required=True)
@click.option("--iterations", type=int, default=5)
@click.option("--max-word-len", type=int, default=6)
@click.pass_context
def diag_probe(ctx, gens_path, q_text, builtin, p, iterations, max_word_len):
    """Four-check probe of a candidate irreducible two-generator pair."""
    started = time.monotonic()
    alphabet, src = resolve_alphabet(gens_path, q_text, builtin)
    p = _parse_prime(p)
    if len(alphabet) != 2:
        raise ParameterError("probe needs exactly two generators")
    if iterations < 1:
        raise ParameterError("--iterations must be >= 1")
    g, h = alphabet.matrices
    try:
        rep = two_gen_probe(g, h, p, iterations=iterations, names=alphabet.names,
                            max_word_len=max_word_len)
    except ValueError as e:
        raise ParameterError(str(e))
    checks = []
    witnesses = []
    for ck in rep.checks:
        data = {}
        for k, v in ck.data.items():
            if isinstance(v, Fraction):
                data[k] = frac_str(v)
            elif isinstance(v, tuple):
                data[k] = [frac_str(x) for x in v]
            elif isinstance(v, dict):
                data[k] = {kk: frac_str(vv) for kk, vv in v.items()}
            elif hasattr(v, "letters"):
                data[k] = format_word(v, alphabet)
            else:
                data[k] = v
        checks.append({"name": ck.name, "passed": ck.passed, "data": data})
        if ck.name == "loxodromic-word-at-p" and ck.passed:
            w = ck.data["word"]
            m = evaluate(w, alphabet)
            witnesses.append(witness_obj(format_word(w, alphabet), m, classify_padic(m, p)))
    results = [{
        "checks": checks,
        "decisive_pass": rep.decisive_pass,
        "message": rep.message,
    }]
    params = dict(src, p=p, iterations=iterations, max_word_len=max_word_len)
    _emit(ctx, build_report("diag probe", params, results, witnesses, _ms(started)))


def main(argv=None):
    try:
        # non-standalone click returns the exit code of a ctx.exit instead of
        # raising through; normal completion returns the command's None
        rv = cli.main(args=argv, standalone_mode=False)
        return rv if isinstance(rv, int) else 0
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.UsageError as e:
        click.echo(dumps_canonical(error_report("parameter", e.format_message())), nl=False)
        return 2
    except ParameterError as e:
        click.echo(dumps_canonical(error_report("parameter", str(e), e.detail)), nl=False)
        return 2
    except DigitLimitError as e:
        click.echo(dumps_canonical(error_report("parameter", str(e))), nl=False)
        return 2


if __name__ == "__main__":
    sys.exit(main())
