"""Exact-arithmetic lab for discreteness, freeness and irreducibility
experiments on explicit matrix groups. Reports go to stdout as canonical
JSON; progress chatter goes to stderr. Exit codes: 0 success, 2 parameter
problems (with a machine-readable error object), 3 inconclusive because a
search budget ran out.
"""

from __future__ import annotations

import contextlib
import json
import re
import sys
import time
from fractions import Fraction

from .bt_tree import orbit_bounded
from .diagnostics import (
    SCAN_MAX_LEN,
    density_report,
    integral_trace_scan,
    irreducibility_report,
    long_reid_pair,
    place_support,
    two_gen_probe,
)
from .exact_core import Mat2, classify_padic, classify_real, is_prime
from .lu_lab import knapp, lu_generators, pingpong, relator_search
from .report import build_report, chart_str, dumps_canonical, error_report, frac_str, to_json
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

    Matrix entries are rational strings or JSON numbers; a number is read
    from its text, never through a float. Malformed JSON is reported with
    line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParameterError(f"cannot read generator file: {e}")
    try:
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as e:
        raise ParameterError(
            f"malformed JSON in generator file: {e.msg}",
            {"line": e.lineno, "column": e.colno},
        )
    except ValueError:  # only an integer literal past the int-to-str digit limit
        raise ParameterError("generator file has an integer literal past the "
                             f"{sys.get_int_max_str_digits()}-digit limit")
    except RecursionError:
        raise ParameterError("generator file nests JSON arrays or objects too deeply to read")
    if not isinstance(doc, dict) or "generators" not in doc:
        raise ParameterError('generator file needs a top-level "generators" list')
    gens = doc["generators"]
    if not isinstance(gens, list) or not gens:
        raise ParameterError('"generators" must be a nonempty list')
    names, matrices = [], []
    for i, g in enumerate(gens):
        if not isinstance(g, dict) or "name" not in g or "matrix" not in g:
            raise ParameterError(f'generator #{i} needs "name" and "matrix"')
        if not isinstance(g["name"], str):
            raise ParameterError(f'generator #{i}: "name" must be a string')
        rows = g["matrix"]
        if (
            not isinstance(rows, list)
            or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)
        ):
            raise ParameterError(f'generator #{i}: "matrix" must be 2 rows of 2 entries')
        entries = [_parse_fraction(str(e), f"generator #{i}: matrix entry") for r in rows for e in r]
        for e in entries:
            frac_str(e)  # an entry no report could print fails here, before the command's work
        names.append(g["name"])
        matrices.append(Mat2(*entries))
    try:
        return Alphabet(tuple(names), tuple(matrices))
    except ValueError as e:
        raise ParameterError(f"bad generator set: {e}")


class Option:
    """`--flag VALUE`: an int (at least minimum, if given) or a str (one of
    choices), the command's dest argument."""

    def __init__(self, flag, kind=str, dest=None, required=False, default=None, choices=None,
                 minimum=None, help=""):
        self.flag, self.kind, self.required, self.default = flag, kind, required, default
        self.dest, self.choices, self.help = dest or flag[2:].replace("-", "_"), choices, help
        self.minimum = minimum

    def convert(self, text):
        try:
            value = self.kind(text)
        except ValueError:  # only int can refuse a str
            raise ParameterError(f"{self.flag} must be an integer, got {text!r}")
        if self.choices is not None and value not in self.choices:
            raise ParameterError(f"{self.flag} must be one of {', '.join(self.choices)}, got {text!r}")
        if self.minimum is not None and value < self.minimum:
            raise ParameterError(f"{self.flag} must be >= {self.minimum}")
        return value


SOURCE_OPTIONS = (
    Option("--builtin", choices=BUILTINS, help="Use a named builtin generator set."),
    Option("--q", dest="q_text", help="Use the two-parabolic pair Delta_q."),
    Option("--gens", dest="gens_path", help="Generator file (JSON)."),
)


def resolve_alphabet(gens_path, q_text, builtin):
    if sum(x is not None for x in (gens_path, q_text, builtin)) != 1:
        raise ParameterError("exactly one of --gens, --q, --builtin is required")
    q = None
    if gens_path is not None:
        alphabet = load_generator_file(gens_path)
    elif q_text is not None:
        q = _parse_fraction(q_text, "--q")
        frac_str(q)  # params echo q: an unprintable q fails here, before the command's work
        alphabet = lu_generators(q)
    else:
        alphabet = long_reid_pair()
    return alphabet, {"gens": gens_path, "q": q, "builtin": builtin}


def _witness(word, alphabet, classify):
    m = evaluate(word, alphabet)
    return {"word": word, "matrix": m, "classification": classify(m)}


GROUPS = {
    "lu": "Two-parabolic groups Delta_q = <[[1,0],[1,1]], [[1,q],[0,1]]>.",
    "tree": "Bruhat-Tits tree computations for PGL(2, Q_p).",
    "diag": "Irreducibility diagnostics for S-arithmetic subgroups of SL(2, Q).",
}
COMMANDS = {group: {} for group in GROUPS}  # group -> name -> (run, options, summary)


def command(group, name, *options, source=True):
    """Register the decorated function as `group name`, with its options.

    With source=True the SOURCE_OPTIONS come first and resolve into the
    function's `alphabet` argument, echoed into params. The function returns
    (params, results, witnesses) in raw values for to_json; the exit code is
    3 when the first result's status is "inconclusive", else 0. Any
    ValueError (a bad option, a library range check, the digit limit) becomes
    a parameter error with exit 2."""
    def decorate(fn):
        def run(**kwargs):
            started = time.monotonic()
            alphabet, src = None, {}
            try:
                if source:
                    alphabet, src = resolve_alphabet(
                        kwargs.pop("gens_path"), kwargs.pop("q_text"), kwargs.pop("builtin"))
                    kwargs["alphabet"] = alphabet
                params, results, witnesses = fn(**kwargs)
                ms = max(0, int(round((time.monotonic() - started) * 1000)))
                report = to_json(build_report(f"{group} {name}", dict(src, **params),
                                              results, witnesses, ms), alphabet)
            except ValueError as e:
                sys.stdout.write(dumps_canonical(error_report("parameter", str(e), getattr(e, "detail", None))))
                return 2
            sys.stdout.write(dumps_canonical(report))
            return 3 if report["results"][0].get("status") == "inconclusive" else 0

        COMMANDS[group][name] = (run, (SOURCE_OPTIONS if source else ()) + options, fn.__doc__)
        return fn

    return decorate


@command("lu", "knapp", Option("--q", dest="q_text", required=True), source=False)
def lu_knapp(q_text):
    """Knapp discreteness verdict inside the window 0 < |q| < 4."""
    q = _parse_fraction(q_text, "--q")
    return {"q": q}, [knapp(q)], []


@command("lu", "pingpong", Option("--q", dest="q_text", required=True), source=False)
def lu_pingpong(q_text):
    """Ping-pong freeness certificate for |q| >= 4."""
    q = _parse_fraction(q_text, "--q")
    return {"q": q}, [pingpong(q)], []


@command("lu", "relators", Option("--max-len", int, required=True, minimum=2),
         Option("--mem-cap", int, minimum=1,
                help="Budget in bytes for the two levels the search holds, checked before each level."))
def lu_relators(alphabet, max_len, mem_cap):
    """Shortest relator (word with scalar image), meet-in-the-middle."""
    def progress(level, words, images):
        print(f"level {level}: {words} words, {images} images", file=sys.stderr)

    res = relator_search(alphabet, max_len, mem_cap=mem_cap, progress=progress)
    results = [dict(vars(res), relator_length=res.relator and len(res.relator),
                    sl2_note=SL2_NOTES.get(res.scalar))]
    witnesses = [] if res.relator is None else [
        _witness(res.relator, alphabet, lambda m: classify_real(m) if m.det() == 1 else None)]
    return {"max_len": max_len, "mem_cap": mem_cap}, results, witnesses


@command("tree", "orbit", Option("--p", int, required=True),
         Option("--radius", int, required=True, minimum=1))
def tree_orbit(alphabet, p, radius):
    """Bounded-orbit test for the base vertex under the generated group."""
    p = _parse_prime(p)
    res = orbit_bounded(alphabet, p, radius)
    results = [dict(vars(res), p=p, orbit_size=res.orbit and len(res.orbit),
                    orbit=res.orbit and [chart_str(p, w) for w in res.orbit])]
    witnesses = [] if res.witness_word is None else [
        _witness(res.witness_word, alphabet, lambda m: classify_padic(m, p))]
    return {"p": p, "radius": radius}, results, witnesses


@command("tree", "length", Option("--p", int, required=True),
         Option("--word", dest="word_text", required=True))
def tree_length(alphabet, p, word_text):
    """Translation length of a word on the tree at p."""
    p = _parse_prime(p)
    reduced = reduce(parse_word(word_text, alphabet))
    # nonsingular: the alphabet rejects singular generators
    witness = _witness(reduced, alphabet, lambda m: classify_padic(m, p))
    m, cls = witness["matrix"], witness["classification"]
    results = [{
        "p": p,
        "word": word_text,
        "reduced": reduced,
        "trace": m.trace(),
        "translation_length": cls.translation_length or 0,
        "classification": cls,
    }]
    return {"p": p, "word": word_text}, results, [witness]


@command("diag", "places")
def diag_places(alphabet):
    """Place support: primes dividing any generator denominator."""
    return {}, [place_support(alphabet)], []


@command("diag", "density")
def diag_density(alphabet):
    """Zariski density of the generated subgroup of SL_2."""
    return {}, [density_report(alphabet)], []


@command("diag", "traces",
         Option("--primes", dest="primes_text", help="Comma-separated; defaults to the place support."),
         Option("--max-len", int, required=True, minimum=1), Option("--csv", dest="csv_path"))
def diag_traces(alphabet, primes_text, max_len, csv_path):
    """Integral-trace scan over necklace classes of words."""
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
    # a failed open, write or close (a full disk) is a parameter error
    try:
        fh = contextlib.nullcontext()
        if csv_path is not None:  # opened before the scan, so a bad path fails fast
            fh = open(csv_path, "w", encoding="utf-8", newline="")
        with fh:
            scan = integral_trace_scan(alphabet, primes, max_len)
            if csv_path is not None:
                import csv  # only this option uses it; keeps it out of every start-up

                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["word", "length", "trace"] + [f"v{p}" for p in primes])
                for w, t, vals in scan.hits:
                    writer.writerow([format_word(w, alphabet), len(w), frac_str(t)]
                                    + [frac_str(vals[p]) for p in primes])
    except OSError as e:
        raise ParameterError(f"cannot write CSV file: {e}")
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


@command("diag", "irreducible", Option("--max-len", int, default=SCAN_MAX_LEN, minimum=1))
def diag_irreducible(alphabet, max_len):
    """Per-place indiscreteness witnesses plus the product-level summary."""
    rep = irreducibility_report(alphabet, max_len=max_len)
    witnesses = [_witness(st.word, alphabet, lambda m: st.classification)
                 for st in rep.places if st.word is not None]
    return {"max_len": max_len}, [rep], witnesses


@command("diag", "probe", Option("--p", int, required=True))
def diag_probe(alphabet, p):
    """Four-check probe of a candidate irreducible two-generator pair."""
    p = _parse_prime(p)
    if len(alphabet) != 2:
        raise ParameterError("probe needs exactly two generators")
    g, h = alphabet.matrices
    rep = two_gen_probe(g, h, p)
    witnesses = [_witness(ck.data["word"], alphabet, lambda m: classify_padic(m, p))
                 for ck in rep.checks if ck.name == "loxodromic-word-at-p" and ck.passed]
    return {"p": p}, [rep], witnesses


def main(argv=None):
    """Run `GROUP COMMAND --flag VALUE ...` and return its exit code. An
    option's value is the next token even if it starts with "-"; a repeated
    option keeps its last value; --help prints the usage and returns 0."""
    args = list(sys.argv[1:] if argv is None else argv)
    path = []
    try:
        for kind in ("group", "command"):
            names = COMMANDS[path[0]] if path else GROUPS
            if args[:1] == ["--help"]:
                return _help(path)
            if not args or args[0] not in names:
                raise ParameterError(f"no such {kind} {args[0]!r}" if args
                                     else f"missing {kind}: one of {', '.join(names)}")
            path.append(args.pop(0))
        run, options, _ = COMMANDS[path[0]][path[1]]
        kwargs = _parse_options(iter(args), options)
    except ParameterError as e:
        sys.stdout.write(dumps_canonical(error_report("parameter", str(e))))
        return 2
    return _help(path) if kwargs is None else run(**kwargs)


def _parse_options(tokens, options):
    """The command's keyword arguments from the tokens, or None for --help."""
    flags, given = {o.flag for o in options}, {}
    for token in tokens:
        if token == "--help":
            return None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ParameterError(f"no such option {flag!r}" if token.startswith("-")
                                 else f"unexpected argument {token!r}")
        if not eq and (value := next(tokens, None)) is None:
            raise ParameterError(f"option {flag!r} needs a value")
        given[flag] = value
    for o in options:
        if o.required and o.flag not in given:
            raise ParameterError(f"missing option {o.flag!r}")
    return {o.dest: o.convert(given[o.flag]) if o.flag in given else o.default for o in options}


def _help(path):
    """Print the usage of the group or command at path; exit code 0."""
    if len(path) == 2:
        _, options, doc = COMMANDS[path[0]][path[1]]
        rows = [(f"{o.flag} " + ("|".join(o.choices or ()) or {int: "INTEGER"}.get(o.kind, "TEXT")),
                 o.help + " [required]" * o.required) for o in options]
    else:
        doc = GROUPS[path[0]] if path else __doc__.strip().replace("\n", "\n  ")
        rows = [(n, entry[2]) for n, entry in COMMANDS[path[0]].items()] if path else list(GROUPS.items())
    rows.append(("--help", "Show this message and exit."))
    width = max(len(name) for name, _ in rows) + 2
    usage = " ".join(["commlab", *path, *["GROUP", "COMMAND"][len(path):], "[OPTIONS]"])
    sys.stdout.write(f"Usage: {usage}\n\n  {doc}\n\n"
                     + "".join(f"  {name:{width}}{text.strip()}".rstrip() + "\n" for name, text in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
