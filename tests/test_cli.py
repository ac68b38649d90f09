"""CLI behaviour: exit codes, canonical JSON, schema conformance, goldens."""

import csv
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

try:
    import jsonschema
except ImportError:  # only check_schema needs it; every other check still runs
    jsonschema = None

from commlab.bt_tree import TreeVertex
from commlab.cli import (
    COMMANDS,
    GROUPS,
    _parse_fraction,
    load_generator_file,
    main,
)
from commlab.diagnostics import PlaceSupport, long_reid_pair
from commlab.exact_core import INFINITY, ElementClass, Mat2, classify_real
from commlab.report import DigitLimitError, chart_str, dumps_canonical, frac_str, to_json
from commlab.words import Alphabet, Word, evaluate, format_word, parse_word
from helpers import canonical_residue_oracle, dump_generator_file

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
SCHEMA = json.loads(
    (REPO / "src" / "commlab" / "report.schema.json").read_text(encoding="utf-8")
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(text):
    """The parsed report, validated against the schema where jsonschema is installed."""
    doc = json.loads(text)
    if jsonschema is not None:
        jsonschema.validate(doc, SCHEMA)
    return doc


def normalize(text):
    doc = json.loads(text)
    if "timing_ms" in doc:
        doc["timing_ms"] = 0
    return dumps_canonical(doc)


# ---------------------------------------------------------------- exit codes

def test_knapp_success(capsys):
    code, out, _ = run(capsys, ["lu", "knapp", "--q", "2"])
    assert code == 0
    doc = check_schema(out)
    assert doc["results"][0]["verdict"] == "discrete"
    assert doc["results"][0]["n"] == 4
    assert out.endswith("\n")


def test_parameter_error_is_json(capsys):
    code, out, _ = run(capsys, ["lu", "knapp", "--q", "0"])
    assert code == 2
    doc = check_schema(out)
    assert doc["error"]["code"] == "parameter"


def test_missing_option_is_usage_error(capsys):
    code, out, _ = run(capsys, ["lu", "knapp"])
    assert code == 2
    check_schema(out)


def test_unknown_subcommand(capsys):
    code, out, _ = run(capsys, ["lu", "nope"])
    assert code == 2
    check_schema(out)


def test_no_arguments(capsys):
    code, out, _ = run(capsys, [])
    assert code == 2
    check_schema(out)


def test_source_options_are_exclusive(capsys):
    code, out, _ = run(
        capsys,
        ["diag", "places", "--q", "1", "--builtin", "long-reid"],
    )
    assert code == 2
    doc = check_schema(out)
    assert "exactly one" in doc["error"]["message"]


def test_relators_inconclusive_exits_3(capsys):
    code, out, _ = run(
        capsys,
        ["lu", "relators", "--q", "1/2", "--max-len", "12", "--mem-cap", "600"],
    )
    assert code == 3
    doc = check_schema(out)
    assert doc["results"][0]["status"] == "inconclusive"
    assert doc["results"][0]["relator"] is None


def test_relators_huge_max_len_under_a_cap_exits_3_at_once(capsys):
    # The key width follows the levels built, not --max-len: sized from
    # 10^9 it would pack the identity into an int of gigabytes before level 1.
    started = time.monotonic()
    code, out, err = run(capsys, ["lu", "relators", "--q", "11/2", "--max-len", "1000000000",
                                  "--mem-cap", "100000"])
    assert time.monotonic() - started < 0.5
    assert code == 3
    counts = {str(n): 1 if n == 0 else 4 * 3 ** (n - 1) for n in range(6)}
    assert check_schema(out)["results"] == [{
        "completed_length": 10, "images_per_length": counts, "max_len": 1000000000,
        "relator": None, "relator_length": None, "scalar": None, "sl2_note": None,
        "status": "inconclusive", "strategy": "meet-in-the-middle", "words_per_length": counts,
    }]
    assert err.splitlines()[-1] == "level 5: 324 words, 324 images"


def test_relators_mem_cap_prices_the_two_levels_held(capsys):
    # The search holds only the level before and the new one: at max-len 20
    # its traced peak is about 11.7 MB and its last projection 16.2 MB, so a
    # 24 MB cap lets it finish.
    code, out, err = run(capsys, ["lu", "relators", "--q", "11/2", "--max-len", "20",
                                  "--mem-cap", "24000000"])
    assert code == 0
    result = check_schema(out)["results"][0]
    assert (result["status"], result["completed_length"]) == ("none-found", 20)
    assert err.splitlines()[-1] == "level 10: 78732 words, 78732 images"


def test_orbit_inconclusive_exits_3(capsys, tmp_path):
    gens = tmp_path / "b_only.json"
    gens.write_text(
        json.dumps(
            {"generators": [{"name": "b", "matrix": [["1", "1/2"], ["0", "1"]]}]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, ["tree", "orbit", "--gens", str(gens), "--p", "2", "--radius", "1"]
    )
    assert code == 3
    doc = check_schema(out)
    assert doc["results"][0]["status"] == "inconclusive"


def _far_fixed_point(tmp_path):
    # <[[1, 1/8], [0, 1]], [[1, 0], [8, 1]]> fixes a vertex at distance 3 from v0
    gens = tmp_path / "far.json"
    gens.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["1", "1/8"], ["0", "1"]]},
        {"name": "b", "matrix": [["1", "0"], ["8", "1"]]},
    ]}), encoding="utf-8")
    return str(gens)


def test_orbit_of_a_bounded_group_past_the_radius_is_inconclusive_at_once(capsys, tmp_path):
    # no loxodromic of length <= 2 means a bounded group (Serre), so escaping
    # radius 5 scans no longer words
    started = time.monotonic()
    code, out, _ = run(capsys, ["tree", "orbit", "--gens", _far_fixed_point(tmp_path),
                                "--p", "2", "--radius", "5"])
    assert time.monotonic() - started < 2.0
    assert code == 3
    doc = check_schema(out)
    assert doc["results"] == [{
        "max_radius": 5, "orbit": None, "orbit_size": None, "p": 2,
        "radius_seen": 5, "status": "inconclusive", "witness_word": None,
    }]
    assert doc["witnesses"] == []


def test_orbit_of_a_bounded_group_closes_at_radius_6(capsys, tmp_path):
    code, out, _ = run(capsys, ["tree", "orbit", "--gens", _far_fixed_point(tmp_path),
                                "--p", "2", "--radius", "6"])
    assert code == 0
    res = check_schema(out)["results"][0]
    assert res["status"] == "bounded"
    assert (res["orbit_size"], res["radius_seen"]) == (12, 6)


def test_unbounded_orbit_ignores_the_radius(capsys):
    reports = []
    for radius in ("1", "40"):
        started = time.monotonic()
        code, out, _ = run(capsys, ["tree", "orbit", "--q", "1/2", "--p", "2", "--radius", radius])
        assert time.monotonic() - started < 1.0
        assert code == 0
        reports.append(check_schema(out))
    assert [r["results"][0]["status"] for r in reports] == ["unbounded", "unbounded"]
    assert reports[0]["results"][0]["witness_word"] == reports[1]["results"][0]["witness_word"] == "a b"
    assert reports[0]["witnesses"] == reports[1]["witnesses"]


def test_orbit_bounded_lists_vertices(capsys, tmp_path):
    gens = tmp_path / "b_only.json"
    gens.write_text(
        json.dumps(
            {"generators": [{"name": "b", "matrix": [["1", "1/2"], ["0", "1"]]}]}
        ),
        encoding="utf-8",
    )
    code, out, _ = run(
        capsys, ["tree", "orbit", "--gens", str(gens), "--p", "2", "--radius", "3"]
    )
    assert code == 0
    doc = check_schema(out)
    res = doc["results"][0]
    assert res["status"] == "bounded"
    assert res["orbit"] == ["2^0:0", "2^0:1/2"]
    assert res["orbit_size"] == 2


LIMIT = sys.get_int_max_str_digits()
# Building any of these values takes 10^n with n = 10^8.
HUGE_EXPONENTS = [
    (["lu", "knapp", "--q", "1e100000000"],
     f"--q has an exponent past the {LIMIT}-digit limit, got '1e100000000'"),
    (["lu", "relators", "--q", "1e-100000000", "--max-len", "4"],
     f"--q has an exponent past the {LIMIT}-digit limit, got '1e-100000000'"),
    (["diag", "places", "--gens", "{huge}"],
     f"generator #0: matrix entry has an exponent past the {LIMIT}-digit limit, got '1e100000000'"),
]


def _with_files(argv, tmp_path):
    """argv with {huge} replaced by a generator file whose entry is 1e100000000,
    and {nested} by one whose generators hold arrays 100 000 deep."""
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["1e100000000", "0"], ["0", "1"]]}]}), encoding="utf-8")
    nested = tmp_path / "nested.json"
    nested.write_text('{"generators": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    files = {"{huge}": str(huge), "{nested}": str(nested)}
    return [files.get(a, a) for a in argv]


@pytest.mark.parametrize("argv, message", [
    (["lu", "knapp", "--q", "5"], "knapp window is 0 < |q| < 4"),
    (["lu", "knapp", "--q", "x"], "--q must be a rational like 3 or -5/2, got 'x'"),
    (["lu", "pingpong", "--q", "0"], "q = 0 collapses b to the identity"),
    (["lu", "relators", "--q", "1", "--max-len", "1"], "--max-len must be >= 2"),
    (["lu", "relators", "--q", "1", "--max-len", "4", "--mem-cap", "0"], "--mem-cap must be >= 1"),
    (["lu", "relators", "--q", "0", "--max-len", "4"], "q = 0 collapses b to the identity"),
    (["tree", "orbit", "--q", "1/2", "--p", "4", "--radius", "2"], "p must be a prime, got 4"),
    (["tree", "orbit", "--q", "1/2", "--p", "2", "--radius", "0"], "--radius must be >= 1"),
    (["tree", "length", "--q", "1/2", "--p", "2", "--word", "c"], "unknown generator 'c'"),
    (["tree", "length", "--q", "1/2", "--p", "2", "--word", "b^0"], "zero exponent in token 'b^0'"),
    (["diag", "traces", "--builtin", "long-reid", "--max-len", "0"], "--max-len must be >= 1"),
    (["diag", "traces", "--builtin", "long-reid", "--max-len", "3", "--primes", "2,x"],
     "--primes must be comma-separated integers, got '2,x'"),
    (["diag", "traces", "--builtin", "long-reid", "--max-len", "3", "--primes", "4"],
     "--primes must be a prime, got 4"),
    (["diag", "traces", "--q", "1", "--max-len", "3"],
     "generators are integral; pass --primes explicitly"),
    (["diag", "irreducible", "--q", "1/2", "--max-len", "0"], "--max-len must be >= 1"),
    (["diag", "probe", "--gens", "{three}", "--p", "2"], "probe needs exactly two generators"),
    (["diag", "probe", "--q", "1/2", "--p", "2", "--iterations", "5"], "no such option '--iterations'"),
    (["diag", "probe", "--builtin", "long-reid", "--p", "2"],
     "entries outside Z[1/2]: denominator 3 is not a power of 2"),
    (["diag", "places", "--gens", "{nested}"],
     "generator file nests JSON arrays or objects too deeply to read"),
    (["diag", "probe", "--q", "1/60", "--p", "2"], "entries outside Z[1/2]: denominator 60 is not a power of 2"),
    (["diag", "traces", "--q", "1/2", "--primes", "2,2", "--max-len", "2"], "--primes repeats 2"),
    (["diag", "traces", "--builtin", "long-reid", "--primes", "3,2,5,2", "--max-len", "2"],
     "--primes repeats 2"),
    (["diag", "traces", "--q", "1/2", "--max-len", "2", "--csv", "{tmp}/missing/x.csv"],
     "cannot write CSV file: [Errno 2] No such file or directory: '{tmp}/missing/x.csv'"),
    (["diag", "traces", "--q", "1/2", "--max-len", "2", "--csv", "{tmp}"],
     "cannot write CSV file: [Errno 21] Is a directory: '{tmp}'"),
    (["tree", "length", "--q", "1/2", "--p", "3317044064679887385961981", "--word", "a"],
     "primality is decided only below 3317044064679887385961981, got 3317044064679887385961981"),
] + HUGE_EXPONENTS + [
    # the denominator's cofactor prime to 2 is past PRIME_TEST_BOUND: refused without factoring
    (["diag", "probe", "--gens", "{bigden}", "--p", "2"],
     f"entries outside Z[1/2]: denominator {10**81 + 7} is not a power of 2"),
    # a bad bound is refused while the options are parsed, before --gens is read or --p tested
    (["tree", "orbit", "--gens", "{tmp}/missing.json", "--p", "2", "--radius", "0"], "--radius must be >= 1"),
    (["tree", "orbit", "--q", "1/2", "--p", "4", "--radius", "0"], "--radius must be >= 1"),
    (["lu", "relators", "--gens", "{tmp}/missing.json", "--max-len", "1"], "--max-len must be >= 2"),
    (["diag", "traces", "--gens", "{tmp}/missing.json", "--max-len", "0"], "--max-len must be >= 1"),
])
def test_parameter_error_messages(capsys, tmp_path, argv, message):
    three = tmp_path / "three.json"
    three.write_text(json.dumps({"generators": [
        {"name": n, "matrix": [["1", str(i)], ["0", "1"]]} for i, n in enumerate("abc", 1)
    ]}), encoding="utf-8")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _with_files(argv, tmp_path)]
    bigden = tmp_path / "bigden.json"
    bigden.write_text(json.dumps({"generators": [
        {"name": "g", "matrix": [["2", "0"], ["0", "1/2"]]},
        {"name": "h", "matrix": [["1", f"1/{10**81 + 7}"], ["0", "1"]]},
    ]}), encoding="utf-8")
    files = {"{three}": str(three), "{bigden}": str(bigden)}
    argv = [files.get(a, a) for a in argv]
    code, out, _ = run(capsys, argv)
    assert code == 2
    doc = check_schema(out)
    assert doc["error"] == {"code": "parameter", "message": message.replace("{tmp}", str(tmp_path))}


# ---------------------------------------------------------------- gens files

def test_malformed_json_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [\n  {"name": "a",}\n]}', encoding="utf-8")
    code, out, _ = run(capsys, ["diag", "places", "--gens", str(bad)])
    assert code == 2
    doc = check_schema(out)
    assert doc["error"]["detail"]["line"] == 2
    assert doc["error"]["detail"]["column"] > 0


def test_missing_file(capsys, tmp_path):
    code, out, _ = run(
        capsys, ["diag", "places", "--gens", str(tmp_path / "nope.json")]
    )
    assert code == 2
    check_schema(out)


def test_singular_generator_rejected(capsys, tmp_path):
    gens = tmp_path / "sing.json"
    gens.write_text(
        json.dumps({"generators": [{"name": "a", "matrix": [["1", "2"], ["2", "4"]]}]}),
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["diag", "places", "--gens", str(gens)])
    assert code == 2
    doc = check_schema(out)
    assert "singular" in doc["error"]["message"]


def test_an_overlong_integer_literal_in_a_generator_file_is_a_parameter_error(capsys, tmp_path):
    # json.loads refuses to read an integer literal past the digit limit
    gens = tmp_path / "long_literal.json"
    gens.write_text('{"generators": [{"name": "a", "matrix": [[1, %s], [0, 1]]}]}' % ("7" * 5000),
                    encoding="utf-8")
    code, out, _ = run(capsys, ["diag", "places", "--gens", str(gens)])
    assert code == 2
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": f"generator file has an integer literal past the {LIMIT}-digit limit",
    }


@pytest.mark.parametrize("entry", ["12345678901234567.5", "-2.5E-3", "1e999999999"])
def test_a_number_entry_reads_like_its_string(capsys, tmp_path, entry):
    # A JSON number reaches the rational parser as its own text, never
    # through a binary float, so both spellings give one report.
    reports = []
    for quote in ("", '"'):
        gens = tmp_path / "gens.json"
        gens.write_text('{"generators": [{"name": "a", "matrix": [[1, %s], [0, 1]]}, '
                        '{"name": "b", "matrix": [[1, 0], [3, 1]]}]}' % (quote + entry + quote),
                        encoding="utf-8")
        code, out, _ = run(capsys, ["diag", "places", "--gens", str(gens)])
        reports.append((code, normalize(out)))
    assert reports[0] == reports[1]
    if entry == "12345678901234567.5":
        assert check_schema(reports[0][1])["results"][0]["primes"] == [2]
    if entry == "1e999999999":
        assert check_schema(reports[0][1])["error"]["message"] == (
            f"generator #0: matrix entry has an exponent past the {LIMIT}-digit limit, got '1e999999999'")


@pytest.mark.parametrize("name", [None, True, 5, ["a"]], ids=["null", "true", "5", "list"])
def test_a_generator_name_must_be_a_json_string(capsys, tmp_path, name):
    # str() would turn null into a generator named None, and true into True
    gens = tmp_path / "names.json"
    gens.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["1", "1/2"], ["0", "1"]]},
        {"name": name, "matrix": [["1", "0"], ["2", "1"]]}]}), encoding="utf-8")
    for argv in (["diag", "places"], ["tree", "length", "--p", "2", "--word", "None True"]):
        code, out, _ = run(capsys, argv + ["--gens", str(gens)])
        assert code == 2
        assert check_schema(out)["error"] == {
            "code": "parameter", "message": 'generator #1: "name" must be a string'}


def test_generator_file_round_trip(tmp_path):
    ab = long_reid_pair()
    path = tmp_path / "lr.json"
    path.write_text(dump_generator_file(ab), encoding="utf-8")
    back = load_generator_file(str(path))
    assert back.names == ab.names
    assert back.matrices == ab.matrices


def test_bundled_long_reid_fixture_matches_builtin():
    ab = load_generator_file(str(REPO / "tests" / "data" / "long_reid.json"))
    assert ab.matrices == long_reid_pair().matrices


# ---------------------------------------------------------------- tree/diag

def test_tree_length_report(capsys):
    code, out, _ = run(
        capsys,
        ["tree", "length", "--q", "1/2", "--p", "2", "--word", "a b^2 b^-1"],
    )
    assert code == 0
    doc = check_schema(out)
    res = doc["results"][0]
    assert res["reduced"] == "a b"
    assert res["trace"] == "5/2"
    assert res["translation_length"] == 2
    assert res["classification"]["kind"] == "loxodromic"


def test_tree_length_past_the_digit_limit_is_a_parameter_error(capsys):
    # b^3000 has exact entries longer than Python's int-to-str limit
    code, out, _ = run(
        capsys, ["tree", "length", "--builtin", "long-reid", "--p", "3", "--word", "b^3000"]
    )
    assert code == 2
    doc = check_schema(out)
    assert doc["error"]["code"] == "parameter"
    assert "printable digit limit" in doc["error"]["message"]


def test_tree_length_fails_the_digit_limit_fast(capsys):
    # b^4000 is under the letter limit; evaluating it letter by letter took
    # seconds before the digit limit rejected its entries
    started = time.monotonic()
    code, out, _ = run(
        capsys, ["tree", "length", "--builtin", "long-reid", "--p", "3", "--word", "b^4000"]
    )
    assert time.monotonic() - started < 2
    assert code == 2
    doc = check_schema(out)
    assert doc["error"]["code"] == "parameter"
    assert "printable digit limit" in doc["error"]["message"]


def test_pingpong_past_the_digit_limit_is_a_parameter_error(capsys, monkeypatch):
    # 1e4300 parses (its exponent is at the limit), but |q| has 4301 digits
    code, out, _ = run(capsys, ["lu", "pingpong", "--q", "1e4300"])
    assert code == 2
    doc = check_schema(out)
    assert doc["error"] == {
        "code": "parameter",
        "message": f"exact entries exceed the printable digit limit ({LIMIT} digits)",
    }
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, GOLDEN_CASES["pingpong_q4.json"])
    assert code == 0
    assert normalize(out) == (GOLDEN / "pingpong_q4.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, stage", [
    (["diag", "irreducible", "--q", "1e4300"], "irreducibility_report"),
    (["tree", "orbit", "--q", "1e-4300", "--p", "2", "--radius", "3"], "orbit_bounded"),
    (["lu", "relators", "--q", "1e4300", "--max-len", "6"], "relator_search"),
    (["diag", "traces", "--q", "1e4300", "--max-len", "3"], "place_support"),
])
def test_an_unprintable_q_is_refused_before_the_work(capsys, monkeypatch, argv, stage):
    # params echo q, so a q past the digit limit could never be reported
    def work(*args, **kwargs):
        raise AssertionError(f"{stage} ran for an unprintable q")

    monkeypatch.setattr(f"commlab.cli.{stage}", work)
    code, out, err = run(capsys, argv)
    assert (code, err) == (2, "")
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": f"exact entries exceed the printable digit limit ({LIMIT} digits)",
    }


@pytest.mark.parametrize("argv, stage", [
    (["lu", "relators", "--max-len", "6"], "relator_search"),
    (["tree", "orbit", "--p", "2", "--radius", "3"], "orbit_bounded"),
    (["tree", "length", "--p", "2", "--word", "b"], "evaluate"),
    (["diag", "places"], "place_support"),
    (["diag", "density"], "density_report"),
    (["diag", "traces", "--primes", "2", "--max-len", "3"], "integral_trace_scan"),
    (["diag", "irreducible"], "irreducibility_report"),
    (["diag", "probe", "--p", "2"], "two_gen_probe"),
])
def test_an_unprintable_generator_entry_is_refused_before_the_work(capsys, monkeypatch, tmp_path,
                                                                   argv, stage):
    # 1e4300 parses (its exponent is at the limit), but no report could print it
    gens = tmp_path / "unprintable.json"
    gens.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [[1, "1e4300"], [0, 1]]},
        {"name": "b", "matrix": [[1, 0], [1, 1]]}]}), encoding="utf-8")

    def work(*args, **kwargs):
        raise AssertionError(f"{stage} ran for an unprintable generator entry")

    monkeypatch.setattr(f"commlab.cli.{stage}", work)
    code, out, err = run(capsys, argv + ["--gens", str(gens)])
    assert (code, err) == (2, "")
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": f"exact entries exceed the printable digit limit ({LIMIT} digits)",
    }


def test_knapp_keeps_its_window_error_for_an_unprintable_q(capsys):
    code, out, _ = run(capsys, ["lu", "knapp", "--q", "1e4300"])
    assert code == 2
    assert check_schema(out)["error"] == {"code": "parameter", "message": "knapp window is 0 < |q| < 4"}


@pytest.mark.parametrize("argv", [argv for argv, _ in HUGE_EXPONENTS])
def test_huge_exponents_are_refused_fast(capsys, tmp_path, argv):
    argv = _with_files(argv, tmp_path)
    started = time.monotonic()
    code, _, _ = run(capsys, argv)
    assert time.monotonic() - started < 1
    assert code == 2


@pytest.mark.parametrize("text", ["3", "-5/2", "0.5", "1e3", "1E-2", "1_0", " 7 ", f"1e{LIMIT}"])
def test_parse_fraction_keeps_every_printable_form(text):
    assert _parse_fraction(text, "--q") == Fraction(text)


@pytest.mark.parametrize("argv, density", [
    (["diag", "density"], lambda res: res),
    (["diag", "irreducible"], lambda res: res["density"]),
    # check 3 prints a word, not the matrix of one, so no entry passes the digit limit
    (["diag", "probe", "--p", "2"], lambda res: res["checks"][1]["data"]),
])
def test_density_is_decided_for_generators_near_the_digit_limit(capsys, tmp_path, argv, density):
    # g = [[n, n + 1], [n - 1, n]] has 1501-digit entries, printable, but tr[g^2, h^2] is not
    n = 10**1500 + 1
    gens = tmp_path / "near_limit.json"
    gens.write_text(dump_generator_file(Alphabet("gh", [Mat2(n, n + 1, n - 1, n), Mat2(3, 1, 2, 1)])),
                    encoding="utf-8")
    code, out, _ = run(capsys, argv + ["--gens", str(gens)])
    assert code == 0
    (res,) = check_schema(out)["results"]
    assert density(res) == {"verdict": "dense", "dimension": 9, "words": [
        "", "g", "h", "g g", "g h", "h g", "h h", "g g h", "g h h"]}


def test_density_of_forty_commuting_shears_is_decided_at_once(capsys, tmp_path):
    gens = tmp_path / "shears.json"
    gens.write_text(dump_generator_file(Alphabet([f"s{i}" for i in range(1, 41)],
                                                 [Mat2(1, i, 0, 1) for i in range(1, 41)])),
                    encoding="utf-8")
    started = time.monotonic()
    code, out, _ = run(capsys, ["diag", "density", "--gens", str(gens)])
    assert time.monotonic() - started < 1
    assert code == 0
    assert check_schema(out)["results"] == [
        {"verdict": "not-dense", "dimension": 3, "words": ["", "s1", "s2"]}]


def test_tree_length_long_word_below_the_digit_limit(capsys):
    code, out, _ = run(
        capsys, ["tree", "length", "--builtin", "long-reid", "--p", "3", "--word", "b^2000"]
    )
    assert code == 0
    doc = check_schema(out)
    assert doc["results"][0]["word"] == "b^2000"


def test_tree_length_huge_exponent_is_rejected_before_expansion(capsys):
    started = time.monotonic()
    code, out, _ = run(
        capsys, ["tree", "length", "--builtin", "long-reid", "--p", "3", "--word", "b^300000000"]
    )
    assert time.monotonic() - started < 1
    assert code == 2
    doc = check_schema(out)
    assert doc["error"]["code"] == "parameter"
    assert "more than the limit" in doc["error"]["message"]


def test_tree_length_exponent_past_the_digit_limit_is_refused_before_it_is_read(capsys):
    code, out, _ = run(capsys, ["tree", "length", "--q", "1/2", "--p", "2", "--word", "a^" + "9" * 5000])
    assert code == 2
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": "exponent of 'a' has 5000 digits, so the word has more than the limit 4096 letters",
    }


def test_tree_length_bad_word(capsys):
    code, out, _ = run(
        capsys, ["tree", "length", "--q", "1/2", "--p", "2", "--word", "a c"]
    )
    assert code == 2
    check_schema(out)


def test_huge_prime_is_decided_at_once(capsys):
    p = str(10**18 + 3)
    for argv in (["tree", "length", "--q", "1/2", "--p", p, "--word", "a"],
                 ["diag", "traces", "--q", "1/2", "--primes", p, "--max-len", "3"]):
        started = time.monotonic()
        code, out, _ = run(capsys, argv)
        assert time.monotonic() - started < 1.0
        assert code == 0
        assert check_schema(out)["params"]["p" if argv[0] == "tree" else "primes"] in (
            10**18 + 3, [10**18 + 3])


def _one_entry_gens(tmp_path, entry):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["1", entry], ["0", "1"]]}]}), encoding="utf-8")
    return str(path)


def test_semiprime_denominator_is_factored_at_once(capsys, tmp_path):
    gens = _one_entry_gens(tmp_path, "1/1000000016000000063")  # 1000000007 * 1000000009
    started = time.monotonic()
    code, out, _ = run(capsys, ["diag", "places", "--gens", gens])
    assert time.monotonic() - started < 1.0
    assert code == 0
    assert check_schema(out)["results"][0]["primes"] == [1000000007, 1000000009]


def test_denominator_past_the_prime_bound_is_a_parameter_error(capsys, tmp_path):
    gens = _one_entry_gens(tmp_path, f"1/{(10**13 + 37) * (10**13 + 51)}")
    code, out, _ = run(capsys, ["diag", "places", "--gens", gens])
    assert code == 2
    error = check_schema(out)["error"]
    assert error["code"] == "parameter"
    assert error["message"].startswith("primality is decided only below")


def test_mixed_case_token_is_not_an_inverse(capsys, tmp_path):
    gens = tmp_path / "ab.json"
    gens.write_text(json.dumps({"generators": [
        {"name": n, "matrix": [["1", "0"], [str(i), "1"]]} for i, n in ((2, "a"), (4, "ab"))
    ]}), encoding="utf-8")
    argv = ["tree", "length", "--gens", str(gens), "--p", "2", "--word"]
    for word in ("aB", "Ab"):
        code, out, _ = run(capsys, argv + [word])
        assert code == 2
        assert check_schema(out)["error"] == {
            "code": "parameter", "message": f"unknown generator {word!r}"}
    for word, inverse in (("A", "a^-1"), ("AB", "ab^-1")):
        code, out, _ = run(capsys, argv + [word])
        assert code == 0
        assert check_schema(out)["results"][0]["reduced"] == inverse


def test_tree_orbit_rejects_composite_p(capsys):
    code, out, _ = run(capsys, ["tree", "orbit", "--q", "1/2", "--p", "6", "--radius", "2"])
    assert code == 2
    check_schema(out)


def test_traces_needs_primes_for_integral_gens(capsys):
    code, out, _ = run(capsys, ["diag", "traces", "--q", "4", "--max-len", "3"])
    assert code == 2
    doc = check_schema(out)
    assert "--primes" in doc["error"]["message"]


def test_traces_csv_matches_json(capsys, tmp_path):
    out_csv = tmp_path / "hits.csv"
    code, out, _ = run(
        capsys,
        ["diag", "traces", "--q", "1/2", "--max-len", "4", "--csv", str(out_csv)],
    )
    assert code == 0
    doc = check_schema(out)
    hits = doc["results"][0]["hits"]
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["word", "length", "trace", "v2"]
    assert len(rows) == len(hits) + 1
    for row, hit in zip(rows[1:], hits):
        assert row[0] == hit["word"]
        assert int(row[1]) == hit["length"]
        assert row[2] == hit["trace"]
        assert row[3] == hit["valuations"]["2"]


def test_traces_rejects_an_unwritable_csv_before_the_scan(capsys, monkeypatch, tmp_path):
    def scan(*args):
        raise AssertionError("the scan ran before the CSV path was checked")

    monkeypatch.setattr("commlab.cli.integral_trace_scan", scan)
    path = str(tmp_path / "missing" / "x.csv")
    code, out, _ = run(capsys, ["diag", "traces", "--builtin", "long-reid", "--max-len", "9",
                                "--csv", path])
    assert code == 2
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": f"cannot write CSV file: [Errno 2] No such file or directory: '{path}'",
    }


class _FullFile(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def test_a_failed_csv_write_is_a_parameter_error(capsys, monkeypatch):
    # the open succeeds and the write fails, as on a full disk
    monkeypatch.setattr("commlab.cli.open", lambda *args, **kwargs: _FullFile(), raising=False)
    code, out, err = run(capsys, ["diag", "traces", "--builtin", "long-reid", "--max-len", "4",
                                  "--csv", "hits.csv"])
    assert (code, err) == (2, "")
    assert check_schema(out)["error"] == {
        "code": "parameter",
        "message": "cannot write CSV file: [Errno 28] No space left on device",
    }


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_a_csv_on_a_full_device_is_a_parameter_error():
    proc = subprocess.run(
        [sys.executable, "-m", "commlab.cli", "diag", "traces", "--builtin", "long-reid",
         "--max-len", "4", "--csv", "/dev/full"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert check_schema(proc.stdout)["error"] == {
        "code": "parameter",
        "message": "cannot write CSV file: [Errno 28] No space left on device",
    }


def test_probe_rejects_entries_outside_s(capsys):
    code, out, _ = run(capsys, ["diag", "probe", "--builtin", "long-reid", "--p", "5"])
    assert code == 2
    doc = check_schema(out)
    assert "denominator" in doc["error"]["message"]


def test_probe_without_decisive_pass(capsys):
    # a is parabolic over R, so check (1) fails and no message is attached
    code, out, _ = run(capsys, ["diag", "probe", "--q", "1/2", "--p", "2"])
    assert code == 0
    doc = check_schema(out)
    res = doc["results"][0]
    assert res["decisive_pass"] is False
    assert res["message"] is None


def test_irreducible_decides_a_bounded_place_without_a_radius(capsys, tmp_path):
    # no word of length <= 2 is loxodromic at 3, so the group is bounded
    # there (Serre) and the place is compact; a radius-3 orbit search left
    # this place inconclusive. The pair is a conjugate of SL(2, Z) = Delta_1.
    gens = tmp_path / "conjugated_orbit.json"
    gens.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["1", "1/6561"], ["0", "1"]]},
        {"name": "b", "matrix": [["10", "-1/81"], ["6561", "-8"]]},
    ]}), encoding="utf-8")
    code, out, _ = run(capsys, ["diag", "irreducible", "--gens", str(gens)])
    assert code == 0
    doc = check_schema(out)
    assert doc["params"]["max_len"] == 6 and "radius" not in doc["params"]
    real, p3 = doc["results"][0]["places"]
    assert (p3["place"], p3["verdict"], p3["rule"], p3["word"], p3["classification"], p3["max_len"]) == (
        "3", "compact", "serre-lemma", None, None, None)
    assert (real["verdict"], real["rule"], real["q"], real["n"]) == ("discrete", "knapp", "1", 3)
    assert doc["results"][0]["conditional_notes"] == [] and doc["witnesses"] == []


def test_irreducible_classifies_the_loxodromic_of_an_inconclusive_prime(capsys):
    # diag(2, 1/2) is loxodromic at 2 with translation length 2, and so is
    # every infinite-order word: the place is unknown, its word classified
    gens = str(REPO / "tests" / "data" / "diagonal_2.json")
    code, out, _ = run(capsys, ["diag", "irreducible", "--gens", gens])
    assert code == 0
    doc = check_schema(out)
    real, p2 = doc["results"][0]["places"]
    loxodromic = {"kind": "loxodromic", "note": None, "order": None, "translation_length": 2}
    assert (p2["place"], p2["verdict"], p2["rule"], p2["word"], p2["classification"], p2["max_len"]) == (
        "2", "unknown", "scan", "d", loxodromic, 6)
    assert doc["witnesses"] == [{"word": "d", "matrix": [["2", "0"], ["0", "1/2"]],
                                 "classification": loxodromic}]


def test_irreducible_exits_zero_even_when_inconclusive(capsys):
    # q = 1: SL(2, Z), discrete by Knapp with no scan and no witnesses
    code, out, _ = run(capsys, ["diag", "irreducible", "--q", "1", "--max-len", "4"])
    assert code == 0
    doc = check_schema(out)
    places = doc["results"][0]["places"]
    assert [p["place"] for p in places] == ["real"]
    assert (places[0]["verdict"], places[0]["rule"], places[0]["n"], places[0]["max_len"]) == (
        "discrete", "knapp", 3, None)


def _sl2z_conjugate(tmp_path):
    # SL(2, Z) = Delta_1 conjugated by [[2, 1], [0, 1]]: denominators 2
    gens = tmp_path / "sl2z_conjugate.json"
    gens.write_text(json.dumps({"generators": [
        {"name": "a", "matrix": [["3/2", "-1/2"], ["1/2", "1/2"]]},
        {"name": "b", "matrix": [["1", "2"], ["0", "1"]]},
    ]}), encoding="utf-8")
    return str(gens)


@pytest.mark.parametrize("argv,expected,note", [
    (["--q", "9/2"], [("real", "discrete", "ping-pong", None, "9/2", None, None),
                      ("2", "indiscrete", "scan", "a", None, None, 6)], False),
    (["--gens", "{sl2z}"], [("real", "discrete", "knapp", None, "1", 3, None),
                            ("2", "compact", "serre-lemma", None, None, None, None)], False),
    (["--q", "7/2", "--max-len", "1"], [("real", "indiscrete", "knapp", None, "7/2", None, 1),
                                        ("2", "indiscrete", "scan", "a", None, None, 1)], True),
    (["--builtin", "long-reid"], [("real", "unknown", "scan", None, None, None, 6),
                                  ("2", "indiscrete", "scan", "a", None, None, 6),
                                  ("3", "indiscrete", "scan", "b", None, None, 6)], True),
])
def test_irreducible_place_verdicts(capsys, tmp_path, argv, expected, note):
    # a theorem decides first: ping-pong and Knapp at the real place, Serre's
    # lemma at p; the Greenberg-Shalom note reads only those verdicts and the density
    argv = [_sl2z_conjugate(tmp_path) if a == "{sl2z}" else a for a in argv]
    code, out, _ = run(capsys, ["diag", "irreducible", *argv])
    assert code == 0
    res = check_schema(out)["results"][0]
    keys = ("place", "verdict", "rule", "word", "q", "n", "max_len")
    assert [tuple(st[k] for k in keys) for st in res["places"]] == expected
    assert bool(res["conditional_notes"]) == note
    assert res["density"]["verdict"] == "dense"


def test_the_schema_rejects_a_malformed_place_verdict(capsys):
    if jsonschema is None:
        pytest.skip("jsonschema is not installed")
    code, out, _ = run(capsys, ["diag", "irreducible", "--q", "1/2"])
    assert code == 0
    doc = check_schema(out)
    for change in ({"verdict": "indiscrete-witness"}, {"note": "prose"}, {"max_len": "6"}, {"rule": None}):
        bad = json.loads(out)
        bad["results"][0]["places"][1].update(change)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, SCHEMA)
    code, out, _ = run(capsys, ["diag", "probe", "--gens", str(REPO / "tests" / "data" / "probe_pair.json"),
                                "--p", "2"])
    bad = check_schema(out)
    del bad["results"][0]["checks"][2]["data"]["verdict"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, SCHEMA)
    assert doc["results"][0]["places"][0]["verdict"] == "indiscrete"


# ---------------------------------------------------------------- argv parser

def test_negative_option_values(capsys):
    reports = []
    for argv in (["--q", "-9/2"], ["--q=-9/2"]):
        code, out, _ = run(capsys, ["lu", "pingpong", *argv])
        assert code == 0
        reports.append(normalize(out))
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["params"]["q"] == "-9/2"


def test_a_repeated_option_keeps_its_last_value(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, ["lu", "knapp", "--q", "5", "--q", "x", "--q", "2"])
    assert code == 0
    assert normalize(out) == (GOLDEN / "knapp_q2.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, expect", [
    ([], ["Usage: commlab GROUP COMMAND [OPTIONS]", "Exact-arithmetic lab", "Exit codes",
          "lu ", "tree ", "diag "]),
    (["lu"], ["Usage: commlab lu COMMAND [OPTIONS]", "Two-parabolic groups",
              "knapp ", "pingpong ", "relators "]),
    (["diag", "probe", "--p", "2"], ["Usage: commlab diag probe [OPTIONS]",
                                     "--builtin long-reid", "--p INTEGER [required]",
                                     "--p INTEGER [required] --help"]),
])
def test_help_at_each_level(capsys, argv, expect):
    code, out, _ = run(capsys, argv + ["--help"])
    assert code == 0
    out = " ".join(out.split())
    for text in expect:
        assert text in out


@pytest.mark.parametrize("argv, message", [
    ([], "missing group: one of lu, tree, diag"),
    (["nope"], "no such group 'nope'"),
    (["lu"], "missing command: one of knapp, pingpong, relators"),
    (["lu", "nope"], "no such command 'nope'"),
    (["lu", "knapp"], "missing option '--q'"),
    (["lu", "knapp", "--x", "1"], "no such option '--x'"),
    (["lu", "knapp", "--x=1"], "no such option '--x'"),
    (["lu", "knapp", "-q", "2"], "no such option '-q'"),
    (["lu", "knapp", "--q"], "option '--q' needs a value"),
    (["tree", "orbit", "--q", "1/2", "--p", "x", "--radius", "2"], "--p must be an integer, got 'x'"),
    (["tree", "orbit", "--q", "1/2", "--p=2", "--radius=1e3"],
     "--radius must be an integer, got '1e3'"),
    (["diag", "places", "--builtin", "foo"], "--builtin must be one of long-reid, got 'foo'"),
    (["lu", "knapp", "--q", "2", "extra"], "unexpected argument 'extra'"),
    (["diag", "irreducible", "--q", "1/2", "--radius", "3"], "no such option '--radius'"),
    (["diag", "probe", "--q", "1/2", "--p", "2", "--max-word-len", "6"],
     "no such option '--max-word-len'"),
])
def test_usage_errors_name_the_token(capsys, argv, message):
    code, out, _ = run(capsys, argv)
    assert code == 2
    assert check_schema(out)["error"] == {"code": "parameter", "message": message}


# ---------------------------------------------------------------- progress

@pytest.mark.parametrize("argv, summary", [
    (["lu", "knapp"], "Knapp discreteness verdict inside the window 0 < |q| < 4."),
    (["lu", "pingpong"], "Ping-pong freeness certificate for |q| >= 4."),
    (["lu", "relators"], "Shortest relator (word with scalar image), meet-in-the-middle."),
    (["tree", "orbit"], "Bounded-orbit test for the base vertex under the generated group."),
    (["tree", "length"], "Translation length of a word on the tree at p."),
    (["diag", "places"], "Place support: primes dividing any generator denominator."),
    (["diag", "density"], "Zariski density of the generated subgroup of SL_2."),
    (["diag", "traces"], "Integral-trace scan over necklace classes of words."),
    (["diag", "irreducible"], "Per-place indiscreteness witnesses plus the product-level summary."),
    (["diag", "probe"], "Four-check probe of a candidate irreducible two-generator pair."),
])
def test_help_shows_the_command_summary(capsys, argv, summary):
    code, out, _ = run(capsys, argv + ["--help"])
    assert code == 0
    assert summary in out


def test_progress_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, ["lu", "relators", "--q", "2", "--max-len", "6"])
    assert code == 0
    assert "level 1" in err
    json.loads(out)  # stdout stays pure JSON


# ---------------------------------------------------------------- to_json

def test_to_json_renders_each_report_type():
    ab = long_reid_pair()
    m = Mat2(1, Fraction(-1, 2), 0, 3)
    assert to_json(None, ab) is None
    assert to_json(True, ab) is True
    assert to_json(-3, ab) == -3
    assert to_json("x", ab) == "x"
    assert to_json(Fraction(-6, 4), ab) == "-3/2"
    assert to_json(Fraction(4), ab) == "4"
    assert to_json(INFINITY, ab) == "inf"
    assert to_json(Word((0, 3)), ab) == format_word(Word((0, 3)), ab)
    assert to_json(m, ab) == [["1", "-1/2"], ["0", "3"]]
    assert to_json(ElementClass("loxodromic", translation_length=2), ab) == {
        "kind": "loxodromic", "order": None, "translation_length": 2, "note": None}
    assert to_json(TreeVertex(3, -2, Fraction(5, 9)), ab) == "3^-2:0"  # 5/9 is 0 mod 3^-2
    assert to_json((Fraction(1, 2), (INFINITY,)), ab) == ["1/2", ["inf"]]
    assert to_json([m], ab) == [[["1", "-1/2"], ["0", "3"]]]
    assert to_json({2: Fraction(1, 3), "k": (1,)}, ab) == {"2": "1/3", "k": [1]}


def test_frac_str_takes_a_fraction_as_it_is():
    assert frac_str(INFINITY) == "inf"
    assert frac_str(Fraction(-6, 4)) == "-3/2"
    assert frac_str(Fraction(-4)) == "-4"
    assert frac_str(7) == "7" and frac_str(-7) == "-7"
    assert frac_str("-6/4") == "-3/2"  # other types still go through Fraction
    message = f"exact entries exceed the printable digit limit ({LIMIT} digits)"
    for x in (10**LIMIT, Fraction(10**LIMIT, 3), Fraction(3, 10**LIMIT)):
        with pytest.raises(DigitLimitError) as err:
            frac_str(x)
        assert str(err.value) == message


@st.composite
def _canonical_vertices(draw):
    """A vertex at p in {2, 3, 5, 7} with u reduced to its canonical residue."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(-5, 5))
    u = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 60))) * Fraction(p) ** draw(
        st.integers(-4, 4))
    return TreeVertex(p, n, canonical_residue_oracle(u, n, p))


@given(v=_canonical_vertices())
@example(v=TreeVertex(2, -3, 0))                    # u = 0 at negative n
@example(v=TreeVertex(3, 2, Fraction(5, 9)))        # m < 0
@example(v=TreeVertex(7, -1, Fraction(3, 49)))      # m < 0 at negative n
@example(v=TreeVertex(5, 3, 10))                    # m >= 0
@settings(derandomize=True, max_examples=300, deadline=None, phases=(Phase.explicit, Phase.generate))
def test_chart_str_writes_what_to_json_writes(v):
    assert chart_str(v.p, v.chart) == f"{v.p}^{v.n}:{frac_str(v.u)}" == to_json(v, None)


def test_chart_str_refuses_a_residue_past_the_digit_limit():
    with pytest.raises(DigitLimitError) as want:
        frac_str(10**LIMIT)
    # 10^LIMIT is prime to 3; (n, m, c) with m = 0, m < 0 and m > 0
    for chart in ((3 * LIMIT, 0, 10**LIMIT), (3 * LIMIT, -2, 10**LIMIT), (3 * LIMIT, 2, 10**LIMIT)):
        with pytest.raises(DigitLimitError) as err:
            chart_str(3, chart)
        assert str(err.value) == str(want.value)


@dataclasses.dataclass(frozen=True)
class _Row:
    word: Word
    matrix: Mat2
    vertex: TreeVertex
    cls: ElementClass
    inner: object = None


def test_to_json_renders_nested_dataclasses_by_their_fields():
    ab = long_reid_pair()
    w = Word((0, 3))
    row = _Row(w, Mat2(1, Fraction(-1, 2), 0, 3), TreeVertex(3, -2, Fraction(5, 9)),
               ElementClass("parabolic"), PlaceSupport((2, 3)))
    rendered = {
        "word": format_word(w, ab),
        "matrix": [["1", "-1/2"], ["0", "3"]],
        "vertex": "3^-2:0",
        "cls": {"kind": "parabolic", "order": None, "translation_length": None, "note": None},
        "inner": {"primes": [2, 3], "includes_real": True},
    }
    assert to_json({"row": row, "rows": [row, (row,)]}, ab) == {
        "row": rendered, "rows": [rendered, [rendered]]}


def test_to_json_rejects_a_dataclass_type():
    with pytest.raises(TypeError):
        to_json(_Row, long_reid_pair())


@pytest.mark.parametrize("value", [0.5, {1, 2}, object()])
def test_to_json_rejects_unknown_types(value):
    with pytest.raises(TypeError):
        to_json(value, long_reid_pair())


# ---------------------------------------------------------------- goldens

GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
def test_golden(capsys, monkeypatch, fname):
    monkeypatch.chdir(REPO)
    code, out, _ = run(capsys, GOLDEN_CASES[fname])
    assert code == 0
    doc = check_schema(out)
    assert isinstance(doc["timing_ms"], int) and doc["timing_ms"] >= 0
    expect = (GOLDEN / fname).read_text(encoding="utf-8")
    assert normalize(out) == expect


# ---------------------------------------------------------------- CLI fuzz

def _fuzz_values():
    data, huge, prime = REPO / "tests" / "data", str(10**40), str(10**18 + 3)
    small = [str(n) for n in range(-2, 7)]
    return {
        "--q": ["2", "-9/2", "1/2", "1/3", "0", "4", "1e4300", "1e-4300", huge, "-" + huge, "1/0",
                "1/" + prime],
        "--builtin": ["long-reid"],
        "--gens": [str(data / "long_reid.json"), str(data / "probe_pair.json"), str(data),
                   str(REPO / "missing.json")],
        "--p": ["2", "3", "5", "-3", "4", prime, str(10**30)],
        "--word": ["a", "a b^2 A", "b^-1 a", "c", "a^0", "b^300000000", "-a", "a^" + "7" * 5000],
        "--primes": ["2", "2,3", "3,2", "4", "2,2", prime],
        "--max-len": small, "--radius": small[:6],
        "--mem-cap": ["1", "600", "0", "-1", huge],
        "--csv": ["hits.csv", str(REPO / "tests"), str(REPO / "missing" / "x.csv")],
    }


FUZZ_VALUES = _fuzz_values()
FUZZ_JUNK = ["", "x", "--help", "1e4300", "-" + str(10**40)]
# real commands four times as often as broken heads
FUZZ_HEADS = [[group, name] for group in GROUPS for name in COMMANDS[group]] * 4 + [
    [], ["nope"], ["lu"], ["lu", "nope"], ["--help"], ["diag", "--help"]]


def _option_tokens(flag):
    valid = FUZZ_VALUES.get(flag, [])
    values = st.sampled_from(valid * (12 // max(1, len(valid)) + 1) + FUZZ_JUNK)  # junk 1 in 4 or fewer
    return st.one_of(values.map(lambda v: [flag, v]), values.map(lambda v: [f"{flag}={v}"]))


# A stray token is never a bare value, so a stray flag consumes a flag or
# junk and every size stays within its small pool.
FUZZ_TOKENS = st.one_of(
    st.sampled_from(sorted(FUZZ_VALUES) + ["--x"]).flatmap(_option_tokens),
    st.sampled_from([["--help"], ["extra"], ["-q"], ["--"], ["--max-len"], ["--p"], [""]]),
)


@st.composite
def fuzz_argv(draw):
    """A head from the real groups and commands, then one source option, the
    required options and some optional ones of that command, and strays, in
    any order; one line in four loses its last token."""
    head = draw(st.sampled_from(FUZZ_HEADS))
    group, name = (head + ["", ""])[:2]
    _, options, _ = COMMANDS.get(group, {}).get(name, (None, (), None))
    sources = [o.flag for o in options if o.flag in ("--builtin", "--q", "--gens")]
    flags = [draw(st.sampled_from(sources))] if sources else []
    flags += [o.flag for o in options if o.flag not in sources and (o.required or draw(st.booleans()))]
    tokens = [draw(_option_tokens(f)) for f in flags]
    tokens += draw(st.one_of(st.just([]), st.lists(FUZZ_TOKENS, max_size=2)))
    argv = head + [t for ts in draw(st.permutations(tokens)) for t in ts]
    return argv[:len(argv) - draw(st.sampled_from([0, 0, 0, 1]))]  # cut short: a bare flag last


@given(argv=fuzz_argv())
@settings(derandomize=True, max_examples=300, deadline=None, phases=(Phase.generate,),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)  # where a relative --csv path is written
    code, out, _ = run(capsys, argv)
    assert code in (0, 2, 3)
    if "--help" not in argv:
        doc = check_schema(out)
        # a digit-limit overflow is reported in the project's words
        assert "set_int_max_str_digits" not in doc.get("error", {}).get("message", "")


@st.composite
def probe_argv(draw):
    """A prime p, and two det-1 matrices in SL(2, Z[1/p]), each a product of
    one to four shears by x / p^k and diagonals diag(p^k, p^-k)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    x, k = st.integers(-3, 3), st.integers(0, 2)
    letter = st.one_of(
        st.builds(lambda x, k: Mat2(1, Fraction(x, p**k), 0, 1), x, k),
        st.builds(lambda x, k: Mat2(1, 0, Fraction(x, p**k), 1), x, k),
        st.builds(lambda k: Mat2(p**k, 0, 0, Fraction(1, p**k)), k))
    pair = [functools.reduce(Mat2.__mul__, draw(st.lists(letter, min_size=1, max_size=4)))
            for _ in "gh"]
    return pair, ["diag", "probe", "--p", str(p)]


@given(case=probe_argv())
@settings(derandomize=True, max_examples=60, deadline=None, phases=(Phase.generate,),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_probe_fuzz(capsys, tmp_path, case):
    pair, argv = case
    gens = tmp_path / "pair.json"
    gens.write_text(dump_generator_file(Alphabet("gh", pair)), encoding="utf-8")
    code, out, _ = run(capsys, argv + ["--gens", str(gens)])
    assert code == 0
    (res,) = check_schema(out)["results"]
    assert [c["name"] for c in res["checks"]] == [
        "real-loxodromic-generator", "zariski-dense-pair", "real-place-indiscrete",
        "loxodromic-word-at-p"]
    density = res["checks"][1]["data"]
    assert (density["verdict"] == "dense") == (density["dimension"] == 9) == res["checks"][1]["passed"]
    real = res["checks"][2]
    assert real["passed"] == (real["data"]["verdict"] == "indiscrete")
    if real["data"]["word"] is not None:
        # the Fraction path and its Niven table, not the integer forms' form_order
        alphabet = Alphabet("gh", pair)
        assert classify_real(evaluate(parse_word(real["data"]["word"], alphabet), alphabet)).kind == (
            "elliptic-infinite-order")
    if real["data"]["rule"] == "scan":
        assert real["passed"] == (real["data"]["word"] is not None)
        assert real["data"]["max_len"] == 6
    assert res["decisive_pass"] == all(res["checks"][i]["passed"] for i in (0, 1, 3))


# ---------------------------------------------------------------- entry point

def test_the_module_entry_point_runs_without_click():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    # the benchmark's tracer wraps functions in every module once commlab.cli is imported
    probe = ("import json, sys, commlab.cli; print(json.dumps(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('click', 'commlab'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    expect = ["commlab"] + [f"commlab.{p.stem}" for p in (REPO / "src" / "commlab").glob("*.py")
                            if p.stem != "__init__"]
    assert json.loads(loaded) == sorted(expect)
    r = subprocess.run([sys.executable, "-m", "commlab.cli", *GOLDEN_CASES["knapp_q2.json"]],
                       cwd=REPO, env=env, capture_output=True, text=True)
    assert (r.returncode, r.stderr) == (0, "")
    assert normalize(r.stdout) == (GOLDEN / "knapp_q2.json").read_text(encoding="utf-8")


def test_the_package_is_only_a_namespace():
    # the modules are the API: a bare `import commlab` loads no submodule and re-exports nothing
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = ("import json, sys, commlab; print(json.dumps([sorted(m for m in sys.modules "
             "if m.startswith('commlab.')), [n for n in vars(commlab) if not n.startswith('__')]]))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert json.loads(loaded) == [[], []]


def test_importing_the_cli_loads_no_dataclasses_inspect_or_csv():
    # dataclasses pulls in inspect, ast, dis and tokenize: milliseconds of every command's start
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    probe = ("import json, sys, commlab.cli; print(json.dumps(sorted(m for m in sys.modules "
             "if m in ('csv', 'dataclasses', 'inspect'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert json.loads(loaded) == []
