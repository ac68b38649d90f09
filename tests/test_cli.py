"""CLI behaviour: exit codes, canonical JSON, schema conformance, goldens."""

import csv
import json
import os
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from commlab.cli import dump_generator_file, load_generator_file, main
from commlab.diagnostics import long_reid_pair
from commlab.report import dumps_canonical

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
    doc = json.loads(text)
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


def test_tree_length_bad_word(capsys):
    code, out, _ = run(
        capsys, ["tree", "length", "--q", "1/2", "--p", "2", "--word", "a c"]
    )
    assert code == 2
    check_schema(out)


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


def test_irreducible_exits_zero_even_when_inconclusive(capsys):
    # q = 1: discrete everywhere relevant, no witnesses; still a clean report
    code, out, _ = run(capsys, ["diag", "irreducible", "--q", "1", "--max-len", "4"])
    assert code == 0
    doc = check_schema(out)
    places = doc["results"][0]["places"]
    assert [p["place"] for p in places] == ["real"]
    assert places[0]["status"] == "inconclusive"


# ---------------------------------------------------------------- threads

def test_thread_count_never_changes_output(capsys, monkeypatch):
    argv = ["lu", "relators", "--q", "1", "--max-len", "8"]
    monkeypatch.setenv("COMMLAB_THREADS", "1")
    code1, out1, _ = run(capsys, argv)
    monkeypatch.setenv("COMMLAB_THREADS", "4")
    code4, out4, _ = run(capsys, argv)
    assert code1 == code4 == 0
    assert normalize(out1) == normalize(out4)


def test_bad_thread_env(capsys, monkeypatch):
    monkeypatch.setenv("COMMLAB_THREADS", "zero")
    code, out, _ = run(capsys, ["lu", "relators", "--q", "1", "--max-len", "4"])
    assert code == 2
    check_schema(out)


def test_progress_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, ["lu", "relators", "--q", "2", "--max-len", "6"])
    assert code == 0
    assert "level 1" in err
    json.loads(out)  # stdout stays pure JSON


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
