"""The benchmark's own tests. Run from the repository root with either

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They check that the generators are deterministic and seed-invariant on small
sizes, that os.wait4 gives per-child figures, and that the tracer rebinds
every module attribute bound to a wrapped function.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work", "selftest")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)


def _workdir(name):
    path = os.path.join(WORKDIR, name)
    os.makedirs(path, exist_ok=True)
    return path


def _passes(workload):
    for cmd in workload.commands:
        code, text = tracer.run_in_process(cmd.argv)
        err = cmd.check(code, text)
        assert err is None, f"{workload.name} {cmd.label}: {err}"


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_generators_are_deterministic():
    a, b = _workdir("det-a"), _workdir("det-b")
    for make in (workloads.mitm_free, workloads.trace_scan, workloads.tree_orbit):
        for seed in SEEDS:
            argv_a = [tuple(x.replace(a, "") for x in c.argv) for c in make(seed, a).commands]
            argv_b = [tuple(x.replace(b, "") for x in c.argv) for c in make(seed, b).commands]
            assert argv_a == argv_b
    for name in ("trace-scan-gens.json", "tree-orbit-gens.json"):
        assert _file_bytes(os.path.join(a, name)) == _file_bytes(os.path.join(b, name))
    orders = {tuple(c.label for c in workloads.golden_mix(s, a).commands) for s in range(8)}
    assert len(orders) > 1 and len({frozenset(o) for o in orders}) == 1
    conjugators = {workloads.random_sl2z(random.Random(s)) for s in range(8)}
    assert len(conjugators) > 1


def test_generators_are_seed_invariant_on_small_sizes():
    base = _workdir("small")
    code, text = tracer.run_in_process(
        ("diag", "traces", "--builtin", "long-reid", "--primes", "2,3", "--max-len", "5"))
    assert code == 0
    reference = json.loads(text)["results"][0]
    for key in ("1", "2", "3", "4", "5"):
        assert reference["classes_per_length"][key] == workloads.TRACE_CLASSES_9[key]
    for seed in SEEDS:
        _passes(workloads.mitm_free(seed, base, max_len=8))
        _passes(workloads.tree_orbit(seed, base, k=3))
        _passes(workloads.trace_scan(seed, base, max_len=5,
                                     classes=reference["classes_per_length"],
                                     hits=reference["hits"]))
    _passes(workloads.golden_mix(SEEDS[0], base))


def test_checks_reject_wrong_reports():
    w = workloads.tree_orbit(1, _workdir("reject"), k=3)
    check = w.commands[0].check
    assert check(3, "{}") is not None
    assert check(0, "not json") is not None
    code, text = tracer.run_in_process(("tree", "orbit", "--q", "1/2", "--p", "2", "--radius", "3"))
    assert check(code, text) is not None


def test_wait4_gives_per_child_figures():
    work = _workdir("wait4")
    env = child.cli_env(os.path.join(ROOT, "src"))

    def run(code):
        return child.run((sys.executable, "-c", code), env, os.path.join(work, "out.txt"),
                         os.path.join(work, "err.txt"), 60)

    big = run("b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096]); print(len(b))")
    small = run("import sys; sys.exit(3)")
    assert big.code == 0 and big.stdout.strip() == str(64 << 20)
    assert big.peak_rss_mb > 64
    assert small.code == 3
    assert small.peak_rss_mb < big.peak_rss_mb - 32  # not the maximum over all children


def test_child_is_killed_at_its_timeout():
    work = _workdir("timeout")
    r = child.run((sys.executable, "-c", "import time; time.sleep(30)"), dict(os.environ),
                  os.path.join(work, "out.txt"), os.path.join(work, "err.txt"), 0.5)
    assert r.code < 0 and r.wall_s < 10


def test_every_binding_points_to_its_wrapper():
    from commlab.exact_core import Mat2

    t = tracer.Tracer()
    replaced = t.install()
    originals = {key: fn for key, (fn, _) in replaced.items()}
    wrappers = {id(w) for _, w in replaced.values()}
    try:
        modules = {m.__name__: m for m in tracer._commlab_modules()}
        for module in modules.values():
            for attr, value in vars(module).items():
                assert originals.get(id(value)) is not value, \
                    f"{module.__name__}.{attr} still bound to the unwrapped function"
        for module, attr in [
            ("commlab.bt_tree", "vp"), ("commlab.diagnostics", "vp"),
            ("commlab.lu_lab", "projective_normalize"), ("commlab.lu_lab", "iter_level_with_matrices"),
            ("commlab.bt_tree", "iter_words_with_matrices"),
            ("commlab.diagnostics", "iter_words_with_matrices"),
            ("commlab.lu_lab", "necklace_canonical"), ("commlab.diagnostics", "necklace_canonical"),
            ("commlab.cli", "relator_search"), ("commlab.cli", "dumps_canonical"), ("commlab", "vp"),
        ]:
            assert id(getattr(modules[module], attr)) in wrappers, f"{module}.{attr} is not wrapped"
        assert id(vars(Mat2)["__mul__"]) in wrappers and id(vars(Mat2)["inverse"]) in wrappers
    finally:
        t.uninstall()
    for module in tracer._commlab_modules():
        assert not any(id(v) in wrappers for v in vars(module).values())
    assert id(vars(Mat2)["__mul__"]) in originals and id(vars(Mat2)["inverse"]) in originals


def test_traced_counts_follow_the_layers():
    base = _workdir("traced")
    t = tracer.Tracer()
    _, errors = tracer.run_pass(workloads.mitm_free(1, base, max_len=8), t)
    assert not errors
    m = t.metrics()
    assert m["words.necklace_canonical.calls"] == 0 and m["bt_tree.act.calls"] == 0
    assert m["lu_lab.table_entries"] == workloads.reduced_words(2, 4)
    assert m["lu_lab.distinct_image_ratio"] == 1.0
    assert m["exact_core.projective_normalize.calls"] == 2 * (workloads.reduced_words(2, 4) - 1) + 1
    t = tracer.Tracer()
    _, errors = tracer.run_pass(workloads.tree_orbit(1, base, k=3), t)
    assert not errors
    m = t.metrics()
    assert m["bt_tree.act.calls"] == 4 * 36 and m["bt_tree.new_vertex_ratio"] == 35 / 144
    assert m["words.enum.words"] == 0 and m["report.bytes"] > 0


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as e:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(e).__name__}: {e}")
    sys.exit(1 if failed else 0)
