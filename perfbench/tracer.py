"""Outside-in per-layer tracing of commlab, and the traced run.

The tracer wraps public functions of commlab's modules from outside, in
every module that holds a binding to them (`from .exact_core import vp`
copies the binding into bt_tree and diagnostics), and wraps `Mat2.__mul__`
and `Mat2.inverse` on the class. The word enumerators are wrapped as
generators that time each resume. Each call is a span; a span's self time
is its duration minus the time its wrapped children cover. Spans are folded
into per-name totals in memory and written out when the run ends.

Run as a script, it executes one workload's commands in-process, alternating
untraced and traced passes until the time is up, and prints the per-layer
metrics as one JSON line:

    PYTHONPATH=src python3 perfbench/tracer.py --workload trace-scan --seed 1 --seconds 10
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import json
import os
import statistics
import sys
import time

ENUM = "words.enum"
LEVELS = 9  # relator_search levels of the mitm-free workload (max-len 18)

# span name -> (module, attribute) of the original definition
FUNCTIONS = {
    "exact_core.vp": ("commlab.exact_core", "vp"),
    "exact_core.projective_normalize": ("commlab.exact_core", "projective_normalize"),
    "words.necklace_canonical": ("commlab.words", "necklace_canonical"),
    "words.evaluate": ("commlab.words", "evaluate"),
    "lu_lab.relator_search": ("commlab.lu_lab", "relator_search"),
    "bt_tree.act": ("commlab.bt_tree", "act"),
    "bt_tree.vertex_of": ("commlab.bt_tree", "vertex_of"),
    "bt_tree.canonical_residue": ("commlab.bt_tree", "canonical_residue"),
    "bt_tree.distance": ("commlab.bt_tree", "distance"),
    "bt_tree.orbit_bounded": ("commlab.bt_tree", "orbit_bounded"),
    "diagnostics.integral_trace_scan": ("commlab.diagnostics", "integral_trace_scan"),
    "diagnostics.irreducibility_report": ("commlab.diagnostics", "irreducibility_report"),
    "diagnostics.two_gen_probe": ("commlab.diagnostics", "two_gen_probe"),
    "report.dumps_canonical": ("commlab.report", "dumps_canonical"),
    "cli.main": ("commlab.cli", "main"),
}
GENERATORS = ("iter_level", "iter_words", "iter_level_with_matrices", "iter_words_with_matrices")
METHODS = {"exact_core.mul": "__mul__", "exact_core.inverse": "inverse"}

CALLS = (
    "exact_core.mul", "exact_core.inverse", "exact_core.projective_normalize", "exact_core.vp",
    "words.necklace_canonical", "words.evaluate",
    "bt_tree.act", "bt_tree.vertex_of", "bt_tree.canonical_residue", "bt_tree.distance",
    "report.dumps_canonical",
)
SELF_ONLY = (
    "lu_lab.relator_search", "bt_tree.orbit_bounded", "diagnostics.integral_trace_scan",
    "diagnostics.irreducibility_report", "diagnostics.two_gen_probe", "cli.main",
)


def _commlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "commlab" or name.startswith("commlab."))]


class Tracer:
    """Span stack and per-name totals: calls, total seconds, self seconds."""

    def __init__(self):
        self.stack = []   # [name, start, seconds covered by children]
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(
            ("enum_words", "table_entries", "relator_words", "relator_images",
             "orbit_acts", "orbit_new", "scan_words", "scan_classes", "report_bytes"), 0)
        self.level_s = {}
        self._restore = []

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, covered = self.stack.pop()
        duration = time.perf_counter() - start
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0, 0.0, 0.0]
        t[0] += 1
        t[1] += duration
        t[2] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    def calls(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def wrap_generator(self, fn):
        """Time each resume of the enumerator as a words.enum span. Words are
        counted once, at the outermost enumerator."""
        stack, enter, exit_, counters = self.stack, self.enter, self.exit, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                outermost = not stack or stack[-1][0] != ENUM
                enter(ENUM)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_()
                if outermost:
                    counters["enum_words"] += 1
                yield item

        return wrapper

    def _relator_search(self, fn):
        """Per-level wall time from the progress callback, table size and
        distinct-image counts from the result."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def adapter(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            user = bound.arguments.get("progress")
            mark = [time.perf_counter()]
            table_size = [0]

            def progress(level, words, table):
                now = time.perf_counter()
                self.level_s[level] = self.level_s.get(level, 0.0) + now - mark[0]
                mark[0] = now
                table_size[0] = table
                if user is not None:
                    user(level, words, table)

            bound.arguments["progress"] = progress
            res = fn(*bound.args, **bound.kwargs)
            self.counters["table_entries"] += table_size[0]
            self.counters["relator_words"] += sum(res.words_per_length.values())
            self.counters["relator_images"] += sum(res.images_per_length.values())
            return res

        return adapter

    def _orbit_bounded(self, fn):
        """New vertices (each gets one distance call) over act calls."""

        @functools.wraps(fn)
        def adapter(*args, **kwargs):
            acts, dists = self.calls("bt_tree.act"), self.calls("bt_tree.distance")
            res = fn(*args, **kwargs)
            self.counters["orbit_acts"] += self.calls("bt_tree.act") - acts
            self.counters["orbit_new"] += self.calls("bt_tree.distance") - dists
            return res

        return adapter

    def _integral_trace_scan(self, fn):
        """Necklace classes over words walked."""

        @functools.wraps(fn)
        def adapter(*args, **kwargs):
            words = self.counters["enum_words"]
            res = fn(*args, **kwargs)
            self.counters["scan_words"] += self.counters["enum_words"] - words
            self.counters["scan_classes"] += sum(res.classes_per_length.values())
            return res

        return adapter

    def _dumps_canonical(self, fn):
        @functools.wraps(fn)
        def adapter(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counters["report_bytes"] += len(out.encode("utf-8"))
            return out

        return adapter

    # -- install -----------------------------------------------------------

    def install(self):
        """Wrap every target and rebind it in every commlab module that holds
        it. Returns the map id(original) -> (original, wrapper)."""
        import commlab.cli  # noqa: F401  (loads every module of the package)
        from commlab.exact_core import Mat2

        adapters = {
            "lu_lab.relator_search": self._relator_search,
            "bt_tree.orbit_bounded": self._orbit_bounded,
            "diagnostics.integral_trace_scan": self._integral_trace_scan,
            "report.dumps_canonical": self._dumps_canonical,
        }
        replace = {}
        for name, (module, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules[module], attr)
            adapt = adapters.get(name)
            replace[id(fn)] = (fn, self.wrap(name, adapt(fn) if adapt else fn))
        words = sys.modules["commlab.words"]
        for attr in GENERATORS:
            fn = getattr(words, attr)
            replace[id(fn)] = (fn, self.wrap_generator(fn))
        for module in _commlab_modules():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for name, attr in METHODS.items():
            fn = vars(Mat2)[attr]
            self._restore.append((Mat2, attr, fn))
            setattr(Mat2, attr, self.wrap(name, fn))
            replace[id(fn)] = (fn, vars(Mat2)[attr])
        return replace

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- metrics -----------------------------------------------------------

    def metrics(self):
        c = self.counters
        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.self_s"] = self.self_s(name)
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self.self_s(name)
        out["words.enum.words"] = c["enum_words"]
        out["words.enum.self_s"] = self.self_s(ENUM)
        for level in range(1, LEVELS + 1):
            out[f"lu_lab.level_s.{level}"] = self.level_s.get(level, 0.0)
        out["lu_lab.table_entries"] = c["table_entries"]
        out["lu_lab.distinct_image_ratio"] = _ratio(c["relator_images"], c["relator_words"])
        out["bt_tree.new_vertex_ratio"] = _ratio(c["orbit_new"], c["orbit_acts"])
        out["diagnostics.class_ratio"] = _ratio(c["scan_classes"], c["scan_words"])
        out["report.bytes"] = c["report_bytes"]
        return out

    def spans(self):
        """Every span name with its calls, total and self seconds."""
        return {name: {"calls": n, "total_s": total, "self_s": own}
                for name, (n, total, own) in sorted(self.totals.items())}


def _ratio(num, den):
    """num / den, or 0.0 when the layer did no work in this workload."""
    return num / den if den else 0.0


def run_in_process(argv):
    """One CLI command in this process: (exit code, stdout)."""
    from commlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_pass(workload, tracer=None):
    """Run every command once, under the tracer if one is given, then check
    the reports. Returns (wall seconds, failures)."""
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        outputs = [run_in_process(cmd.argv) for cmd in workload.commands]
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    failures = [f"{cmd.label}: {err}" for cmd, (code, text) in zip(workload.commands, outputs)
                if (err := cmd.check(code, text))]
    return wall, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import workloads

    workload = workloads.GENERATORS[args.workload](args.seed, args.workdir)
    import commlab.cli  # noqa: F401  (imported before any pass is timed)

    untraced, traced, tracers, errors = [], [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        # Alternate which side goes first, so warm-up favours neither.
        for traced_side in (False, True) if len(traced) % 2 == 0 else (True, False):
            t = Tracer() if traced_side else None
            wall, errs = run_pass(workload, t)
            errors += errs
            (traced if traced_side else untraced).append(wall)
            if t is not None:
                tracers.append(t)
    # Counts repeat exactly from pass to pass; times are medians over passes.
    per_pass = [t.metrics() for t in tracers]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               if isinstance(value, float) else value
               for name, value in per_pass[0].items()}
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    print(json.dumps({
        "attempted": len(workload.commands) * (len(traced) + len(untraced)),
        "errors": errors,
        "passes": len(traced),
        "spans": tracers[0].spans(),
        "metrics": metrics,
    }))

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
