"""The benchmark's tracer wraps commlab functions by name: every name it reads
must exist, and uninstalling must put every binding back."""

import importlib.util
import sys
from pathlib import Path

import commlab.cli  # noqa: F401  (loads every module of the package)
from commlab.exact_core import Mat2

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    out = {(name, attr): value for name, module in sys.modules.items()
           if name == "commlab" or name.startswith("commlab.")
           for attr, value in vars(module).items()}
    for attr in ("__mul__", "inverse"):
        out[("Mat2", attr)] = vars(Mat2)[attr]
    return out


def test_tracer_install_wraps_and_uninstall_restores_every_binding():
    tracer = _load_tracer()
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        for attr in tracer.GENERATORS:
            assert during[("commlab.words", attr)] is not before[("commlab.words", attr)]
        for module, attr in tracer.FUNCTIONS.values():
            assert during[(module, attr)] is not before[(module, attr)]
        for attr in tracer.METHODS.values():
            assert during[("Mat2", attr)] is not before[("Mat2", attr)]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
