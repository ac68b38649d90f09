"""The benchmark's output checks pass on today's program: every workload
command, run in-process from the repository root, gets a report its check
accepts."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from commlab.cli import main

REPO = Path(__file__).resolve().parent.parent
WORKLOADS = REPO / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_every_workload_check_accepts_the_report(name, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    workload = workloads.GENERATORS[name](seed, str(tmp_path))
    assert workload.commands
    for command in workload.commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(command.argv))
        assert command.check(code, out.getvalue()) is None, command.label
