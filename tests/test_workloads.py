"""The benchmark's workloads still pass their own correctness checks.

``perfbench/workloads.py`` pins the digests of each workload's outputs at
its default seed and imports respsim names to build its inputs.  A change
in ``src/`` that moves one of those bytes, or renames one of those names,
would otherwise show only when the benchmark runs.  So this prepares each
workload that ``BENCHMARK.json`` names, runs one operation of it and asks
the workload's own check.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from respsim import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_workloads(monkeypatch):
    # workloads.py imports its sibling score.py by bare name, so score is
    # registered under that name; both modules are unregistered after the test
    for name, module_name in (("score", "score"), ("workloads", "perfbench_workloads")):
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_output_is_correct_at_the_default_seed(name, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, tmp_path)
    workload.prepare()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(workload.argv())
    assert workload.check(code, stdout.getvalue()) == []
