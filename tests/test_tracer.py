"""The benchmark's tracer still fits the code it traces.

``perfbench/tracer.py`` patches respsim functions by name, and its counters
read emulator attributes such as ``_clock_ms`` and ``_timeline``.  A rename
in ``src/`` breaks only the traced benchmark, so this installs the tracer
over one short run of each benchmarked command and checks what it records.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from respsim import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module is executing
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def respsim_attributes() -> dict:
    """Every attribute of every respsim module and of the classes they define."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "respsim" and not name.startswith("respsim."):
            continue
        for key, value in vars(module).items():
            found[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    found[name, key, attr] = member
    return found


def test_tracer_records_every_benchmarked_layer(tmp_path, monkeypatch):
    tracer_module = load_tracer(monkeypatch)
    capture = str(tmp_path / "s.bin")
    before = respsim_attributes()
    tracer = tracer_module.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        op = tracer.begin()
        assert cli.main(["simulate", "--duration", "4", "--out", capture]) == cli.EXIT_OK
        assert cli.main(["analyze", capture, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_OK
        assert cli.main(["power", "--duration", "4"]) == cli.EXIT_OK
    for name in ("session.synthesize_force", "firmware.ArrayStimulus", "firmware.run",
                 "firmware.encode_session", "protocol.split_stream",
                 "pipeline.extract_series", "pipeline.export_csv", "power.accumulate"):
        assert op.calls[name] > 0, name
    for name in ("firmware.ticks", "firmware.frames", "firmware.timeline_intervals",
                 "protocol.frames_out", "pipeline.fsr_samples", "pipeline.accel_samples",
                 "pipeline.csv_rows"):
        assert op.counts[name] > 0, name
    after = respsim_attributes()
    assert [key for key, value in before.items() if after.get(key) is not value] == []
