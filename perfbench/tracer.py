"""Span tracer that wraps respsim's public functions from the outside.

Nothing under ``src/`` is edited: :class:`Tracer` replaces module and class
attributes with timing wrappers while it is installed and puts the
originals back when it is removed.  respsim modules import names with
``from .x import y``, so a function is patched in every respsim module that
holds a reference to it, not only where it is defined.

Every call records its self time (duration minus the time covered by
wrapped callees) and call count under the target's name.  The duration
runs from the wrapper's entry to its last clock reading, so the wrapper's
bookkeeping counts as the target's time, not its caller's; only the
updates that use the final reading fall outside it.  Calls to coarse
targets also record a span ``(id, parent id, op, name, start, end)``;
targets marked ``hot`` run thousands of times per operation, so they are
aggregated only.  Counts at each boundary come from small hooks that read
the call's arguments or result.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable


def _len_result(key):
    def count(args, result, counts):
        counts[key] += len(result)
    return count


def _count_run(args, frames, counts):
    emu = args[0]
    # run() boots the clock at 0, so this is the ticks the emulator stepped
    counts["firmware.ticks"] += emu._clock_ms // emu.config.tick_ms
    counts["firmware.frames"] += len(frames)
    counts["firmware.timeline_intervals"] += len(emu._timeline)


def _count_split(args, result, counts):
    frames, resyncs, _pending = result
    counts["protocol.bytes_in"] += len(args[0])
    counts["protocol.frames_out"] += len(frames)
    counts["protocol.resyncs"] += len(resyncs)
    counts["protocol.skipped_bytes"] += sum(ev.skipped for ev in resyncs)


def _count_series(args, series, counts):
    counts["pipeline.fsr_samples"] += len(series.fsr)
    counts["pipeline.accel_samples"] += len(series.accel)


def _count_accumulate(args, report, counts):
    counts["power.accumulate.intervals"] += len(args[1])


def _count_artifacts(args, mask, counts):
    counts["pipeline.artifact_intervals"] += len(mask.intervals)


def _count_csv(args, rows, counts):
    counts["pipeline.csv_rows"] += rows


@dataclass(frozen=True)
class Target:
    """One traced boundary: where the original lives and how to count it."""

    name: str                 # reported name, "<layer>.<function>"
    module: str               # defining module, e.g. "respsim.firmware"
    attr: str                 # attribute path in that module, e.g. "FirmwareEmulator.run"
    hot: bool = False         # aggregate only, record no spans
    count: Callable | None = None


TARGETS = (
    Target("cli.main", "respsim.cli", "main"),
    Target("cli.command", "respsim.cli", "cmd_simulate"),
    Target("cli.command", "respsim.cli", "cmd_analyze"),
    Target("cli.command", "respsim.cli", "cmd_power"),
    Target("config.load_config", "respsim.config", "load_config"),
    Target("session.run_session", "respsim.session", "run_session"),
    Target("session.synthesize_force", "respsim.session", "synthesize_force"),
    Target("session.synthesize_accel", "respsim.session", "synthesize_accel"),
    Target("session.true_breath_times_ms", "respsim.session", "true_breath_times_ms"),
    Target("session.write_capture", "respsim.session", "write_capture"),
    Target("firmware.ArrayStimulus", "respsim.firmware", "ArrayStimulus"),
    Target("firmware.run", "respsim.firmware", "FirmwareEmulator.run", count=_count_run),
    Target("firmware.activity_timeline", "respsim.firmware",
           "FirmwareEmulator.activity_timeline"),
    Target("firmware.encode_session", "respsim.firmware", "encode_session",
           count=_len_result("firmware.bytes")),
    Target("sensor.fsr_resistance", "respsim.sensor", "fsr_resistance", hot=True),
    Target("sensor.divider_voltage", "respsim.sensor", "divider_voltage", hot=True),
    Target("sensor.adc_quantize", "respsim.sensor", "adc_quantize", hot=True),
    Target("power.accumulate", "respsim.power", "accumulate", count=_count_accumulate),
    Target("protocol.split_stream", "respsim.protocol", "split_stream", count=_count_split),
    Target("pipeline.analyze_session", "respsim.pipeline", "analyze_session"),
    Target("pipeline.extract_series", "respsim.pipeline", "extract_series",
           count=_count_series),
    Target("pipeline.detect_breaths", "respsim.pipeline", "detect_breaths",
           count=_len_result("pipeline.breaths")),
    Target("pipeline.detect_motion_artifacts", "respsim.pipeline", "detect_motion_artifacts",
           count=_count_artifacts),
    Target("pipeline.estimate_rate", "respsim.pipeline", "estimate_rate"),
    Target("pipeline.detect_apnea", "respsim.pipeline", "detect_apnea"),
    Target("pipeline.summarize", "respsim.pipeline", "summarize"),
    Target("pipeline.export", "respsim.pipeline", "export"),
    Target("pipeline.export_csv", "respsim.pipeline", "export_csv", count=_count_csv),
)

TARGET_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))
COUNT_NAMES = (
    "firmware.ticks", "firmware.frames", "firmware.bytes", "firmware.timeline_intervals",
    "power.accumulate.intervals", "protocol.bytes_in", "protocol.frames_out",
    "protocol.resyncs", "protocol.skipped_bytes", "pipeline.fsr_samples",
    "pipeline.accel_samples", "pipeline.breaths", "pipeline.artifact_intervals",
    "pipeline.csv_rows",
)


class OpTrace:
    """Self times, call counts and boundary counts of one traced operation."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)


class Tracer:
    """Install with ``with tracer:``; start each operation with :meth:`begin`."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.op: OpTrace = OpTrace()
        self._op_index = -1
        self._stack: list[list] = []   # [span id, child seconds]
        self._next_id = 1
        self._saved: list[tuple[Any, str, Any]] = []

    def begin(self) -> OpTrace:
        self.op = OpTrace()
        self._op_index += 1
        return self.op

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, hot, count = target.name, target.hot, target.count
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            # The clock brackets the wrapper's own bookkeeping too, so its
            # cost is charged to this target and not to the caller.
            start = clock()
            parent = stack[-1][0] if stack else 0
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            op = self.op
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result, op.counts)
            finally:
                stack.pop()
                op.calls[name] += 1
                end = clock()
                dur = end - start
                op.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if not hot:
                    spans.append((span_id, parent, self._op_index, name, start, end))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "respsim" or n.startswith("respsim.")) and m is not None]
        for target in TARGETS:
            owner = sys.modules[target.module]
            *path, attr = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(target, original.fget))
                self._patch(owner, attr, wrapped)
                continue
            wrapped = self._wrap(target, original)
            if path:  # a method: patching the class covers every caller
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
