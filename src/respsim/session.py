"""End-to-end session runs: stimulus synthesis, ground truth, raw capture.

A session takes a :class:`~respsim.config.SessionConfig`, synthesizes the
wearer's force and accelerometer signals (piecewise breathing rates with
phase continuity, piecewise postures), drives the firmware emulator over
them, and returns the raw frame bytes plus a ground-truth record: analytic
breath instants, the battery trajectory, and the energy spent.  The truth
sidecar travels next to the capture file so analysis results can always be
scored against what actually happened.

The stimulus is synthesized at the emulator's own sampling instants:
``range(0, session_ms, period)`` per channel, with the session length from
:meth:`~respsim.firmware.FirmwareConfig.session_ms`.  Those columns go to
:meth:`~respsim.firmware.FirmwareEmulator.run` as an
:class:`~respsim.firmware.ArrayStimulus`, which must hold exactly those
instants and nothing else.  The run's frames come back as one
:class:`~respsim.protocol.FrameTable`, built from those columns and the
schedule's send columns, and :func:`~respsim.firmware.encode_session`
writes the table's bytes as byte columns, one matrix per kind and batch
size; no frame is an object on the way from the stimulus to the capture.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily; load it here, not mid-command

from ._output import open_output
from .config import ScenarioConfig, SessionConfig
from .firmware import ArrayStimulus, FirmwareEmulator, encode_session
from .power import accumulate
from .protocol import FrameTable
from .sensor import (
    ACCEL_DTYPE,
    FULL_SCALE_MG,
    ForceSample,
    _posture_base_mg,
)

TRUTH_SUFFIX = ".truth.json"


def truth_path(capture_path: str) -> str:
    return capture_path + TRUTH_SUFFIX


# ---------------------------------------------------------------------------
# analytic ground truth
# ---------------------------------------------------------------------------

def _segment_spans(segments, duration_s: float):
    """(start_s, end_s, segment) triples clipped to the session duration."""
    spans = []
    for i, seg in enumerate(segments):
        start = seg.start_s
        end = segments[i + 1].start_s if i + 1 < len(segments) else duration_s
        end = min(end, duration_s)
        if end > start:
            spans.append((start, end, seg))
    return spans


def true_breath_times_ms(scenario: ScenarioConfig, duration_s: float) -> list[float]:
    """Exact inhalation-peak instants of the synthetic breathing waveform.

    The waveform keeps phase continuous across rate changes; peaks are the
    solutions of phase = pi/2 (mod 2*pi) inside each segment, solved in
    closed form rather than read off the sampled signal.
    """
    phase = 0.0
    times: list[float] = []
    for start, end, seg in _segment_spans(scenario.breathing, duration_s):
        f = seg.rate_bpm / 60.0
        omega = 2.0 * math.pi * f
        # smallest k with peak time >= segment start (phase pi/2 + 2*pi*k)
        k = math.ceil((phase - math.pi / 2.0) / (2.0 * math.pi) - 1e-9)
        while True:
            t = start + (math.pi / 2.0 + 2.0 * math.pi * k - phase) / omega
            if t >= end - 1e-9:
                break
            if t >= start - 1e-9:
                times.append(t * 1000.0)
            k += 1
        phase += omega * (end - start)
    return times


# ---------------------------------------------------------------------------
# stimulus synthesis
# ---------------------------------------------------------------------------

def synthesize_force(cfg: SessionConfig) -> list[ForceSample]:
    """Force samples on the FSR grid for the whole breathing schedule."""
    sc = cfg.scenario
    fw = cfg.firmware
    t_ms = np.arange(0, fw.session_ms(cfg.duration_s), fw.fsr_period_ms, dtype=np.int64)
    t_s = t_ms.astype(np.float64) / 1000.0

    spans = _segment_spans(sc.breathing, cfg.duration_s)
    starts = np.array([s for s, _, _ in spans])
    omegas = np.array([2.0 * math.pi * seg.rate_bpm / 60.0 for _, _, seg in spans])
    # accumulated phase at each segment start
    phase0 = np.zeros(len(spans))
    for i in range(1, len(spans)):
        phase0[i] = phase0[i - 1] + omegas[i - 1] * (spans[i][0] - spans[i - 1][0])
    idx = np.clip(np.searchsorted(starts, t_s, side="right") - 1, 0, len(spans) - 1)
    phase = phase0[idx] + omegas[idx] * (t_s - starts[idx])

    force = sc.baseline_n + sc.amplitude_n * np.sin(phase)
    if sc.noise_sd_n > 0:
        rng = default_rng([cfg.seed, 0])
        force = force + rng.normal(0.0, sc.noise_sd_n, t_ms.size)
    force = np.maximum(force, 0.0)
    return [ForceSample(int(t), float(f)) for t, f in zip(t_ms, force)]


def synthesize_accel(cfg: SessionConfig) -> np.ndarray:
    """Accelerometer rows (``ACCEL_DTYPE``) on the accel grid for the posture schedule."""
    sc = cfg.scenario
    fw = cfg.firmware
    t_ms = np.arange(0, fw.session_ms(cfg.duration_s), fw.accel_period_ms, dtype=np.int64)
    n = t_ms.size
    base = np.zeros((n, 3), dtype=np.float64)
    for start, end, seg in _segment_spans(sc.posture, cfg.duration_s):
        sel = (t_ms >= start * 1000.0) & (t_ms < end * 1000.0)
        shift_at = (start + (end - start) / 2.0) * 1000.0
        base[sel] = _posture_base_mg(seg.posture, t_ms[sel], shift_at_ms=shift_at)
    if sc.accel_noise_sd_mg > 0:
        rng = default_rng([cfg.seed, 1])
        base = base + rng.normal(0.0, sc.accel_noise_sd_mg, (n, 3))
    mg = np.clip(np.floor(base + 0.5).astype(np.int64), -FULL_SCALE_MG, FULL_SCALE_MG)
    rows = np.empty(n, dtype=ACCEL_DTYPE)
    rows["t_ms"] = t_ms
    rows["x_mg"], rows["y_mg"], rows["z_mg"] = mg.T
    return rows


# ---------------------------------------------------------------------------
# running a session
# ---------------------------------------------------------------------------

@dataclass
class SessionResult:
    frames: FrameTable
    data: bytes
    truth: dict
    emulator: FirmwareEmulator


def run_session(cfg: SessionConfig) -> SessionResult:
    """Synthesize stimulus, run the firmware emulator, collect ground truth."""
    stimulus = ArrayStimulus(synthesize_force(cfg), synthesize_accel(cfg))

    emulator = FirmwareEmulator(
        config=cfg.firmware,
        model=cfg.device_model(),
        power_profile=cfg.power_profile(),
        initial_soc=cfg.battery.initial_soc,
        charging=cfg.battery.charging,
    )
    frames = emulator.run(stimulus, cfg.duration_s)
    data = encode_session(frames)

    report = accumulate(
        emulator.power_profile,
        emulator.activity_timeline,
        capacity_mah=cfg.battery.capacity_mah,
        nominal_v=cfg.battery.nominal_v,
    )
    truth = {
        "config": dataclasses.asdict(cfg),
        "duration_s": cfg.duration_s,
        "seed": cfg.seed,
        "breath_times_ms": true_breath_times_ms(cfg.scenario, cfg.duration_s),
        "battery": list(emulator.battery_log),  # a copy: later ticks leave it be
        "energy_mwh": emulator.energy_mwh,
        "average_power_uw": report.average_power_uw,
        "counts": {
            "frames": len(frames),
            "bytes": len(data),
            "force_samples": len(stimulus.force_n),
            "accel_samples": len(stimulus.accel),
            "battery_reports": len(emulator.battery_log),
        },
    }
    return SessionResult(frames=frames, data=data, truth=truth, emulator=emulator)


def write_capture(path: str, result: SessionResult) -> str:
    """Write raw frame bytes to ``path`` and the truth sidecar next to it.

    Returns the sidecar path.  Serialization is fully deterministic
    (sorted keys, fixed separators) so identical configs produce
    byte-identical files.  The last run's sidecar is gone before the
    capture is touched, so a capture that fails part-way is never paired
    with an old truth: it sits beside an empty sidecar.
    """
    sidecar = truth_path(path)
    with open_output(sidecar, "w", encoding="utf-8") as truth_fp:
        with open_output(path, "wb") as fp:
            fp.write(result.data)
        json.dump(result.truth, truth_fp, sort_keys=True, indent=2)
        truth_fp.write("\n")
    return sidecar


def read_truth(capture_path: str) -> dict:
    with open(truth_path(capture_path), "r", encoding="utf-8") as fp:
        return json.load(fp)
