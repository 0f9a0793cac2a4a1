"""Session orchestration: schedules, analytic truth, capture round trips."""

import json
import math

import numpy as np
import pytest

from respsim.config import SessionConfig, from_dict
from respsim.pipeline import analyze_session
from respsim.protocol import FrameKind, split_stream
from respsim.session import (
    read_truth,
    run_session,
    synthesize_accel,
    synthesize_force,
    true_breath_times_ms,
    truth_path,
    write_capture,
)
from tests.test_firmware import ConstantStimulus, tick_on


def cfg_with(**top):
    return from_dict(top)


# ---------------------------------------------------------------------------
# analytic breath truth
# ---------------------------------------------------------------------------

def test_truth_matches_single_rate_peaks():
    cfg = cfg_with(rate_bpm=15, duration_s=60)
    times = true_breath_times_ms(cfg.scenario, cfg.duration_s)
    assert times == pytest.approx([1000.0 + 4000.0 * k for k in range(15)])


def test_truth_counts_against_dense_grid_oracle():
    # brute-force maxima of the phase-continuous waveform on a 1 ms grid
    cfg = cfg_with(
        duration_s=120,
        scenario={
            "breathing": [
                {"start_s": 0, "rate_bpm": 12},
                {"start_s": 50, "rate_bpm": 30},
                {"start_s": 90, "rate_bpm": 8},
            ]
        },
    )
    spans = [(0.0, 50.0, 12.0), (50.0, 90.0, 30.0), (90.0, 120.0, 8.0)]
    t = np.arange(0, 120_000) / 1000.0
    phase = np.zeros_like(t)
    phi = 0.0
    for start, end, bpm in spans:
        omega = 2 * math.pi * bpm / 60.0
        sel = (t >= start) & (t < end)
        phase[sel] = phi + omega * (t[sel] - start)
        phi += omega * (end - start)
    wave = np.sin(phase)
    maxima = np.flatnonzero((wave[1:-1] > wave[:-2]) & (wave[1:-1] > wave[2:])) + 1
    truth = true_breath_times_ms(cfg.scenario, cfg.duration_s)
    assert len(truth) == len(maxima)
    assert truth == pytest.approx(t[maxima] * 1000.0, abs=2.0)


def test_truth_keeps_a_peak_on_a_segment_start():
    # 15 bpm peaks at 1, 5 and 9 s, and the second segment starts at 5 s
    cfg = cfg_with(
        duration_s=10,
        scenario={"breathing": [{"start_s": 0, "rate_bpm": 15},
                                {"start_s": 5, "rate_bpm": 15}]},
    )
    assert true_breath_times_ms(cfg.scenario, cfg.duration_s) == [1000.0, 5000.0, 9000.0]


def test_phase_continuity_across_rate_change():
    # no double peak or dropout at the segment boundary
    cfg = cfg_with(
        duration_s=60,
        scenario={"breathing": [{"start_s": 0, "rate_bpm": 10},
                                {"start_s": 30, "rate_bpm": 20}]},
    )
    times = np.array(true_breath_times_ms(cfg.scenario, cfg.duration_s))
    gaps = np.diff(times)
    assert gaps.min() > 2000.0          # never closer than the faster period
    assert gaps.max() < 6500.0          # never a skipped breath


# ---------------------------------------------------------------------------
# stimulus synthesis
# ---------------------------------------------------------------------------

def test_posture_schedule_switches_mid_run():
    cfg = cfg_with(
        duration_s=20,
        scenario={
            "accel_noise_sd_mg": 0.0,
            "posture": [{"start_s": 0, "posture": "still"},
                        {"start_s": 10, "posture": "walking"}],
        },
    )
    rows = synthesize_accel(cfg)
    first_half = rows[rows["t_ms"] < 10_000]
    second_half = rows[rows["t_ms"] >= 10_000]
    assert (first_half["z_mg"] == 1000).all()
    assert (abs(second_half["z_mg"] - 1000) == 300).all()


def test_stimulus_is_synthesized_where_the_emulator_samples():
    # 1.01 s is a whole number of milliseconds but not of samples at 25 Hz
    cfg = cfg_with(duration_s=1.01)
    force, accel = synthesize_force(cfg), synthesize_accel(cfg)
    assert [s.t_ms for s in force] == list(range(0, 1010, 40))
    assert accel["t_ms"].tolist() == list(range(0, 1010, 20))
    frames = run_session(cfg).frames
    assert sum(len(f.payload.codes) for f in frames if f.kind == FrameKind.FSR_BATCH) == 26
    assert sum(len(f.payload.samples) for f in frames if f.kind == FrameKind.ACCEL_BATCH) == 51


def test_session_reproducibility():
    a = run_session(cfg_with(duration_s=10, seed=4))
    b = run_session(cfg_with(duration_s=10, seed=4))
    assert a.data == b.data
    assert json.dumps(a.truth, sort_keys=True) == json.dumps(b.truth, sort_keys=True)
    # with every noise source off, the seed stops mattering
    quiet = {"scenario": {"noise_sd_n": 0.0, "accel_noise_sd_mg": 0.0}}
    q4 = run_session(from_dict({"duration_s": 10, "seed": 4, **quiet}))
    q5 = run_session(from_dict({"duration_s": 10, "seed": 5, **quiet}))
    assert q4.data == q5.data
    noisy_a = run_session(from_dict({"duration_s": 10, "seed": 4,
                                     "scenario": {"noise_sd_n": 0.2}}))
    noisy_b = run_session(from_dict({"duration_s": 10, "seed": 5,
                                     "scenario": {"noise_sd_n": 0.2}}))
    assert noisy_a.data != noisy_b.data


# ---------------------------------------------------------------------------
# captures
# ---------------------------------------------------------------------------

def test_capture_and_truth_round_trip(tmp_path):
    cfg = cfg_with(duration_s=10, seed=1)
    result = run_session(cfg)
    out = str(tmp_path / "session.raw")
    sidecar = write_capture(out, result)
    assert sidecar == truth_path(out) == out + ".truth.json"

    data = (tmp_path / "session.raw").read_bytes()
    frames, resyncs, pending = split_stream(data)
    assert len(frames) == len(result.frames)
    assert resyncs == [] and pending == 0

    truth = read_truth(out)
    assert truth["counts"]["frames"] == len(frames)
    assert truth["seed"] == 1
    assert len(truth["battery"]) == 5
    assert truth["battery"][0]["adc_code"] == 3822


# ---------------------------------------------------------------------------
# battery truth
# ---------------------------------------------------------------------------

def test_full_charge_first_battery_row():
    row = run_session(cfg_with(duration_s=2)).truth["battery"][0]
    assert list(row) == ["t_ms", "soc", "v_terminal", "sense_v", "adc_code", "percent"]
    # 4.2 V through the 0.4 divider, inside the ADC's 1.8 V reference
    assert row["sense_v"] == 4.2 * 0.4
    assert row["adc_code"] == 3822


def test_empty_pack_first_battery_row():
    row = run_session(cfg_with(duration_s=2, battery={"initial_soc": 0})).truth["battery"][0]
    assert row["v_terminal"] == 3.3
    assert row["sense_v"] == 3.3 * 0.4


def test_battery_rows_match_the_battery_frames():
    # a drain this fast empties the 1665 mWh pack within the minute
    drain = {"p_idle_uw": 1.1e8, "p_active_uw": 1.1e8, "p_radio_uw": 1.1e8}
    result = run_session(cfg_with(duration_s=60, power=drain))
    rows = result.truth["battery"]
    payloads = [f.payload for f in result.frames if f.kind == FrameKind.BATTERY_STATUS]
    assert [(r["t_ms"], r["adc_code"], r["percent"]) for r in rows] == \
        [(p.t_ms, p.adc_code, p.percent) for p in payloads]
    assert rows[0]["percent"] == 100 and rows[-1]["percent"] == 0


def test_later_ticks_leave_the_truth_alone():
    result = run_session(cfg_with(duration_s=2))
    rows = list(result.truth["battery"])
    tick_on(result.emulator, ConstantStimulus(), result.emulator.config.battery_period_ms)
    assert len(result.emulator.battery_log) == len(rows) + 1
    assert result.truth["battery"] == rows


def test_detected_breaths_match_truth_timing(tmp_path):
    cfg = cfg_with(duration_s=60, rate_bpm=12)
    result = run_session(cfg)
    frames, _, _ = split_stream(result.data)
    analysis = analyze_session(frames)
    truth_times = result.truth["breath_times_ms"]
    assert analysis.breaths.size == len(truth_times)
    for detected, true in zip(analysis.breaths, truth_times):
        assert abs(detected - true) <= 80.0   # within two FSR samples


def test_session_energy_is_conserved():
    result = run_session(cfg_with(duration_s=30))
    emu = result.emulator
    decrement = (1.0 - emu.soc) * emu.model.capacity_mah * emu.model.nominal_v
    assert decrement == pytest.approx(result.truth["energy_mwh"], rel=1e-9)
    assert result.truth["average_power_uw"] == pytest.approx(400.0, rel=1e-9)
