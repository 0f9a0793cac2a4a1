"""Host pipeline: chain inversion, breath/artifact detection, export."""

import csv
import dataclasses
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respsim import pipeline
from respsim.config import from_dict
from respsim.firmware import DeviceModel, FirmwareConfig
from respsim.pipeline import (
    ACCEL_DTYPE,
    CSV_COLUMNS,
    FSR_DTYPE,
    Alert,
    AnalysisConfig,
    ArtifactMask,
    BatteryPoint,
    ExtractedSeries,
    InsufficientDataError,
    RespirationEstimate,
    SessionAnalysis,
    analyze_session,
    battery_percent,
    detect_apnea,
    detect_breaths,
    detect_motion_artifacts,
    estimate_rate,
    export_csv,
    export_jsonl,
    extract_series,
    format_relative_ms,
    reconstruct_force,
    summarize,
)
from respsim.protocol import (
    BatteryStatusPayload,
    FrameKind,
    FsrBatchPayload,
    TelemetryFrame,
    split_stream,
)
from respsim.sensor import (
    AdcConfig,
    DividerConfig,
    FsrModel,
    OcvCurve,
    adc_quantize,
    adc_to_voltage,
    battery_sense_voltage,
    divider_voltage,
    fsr_resistance,
)
from respsim.session import run_session, synthesize_accel, synthesize_force


def forward_code(force: float) -> int:
    return adc_quantize(divider_voltage(fsr_resistance(force)))


def inverse_at_code(code: float) -> float:
    """Reference inversion at a fractional code, for bracketing oracles."""
    v = code / 4095 * 1.8
    r = 499_000.0 * (1.8 - v) / v
    return 100_000.0 / r


# ---------------------------------------------------------------------------
# chain inversion
# ---------------------------------------------------------------------------

def scalar_force(code: int, adc: AdcConfig, divider: DividerConfig, fsr: FsrModel):
    """One-code chain inversion, the oracle for the array form (None at the rails)."""
    if code <= 0 or code >= adc.full_scale:
        return None
    v = adc_to_voltage(code, adc)
    if v >= divider.v_dd:
        return None
    r_fsr = divider.r_fixed_ohm * (divider.v_dd - v) / v
    return fsr.k_ohm_n / r_fsr


def test_reconstruct_brackets_true_force():
    # the recovered force must sit inside the half-code quantization cell
    codes = np.array([forward_code(float(f)) for f in np.geomspace(0.05, 50.0, 200)])
    codes = codes[(codes > 0) & (codes < 4095)]
    forces = reconstruct_force(codes)
    assert not np.isnan(forces).any()
    for code, force in zip(codes.tolist(), forces.tolist()):
        assert inverse_at_code(code - 0.5) <= force <= inverse_at_code(code + 0.5)


def test_reconstruct_round_trip_error_is_small():
    # quantization costs more force accuracy as the divider nears the rail,
    # but stays within a percent across the strap's working range
    forces = [0.5, 1.0, 2.0, 4.0, 6.0, 10.0]
    recovered = reconstruct_force([forward_code(f) for f in forces])
    assert recovered == pytest.approx(forces, rel=1e-2)


def test_reconstruct_saturation_flags():
    # both rails are unresolvable; the code alone says which one was hit
    assert np.isnan(reconstruct_force([0, 4095])).all()


def test_reconstruct_respects_custom_chain():
    adc = AdcConfig(bits=10, v_ref=3.3)
    div = DividerConfig(r_fixed_ohm=100_000.0, v_dd=3.3)
    fsr = FsrModel(k_ohm_n=50_000.0)
    code = adc_quantize(divider_voltage(fsr_resistance(2.0, fsr), div), adc)
    force = reconstruct_force([code], DeviceModel(fsr=fsr, divider=div, adc=adc))
    assert force[0] == pytest.approx(2.0, rel=2e-2)


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(1, 12),
    v_ref=st.floats(0.5, 5.0),
    v_dd=st.floats(0.5, 5.0),
    r_fixed=st.floats(1e2, 1e7),
    k=st.floats(1e2, 1e7),
)
def test_reconstruct_equals_scalar_inversion_at_every_code(bits, v_ref, v_dd, r_fixed, k):
    adc = AdcConfig(bits=bits, v_ref=v_ref)
    div = DividerConfig(r_fixed_ohm=r_fixed, v_dd=v_dd)
    fsr = FsrModel(k_ohm_n=k)
    codes = np.arange(-1, adc.full_scale + 2)
    # 4.2 V x 0.1 sits under every v_ref drawn; the inversion never reads the ratio
    model = DeviceModel(fsr=fsr, divider=div, adc=adc, sense_ratio=0.1)
    forces = reconstruct_force(codes, model).tolist()
    expected = [scalar_force(c, adc, div, fsr) for c in codes.tolist()]
    assert [None if math.isnan(f) else f for f in forces] == expected


# ---------------------------------------------------------------------------
# battery percent
# ---------------------------------------------------------------------------

def test_battery_percent_full_and_empty_codes():
    assert battery_percent(3822) == 100   # 4.2 V through 0.4 divider
    assert battery_percent(3003) == 0     # 3.3 V
    assert battery_percent(4095) == 100   # clamps high
    assert battery_percent(0) == 0        # clamps low


def test_battery_percent_midpoint():
    # 3.75 V -> sense 1.5 V -> code 3413 -> back to ~50 %
    assert battery_percent(3413) == 50


def test_battery_percent_follows_the_device_ocv_ends():
    model = DeviceModel(ocv=OcvCurve(((0.0, 3.2), (0.5, 3.8), (1.0, 4.25))))
    for v_batt, percent in ((4.25, 100), (3.2, 0)):
        code = adc_quantize(battery_sense_voltage(v_batt), model.adc)
        assert battery_percent(code, model) == model.device_percent(v_batt) == percent


# ---------------------------------------------------------------------------
# breath detection
# ---------------------------------------------------------------------------

def session_cfg(duration_s=60.0, rate=15.0, posture="still", seed=0, noise=0.0):
    """A single-segment session: one breathing rate, one posture."""
    return from_dict({"duration_s": duration_s, "seed": seed, "rate_bpm": rate,
                      "posture": posture, "scenario": {"noise_sd_n": noise}})


def breathing_series(rate_bpm, duration_s=60.0):
    samples = synthesize_force(session_cfg(duration_s, rate_bpm))
    return [s.t_ms for s in samples], [s.force_n for s in samples]


def test_detect_breaths_clean_15_bpm():
    t, f = breathing_series(15.0)
    breaths = detect_breaths(t, f)
    assert len(breaths) == 15
    # detected peaks on the analytic peak grid (within one sample)
    for b, expected in zip(breaths, range(1000, 60000, 4000)):
        assert abs(int(b) - expected) <= 40


def test_detect_breaths_flat_signal_has_none():
    t = list(range(0, 60000, 40))
    f = [4.0] * len(t)
    assert detect_breaths(t, f).size == 0


def test_detect_breaths_short_series_raises():
    t, f = breathing_series(15.0, duration_s=8.0)
    with pytest.raises(InsufficientDataError):
        detect_breaths(t, f)
    with pytest.raises(InsufficientDataError):
        detect_breaths([0, 40], [1.0, 2.0])


def test_detect_breaths_survives_baseline_drift():
    t, f = breathing_series(12.0)
    drift = np.linspace(0.0, 3.0, len(f))          # slow strap-tension creep
    breaths = detect_breaths(t, list(np.asarray(f) + drift))
    assert len(breaths) == 12


@pytest.mark.parametrize("bpm", [6.0, 10.0, 15.0, 20.0, 30.0, 40.0])
def test_detect_breaths_rate_sweep(bpm):
    t, f = breathing_series(bpm)
    breaths = detect_breaths(t, f)
    intervals = np.diff(breaths)
    rate = 60000.0 / float(np.median(intervals))
    assert rate == pytest.approx(bpm, abs=1.0)


# ---------------------------------------------------------------------------
# motion artifacts
# ---------------------------------------------------------------------------

def accel_rows(rows):
    """ACCEL_DTYPE rows from (t_ms, x_mg, y_mg, z_mg) tuples."""
    return np.array(list(rows), dtype=ACCEL_DTYPE)


def posture_rows(posture, duration_s, seed):
    return synthesize_accel(session_cfg(duration_s, posture=posture, seed=seed))


def test_still_posture_has_no_artifacts():
    mask = detect_motion_artifacts(posture_rows("still", 30.0, seed=2))
    assert mask.intervals == ()


def test_walking_is_one_long_artifact():
    mask = detect_motion_artifacts(posture_rows("walking", 30.0, seed=2))
    assert len(mask.intervals) >= 1
    assert mask.total_ms >= 0.9 * 30_000


def test_short_spike_is_ignored():
    # 100 ms burst of 2 g, well above threshold but too brief
    spiked = accel_rows(
        (t, 0, 0, 2000 if 5000 <= t < 5100 else 1000) for t in range(0, 10000, 20)
    )
    assert detect_motion_artifacts(spiked).intervals == ()


def test_sustained_excursion_is_flagged_with_bounds():
    samples = accel_rows(
        (t, 0, 0, 1400 if 2000 <= t < 2700 else 1000) for t in range(0, 10000, 20)
    )
    mask = detect_motion_artifacts(samples)
    assert len(mask.intervals) == 1
    start, end = mask.intervals[0]
    assert start == 2000
    assert end == 2700
    assert mask.contains(2300)
    assert not mask.contains(1000)
    assert mask.overlap_ms(0, 10000) == 700


def test_posture_shift_is_not_an_artifact():
    mask = detect_motion_artifacts(posture_rows("shift", 30.0, seed=4))
    assert mask.intervals == ()


def test_empty_input_is_clean():
    assert detect_motion_artifacts(accel_rows([])).intervals == ()


@pytest.mark.parametrize("duration_s, interval", [(0.01, (0, 10)), (0.02, (0, 20))],
                         ids=["one-sample", "two-samples"])
def test_an_artifact_lasts_the_session_accel_period(duration_s, interval):
    cfg = from_dict({"duration_s": duration_s, "posture": "walking",
                     "firmware": {"accel_rate_hz": 100},
                     "analysis": {"artifact_min_duration_ms": 5}})
    frames, _, _ = split_stream(run_session(cfg).data)
    result = analyze_session(frames, cfg.analysis, cfg.device_model(), cfg.firmware)
    assert result.artifacts.intervals == (interval,)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=60))
def test_artifact_intervals_stay_disjoint_when_samples_crowd(steps):
    # irregular and repeated timestamps, as overlapping or false frames give
    t = np.cumsum([dt for dt, _ in steps])
    rows = accel_rows((int(ti), 0, 0, 1400 if hot else 1000) for ti, (_, hot) in zip(t, steps))
    intervals = detect_motion_artifacts(rows, min_duration_ms=0.0).intervals
    for (a, b), (next_a, _) in zip(intervals, intervals[1:] + ((math.inf, None),)):
        assert a <= b <= next_a


@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(st.integers(-50, 400), unique=True, max_size=16),
    adjacent=st.lists(st.booleans(), min_size=16, max_size=16),
    extra=st.lists(st.floats(-60.0, 410.0), max_size=20),
)
def test_mask_contains_equals_interval_scan(edges, adjacent, extra):
    # sorted, disjoint intervals between consecutive edges; an interval
    # either starts where the previous one ended or leaves a gap
    edges = sorted(edges)
    intervals, i = [], 0
    while i + 1 < len(edges):
        intervals.append((edges[i], edges[i + 1]))
        i += 1 if adjacent[i] else 2
    intervals = tuple(intervals)
    times = np.array(edges + [e - 1 for e in edges] + [e + 0.5 for e in edges] + extra,
                     dtype=np.float64)
    got = ArtifactMask(intervals).contains(times)
    expected = [any(a <= t < b for a, b in intervals) for t in times.tolist()]
    assert got.tolist() == expected


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

def test_estimate_rate_regular_four_second_intervals():
    breaths = list(range(1000, 60000, 4000))
    est = estimate_rate(breaths, 0, 60000)
    assert est.rate_bpm == pytest.approx(15.0)
    assert est.breath_count == 15
    assert est.confidence > 0.9
    assert est.artifact_fraction == 0.0


def test_estimate_rate_median_rejects_one_long_gap():
    # intervals 4, 4, 6 s: median 4 s -> 15 breaths/min
    breaths = [0, 4000, 8000, 14000]
    est = estimate_rate(breaths, 0, 15000)
    assert est.rate_bpm == pytest.approx(15.0)


def test_estimate_rate_empty_window():
    est = estimate_rate([], 0, 60000)
    assert est.rate_bpm == 0.0
    assert est.breath_count == 0
    assert est.confidence == 0.0


def test_estimate_rate_excludes_masked_breaths():
    breaths = list(range(1000, 30000, 2000))           # 30 bpm throughout
    mask = ArtifactMask(((10000, 20000),))
    est = estimate_rate(breaths, 0, 30000, mask)
    inside_mask = [b for b in breaths if 10000 <= b < 20000]
    assert est.breath_count == len(breaths) - len(inside_mask)
    assert est.artifact_fraction == pytest.approx(10000 / 30000)
    assert est.rate_bpm == pytest.approx(30.0)


def test_masking_more_never_raises_confidence():
    breaths = list(range(500, 60000, 3000))
    clean = estimate_rate(breaths, 0, 60000)
    partial = estimate_rate(breaths, 0, 60000, ArtifactMask(((20000, 30000),)))
    heavier = estimate_rate(breaths, 0, 60000, ArtifactMask(((10000, 40000),)))
    full = estimate_rate(breaths, 0, 60000, ArtifactMask(((0, 60000),)))
    assert clean.confidence >= partial.confidence >= heavier.confidence >= full.confidence
    assert full.confidence == 0.0
    assert full.rate_bpm == 0.0


def test_irregular_breathing_lowers_confidence():
    regular = estimate_rate(list(range(0, 60000, 4000)), 0, 60000)
    rng = np.random.default_rng(6)
    jittered = np.cumsum(rng.uniform(1500, 6500, 15))
    irregular = estimate_rate([int(t) for t in jittered], 0, 60000)
    assert irregular.confidence < regular.confidence


def test_estimate_rate_bad_window():
    with pytest.raises(InsufficientDataError):
        estimate_rate([], 1000, 1000)


# ---------------------------------------------------------------------------
# apnea alerts
# ---------------------------------------------------------------------------

def test_apnea_alert_on_long_gap():
    breaths = [float(t) for t in range(0, 20000, 4000)]    # breathing stops at 16 s
    alerts = detect_apnea(breaths, 0, 60000, timeout_s=30.0)
    assert len(alerts) == 1
    assert alerts[0].kind == "apnea"
    assert alerts[0].start_ms == 16000
    assert alerts[0].end_ms == 60000


def test_no_apnea_when_breathing_continues():
    breaths = [float(t) for t in range(0, 60000, 4000)]
    assert detect_apnea(breaths, 0, 60000) == []


def test_apnea_mid_session_gap():
    breaths = [0.0, 4000.0, 45000.0, 49000.0]
    alerts = detect_apnea(breaths, 0, 50000, timeout_s=30.0)
    assert len(alerts) == 1
    assert (alerts[0].start_ms, alerts[0].end_ms) == (4000, 45000)


# ---------------------------------------------------------------------------
# whole-session analysis
# ---------------------------------------------------------------------------

def run_frames(duration=60.0, rate=15.0, posture="still", seed=0, noise=0.0):
    return run_session(session_cfg(duration, rate, posture, seed, noise)).frames


def test_analyze_full_session_counts():
    result = analyze_session(run_frames())
    assert len(result.series.fsr) == 1500
    assert len(result.series.accel) == 3000
    assert len(result.series.battery) == 30
    assert result.breaths.size == 15
    assert len(result.estimates) == 1
    assert result.estimates[0].rate_bpm == pytest.approx(15.0, abs=1.0)
    assert result.span_ms == (0, 60000)
    assert result.alerts == []


def test_analyze_is_frame_order_insensitive():
    frames = run_frames()
    shuffled = list(frames)
    import random
    random.Random(8).shuffle(shuffled)
    a = analyze_session(frames)
    b = analyze_session(shuffled)
    assert list(a.breaths) == list(b.breaths)
    assert a.estimates == b.estimates
    # byte equality also holds the NaN forces at the rails to each other
    assert a.series.fsr.tobytes() == b.series.fsr.tobytes()
    assert a.series.accel.tobytes() == b.series.accel.tobytes()


def test_analyze_windows_tile_longer_sessions():
    result = analyze_session(run_frames(duration=180.0))
    assert len(result.estimates) == 3
    for est in result.estimates:
        assert est.rate_bpm == pytest.approx(15.0, abs=1.0)


def test_analyze_walking_session_masks_everything():
    result = analyze_session(run_frames(posture="walking"))
    assert result.estimates[0].artifact_fraction > 0.9
    assert result.estimates[0].confidence < 0.1


def test_analyze_empty_frames():
    result = analyze_session([])
    assert result.breaths.size == 0
    assert result.estimates == []
    assert summarize(result)["frames"] == {
        "fsr_batch": 0, "accel_batch": 0, "battery_status": 0
    }


def test_extract_series_reports_seq_gaps():
    frames = run_frames(duration=10.0)
    thinned = [f for f in frames if f.seq % 7 != 3]
    series = extract_series(thinned)
    assert series.seq_gaps == len(frames) - len(thinned)


def test_single_batch_channels_take_their_period_from_the_firmware_config():
    # one batch per channel leaves no batch spacing to infer a period from
    cfg = from_dict({"duration_s": 0.1,
                     "firmware": {"fsr_rate_hz": 50, "accel_rate_hz": 100}})
    frames = run_session(cfg).frames
    result = analyze_session(frames, cfg.analysis, cfg.device_model(), cfg.firmware)
    assert result.series.fsr["t_ms"].tolist() == list(range(0, 100, 20))
    assert result.series.accel["t_ms"].tolist() == list(range(0, 100, 10))
    assert result.span_ms == (0, 100)
    # from two batches on the spacing is inferred, whatever config is given
    cfg = dataclasses.replace(cfg, duration_s=0.2)
    series = extract_series(run_session(cfg).frames, cfg.device_model(), FirmwareConfig())
    assert series.fsr["t_ms"].tolist() == list(range(0, 200, 20))
    assert series.accel["t_ms"].tolist() == list(range(0, 200, 10))


def battery_frames(seqs):
    """Battery frames with the given seq values, in receive order, 2 s apart."""
    return [
        TelemetryFrame(FrameKind.BATTERY_STATUS, seq, 0, BatteryStatusPayload(2000 * i, 3822, 100))
        for i, seq in enumerate(seqs)
    ]


def test_seq_gaps_across_16_bit_wrap():
    # seq 0 was lost while the counter wrapped from 0xFFFF
    series = extract_series(battery_frames([65533, 65534, 65535, 1, 2]))
    assert series.seq_gaps == 1


def test_seq_gaps_ignore_reordering_and_duplicates():
    assert extract_series(battery_frames([10, 12, 11, 12, 14])).seq_gaps == 1
    assert extract_series(battery_frames([65535, 0, 65534, 1, 1])).seq_gaps == 0


@settings(max_examples=50, deadline=None)
@given(
    first=st.one_of(st.integers(0, 0xFFFF), st.integers(0xFC00, 0xFFFF)),
    kept=st.sets(st.integers(0, 2000), min_size=1),
)
def test_seq_gaps_count_missing_frames_anywhere_in_the_counter(first, kept):
    offsets = sorted(kept)
    series = extract_series(battery_frames([(first + k) & 0xFFFF for k in offsets]))
    assert series.seq_gaps == offsets[-1] - offsets[0] + 1 - len(offsets)


def test_session_past_the_16_bit_seq_wrap():
    # one sample per frame on both channels at 1 kHz: 66,017 frames in 33 s,
    # so seq wraps once and the last frame carries 480
    cfg = from_dict({
        "duration_s": 33,
        "firmware": {"fsr_rate_hz": 1000, "accel_rate_hz": 1000,
                     "fsr_batch": 1, "accel_batch": 1},
    })
    frames, resyncs, pending = split_stream(run_session(cfg).data)
    assert len(frames) == 66_017 and frames[-1].seq == 480
    assert resyncs == [] and pending == 0
    series = analyze_session(frames, cfg.analysis, cfg.device_model()).series
    assert series.seq_gaps == 0
    assert len(series.fsr) == len(series.accel) == 33_000
    assert (np.diff(series.fsr["t_ms"]) > 0).all()


def test_summarize_shape():
    s = summarize(analyze_session(run_frames()))
    assert s["fsr_samples"] == 1500
    assert s["median_rate_bpm"] == pytest.approx(15.0, abs=1.0)
    assert s["battery"]["last_percent_device"] == 100
    assert s["alerts"] == []


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_format_relative_ms():
    assert format_relative_ms(0) == "00:00:00.000"
    assert format_relative_ms(59_960) == "00:00:59.960"
    assert format_relative_ms(3_661_042) == "01:01:01.042"


def test_export_csv_row_counts():
    result = analyze_session(run_frames())
    buf = io.StringIO()
    rows = export_csv(result, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("record,t_ms,t_iso,")
    assert rows == len(lines) - 1
    by_kind = {}
    for line in lines[1:]:
        kind = line.split(",", 1)[0]
        by_kind[kind] = by_kind.get(kind, 0) + 1
    assert by_kind["fsr"] == 1500
    assert by_kind["accel"] == 3000
    assert by_kind["battery"] == 30
    assert by_kind["breath"] == 15
    assert by_kind["estimate"] == 1


def test_export_jsonl_round_trips():
    result = analyze_session(run_frames(duration=20.0))
    buf = io.StringIO()
    rows = export_jsonl(result, buf)
    parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
    assert len(parsed) == rows
    fsr = [r for r in parsed if r["record"] == "fsr"]
    assert len(fsr) == 500
    assert fsr[0]["t_ms"] == 0
    assert fsr[0]["code"] > 0
    assert isinstance(fsr[0]["force_n"], float)
    battery = [r for r in parsed if r["record"] == "battery"]
    assert battery[0]["percent_device"] == battery[0]["percent_host"] == 100


def test_export_marks_rails_and_leaves_their_force_empty():
    frames = [TelemetryFrame(FrameKind.FSR_BATCH, 0, 0, FsrBatchPayload(0, (0, 4095, 2000)))]
    result = analyze_session(frames)
    buf = io.StringIO()
    export_csv(result, buf)
    rows = [r for r in csv.DictReader(io.StringIO(buf.getvalue())) if r["record"] == "fsr"]
    assert [(r["code"], r["saturated"]) for r in rows] == [
        ("0", "low"), ("4095", "high"), ("2000", "")]
    assert [r["force_n"] for r in rows[:2]] == ["", ""]
    assert float(rows[2]["force_n"]) > 0
    buf = io.StringIO()
    export_jsonl(result, buf)
    parsed = [json.loads(line) for line in buf.getvalue().splitlines()]
    parsed = [r for r in parsed if r["record"] == "fsr"]
    assert ["force_n" in r for r in parsed] == [False, False, True]
    assert [r["saturated"] for r in parsed] == ["low", "high", ""]


def test_export_empty_session_is_header_only():
    buf = io.StringIO()
    rows = export_csv(analyze_session([]), buf)
    assert rows == 0
    assert buf.getvalue().count("\n") == 1


def reference_rows(result):
    """The export rows as dicts, one per row, grouped by record type: the
    reference exporters below write them with csv.DictWriter and json.dumps."""
    for t, code, force in result.series.fsr.tolist():
        row = {"record": "fsr", "t_ms": t, "code": code, "saturated": ""}
        if math.isnan(force):
            row["saturated"] = "low" if code <= 0 else "high"
        else:
            row["force_n"] = f"{force:.6f}"
        yield row
    for t, x, y, z in result.series.accel.tolist():
        yield {"record": "accel", "t_ms": t, "x_mg": x, "y_mg": y, "z_mg": z}
    for p in result.series.battery:
        yield {"record": "battery", "t_ms": p.t_ms, "code": p.adc_code,
               "percent_device": p.device_percent, "percent_host": p.host_percent,
               "charging": int(p.charging)}
    for b in result.breaths.tolist():
        yield {"record": "breath", "t_ms": b}
    for a, b in result.artifacts.intervals:
        yield {"record": "artifact", "t_ms": a, "end_ms": b}
    for e in result.estimates:
        yield {"record": "estimate", "t_ms": e.window_start_ms, "end_ms": e.window_end_ms,
               "rate_bpm": f"{e.rate_bpm:.3f}", "breath_count": e.breath_count,
               "confidence": f"{e.confidence:.4f}",
               "artifact_fraction": f"{e.artifact_fraction:.4f}"}
    for alert in result.alerts:
        yield {"record": "alert", "t_ms": alert.start_ms, "end_ms": alert.end_ms,
               "note": alert.kind}


def reference_csv(result, fp):
    writer = csv.DictWriter(fp, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    n = 0
    for row in reference_rows(result):
        row["t_iso"] = format_relative_ms(row["t_ms"])
        writer.writerow(row)
        n += 1
    return n


def reference_jsonl(result, fp):
    n = 0
    for row in reference_rows(result):
        row["t_iso"] = format_relative_ms(row["t_ms"])
        for key in ("force_n", "rate_bpm", "confidence", "artifact_fraction"):
            if key in row:
                row[key] = float(row[key])
        fp.write(json.dumps(row, sort_keys=True) + "\n")
        n += 1
    return n


# instants past 1 h, around and past 100 h (three-digit hours), and before 0
_export_times = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(3_599_000, 3_601_000),
    st.integers(359_999_000, 360_001_000),
    st.integers(-10**6, 10**6),
)
_reals = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def session_analyses(draw):
    """Every record type, rail codes with NaN force, and empty channels."""
    fsr = draw(st.lists(st.tuples(
        _export_times,
        st.sampled_from([0, 4095]) | st.integers(0, 4095),
        st.just(math.nan) | st.floats(-1e3, 1e4) | _reals)))
    accel = draw(st.lists(st.tuples(_export_times, *[st.integers(-32768, 32767)] * 3)))
    battery = draw(st.lists(st.builds(
        BatteryPoint, _export_times, st.integers(0, 4095), st.integers(0, 100),
        st.integers(0, 100), st.booleans()), max_size=5))
    breaths = draw(st.lists(_export_times, max_size=10))
    intervals = draw(st.lists(st.tuples(_export_times, _export_times), max_size=5))
    estimates = draw(st.lists(st.builds(
        RespirationEstimate, _export_times, _export_times, st.floats(0, 60) | _reals,
        st.integers(0, 100), st.floats(0, 1) | _reals, st.floats(0, 1) | _reals),
        max_size=5))
    # notes with the characters CSV quotes, and any others
    notes = st.just("apnea") | st.text(',"\r\n a', max_size=6) | st.text(max_size=6)
    alerts = draw(st.lists(st.builds(Alert, notes, _export_times, _export_times), max_size=3))
    series = ExtractedSeries(
        fsr=np.array(fsr, dtype=FSR_DTYPE),
        accel=np.array(accel, dtype=ACCEL_DTYPE),
        battery=battery,
        fsr_period_ms=40.0,
        accel_period_ms=20.0,
        frame_counts={},
        seq_gaps=0,
    )
    return SessionAnalysis(
        series=series,
        breaths=np.array(breaths, dtype=np.int64),
        artifacts=ArtifactMask(tuple(intervals)),
        estimates=estimates,
        alerts=alerts,
        span_ms=(0, 0),
    )


@settings(max_examples=200, deadline=None)
@given(session_analyses(), st.integers(1, 9))
def test_exports_match_the_reference_writers(result, block_rows):
    # small blocks put block boundaries inside every record group
    with mock.patch.object(pipeline, "BLOCK_ROWS", block_rows):
        for export, reference in ((export_csv, reference_csv), (export_jsonl, reference_jsonl)):
            got, expected = io.StringIO(), io.StringIO()
            assert export(result, got) == reference(result, expected)
            assert got.getvalue() == expected.getvalue()


def test_export_of_a_session_matches_the_reference_writers():
    result = analyze_session(run_frames(duration=200.0, rate=20.0, posture="walking"))
    assert len(result.series.fsr) > pipeline.BLOCK_ROWS
    for export, reference in ((export_csv, reference_csv), (export_jsonl, reference_jsonl)):
        got, expected = io.StringIO(), io.StringIO()
        assert export(result, got) == reference(result, expected)
        assert got.getvalue() == expected.getvalue()
