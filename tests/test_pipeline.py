"""Host pipeline: chain inversion, breath/artifact detection, export."""

import csv
import dataclasses
import functools
import io
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respsim import pipeline, protocol
from respsim.config import from_dict
from respsim.firmware import (
    ArrayStimulus,
    DeviceModel,
    FirmwareConfig,
    FirmwareEmulator,
    encode_session,
)
from respsim.pipeline import (
    ACCEL_DTYPE,
    BATTERY_DTYPE,
    CSV_COLUMNS,
    FSR_DTYPE,
    Alert,
    AnalysisConfig,
    ArtifactMask,
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
    FLAG_CHARGING,
    FLAG_FINAL_FLUSH,
    AccelBatchPayload,
    BatteryStatusPayload,
    FrameKind,
    FsrBatchPayload,
    TelemetryFrame,
    decode,
    encode,
    split_stream,
)
from respsim.sensor import (
    AdcConfig,
    DividerConfig,
    ForceSample,
    FsrModel,
    OcvCurve,
    ParameterError,
    adc_quantize,
    adc_to_voltage,
    divider_voltage,
    fsr_resistance,
)
from respsim.session import run_session, synthesize_accel, synthesize_force
from tests.test_protocol import random_frame


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
        code = adc_quantize(v_batt * model.sense_ratio, model.adc)
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
    breaths = detect_breaths(t, f, 40)
    assert len(breaths) == 15
    # detected peaks on the analytic peak grid (within one sample)
    for b, expected in zip(breaths, range(1000, 60000, 4000)):
        assert abs(int(b) - expected) <= 40


def test_detect_breaths_flat_signal_has_none():
    t = list(range(0, 60000, 40))
    f = [4.0] * len(t)
    assert detect_breaths(t, f, 40).size == 0


def test_detect_breaths_short_series_raises():
    t, f = breathing_series(15.0, duration_s=8.0)
    with pytest.raises(InsufficientDataError):
        detect_breaths(t, f, 40)
    with pytest.raises(InsufficientDataError):
        detect_breaths([0, 40], [1.0, 2.0], 40)


def test_detect_breaths_survives_baseline_drift():
    t, f = breathing_series(12.0)
    drift = np.linspace(0.0, 3.0, len(f))          # slow strap-tension creep
    breaths = detect_breaths(t, list(np.asarray(f) + drift), 40)
    assert len(breaths) == 12


@pytest.mark.parametrize("bpm", [6.0, 10.0, 15.0, 20.0, 30.0, 40.0])
def test_detect_breaths_rate_sweep(bpm):
    t, f = breathing_series(bpm)
    breaths = detect_breaths(t, f, 40)
    intervals = np.diff(breaths)
    rate = 60000.0 / float(np.median(intervals))
    assert rate == pytest.approx(bpm, abs=1.0)


@pytest.mark.parametrize("x, expected", [
    ([0, 1, 3, 3, 3, 3, 1, 0], [3]),        # a flat top: its midpoint, rounded down
    ([0, 2, 2, 2, 0], [2]),
    ([3, 3, 1, 2, 2], []),                  # a run touching either end is no peak
    ([0, 2, 1.5, 3, 0], [3]),               # the walk from 2 stops at 3: it rises 0.5
    ([0, 5, 4, 4.5, 4, 5, 0], [1, 5]),      # the middle wiggle rises 0.5
    ([], []),
    ([1], []),
])
def test_find_peaks_rules(x, expected):
    peaks = pipeline._find_peaks(np.array(x, dtype=np.float64), 0.0, 1, 1.0)
    assert peaks.tolist() == expected


def test_find_peaks_keeps_the_highest_of_close_peaks():
    x = np.array([0, 3, 0, 4, 0, 2, 0, 0, 0, 1, 0], dtype=np.float64)
    assert pipeline._find_peaks(x, 0.0, 3, 0.0).tolist() == [3, 9]
    assert pipeline._find_peaks(x, 1.5, 1, 0.0).tolist() == [1, 3, 5]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([np.int64, np.float64]), st.integers(0, 20), st.booleans())
def test_median_is_numpys_bit_for_bit(data, dtype, half, odd):
    n = 2 * half + 1 if odd else 2 * half + 2
    element = (st.integers(-10**12, 10**12) if dtype is np.int64
               else st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0]))
    values = np.array(data.draw(st.lists(element, min_size=n, max_size=n)), dtype=dtype)
    expected = float(np.median(values))
    assert np.float64(pipeline._median(values)).tobytes() == np.float64(expected).tobytes()
    assert pipeline._median(values.tolist()) == expected


# ---------------------------------------------------------------------------
# motion artifacts
# ---------------------------------------------------------------------------

def accel_rows(rows):
    """ACCEL_DTYPE rows from (t_ms, x_mg, y_mg, z_mg) tuples."""
    return np.array(list(rows), dtype=ACCEL_DTYPE)


def posture_rows(posture, duration_s, seed):
    return synthesize_accel(session_cfg(duration_s, posture=posture, seed=seed))


def test_still_posture_has_no_artifacts():
    mask = detect_motion_artifacts(posture_rows("still", 30.0, seed=2), 20)
    assert mask.intervals == ()


def test_walking_is_one_long_artifact():
    mask = detect_motion_artifacts(posture_rows("walking", 30.0, seed=2), 20)
    assert len(mask.intervals) >= 1
    assert mask.masked_ms(math.inf) >= 0.9 * 30_000


def test_short_spike_is_ignored():
    # 100 ms burst of 2 g, well above threshold but too brief
    spiked = accel_rows(
        (t, 0, 0, 2000 if 5000 <= t < 5100 else 1000) for t in range(0, 10000, 20)
    )
    assert detect_motion_artifacts(spiked, 20).intervals == ()


def test_sustained_excursion_is_flagged_with_bounds():
    samples = accel_rows(
        (t, 0, 0, 1400 if 2000 <= t < 2700 else 1000) for t in range(0, 10000, 20)
    )
    mask = detect_motion_artifacts(samples, 20)
    assert len(mask.intervals) == 1
    start, end = mask.intervals[0]
    assert start == 2000
    assert end == 2700
    assert mask.contains(2300)
    assert not mask.contains(1000)
    assert np.diff(mask.masked_ms([0, 10000])).tolist() == [700]


def test_a_hot_run_of_exactly_the_minimum_duration_is_flagged():
    samples = accel_rows(
        (t, 0, 0, 1400 if 2000 <= t < 2500 else 1000) for t in range(0, 10000, 20)
    )
    assert detect_motion_artifacts(samples, 20, min_duration_ms=500).intervals == (
        (2000, 2500),)


def test_posture_shift_is_not_an_artifact():
    mask = detect_motion_artifacts(posture_rows("shift", 30.0, seed=4), 20)
    assert mask.intervals == ()


def test_empty_input_is_clean():
    assert detect_motion_artifacts(accel_rows([]), 20).intervals == ()


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
@given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=60),
       st.integers(1, 40) | st.floats(0.5, 40.0), st.sampled_from([0.0, 30.0, 75.5]))
def test_artifact_intervals_stay_disjoint_when_samples_crowd(steps, period_ms, min_duration_ms):
    # irregular and repeated timestamps, as overlapping or false frames give
    t = np.cumsum([dt for dt, _ in steps]).tolist()
    hot = [h for _, h in steps]
    rows = accel_rows((ti, 0, 0, 1400 if h else 1000) for ti, h in zip(t, hot))
    intervals = detect_motion_artifacts(rows, period_ms, min_duration_ms=min_duration_ms).intervals
    for (a, b), (next_a, _) in zip(intervals, intervals[1:] + ((math.inf, None),)):
        assert a <= b <= next_a
    # the same intervals from a loop over the hot runs, one run at a time
    expected, start = [], 0
    while start < len(hot):
        if not hot[start]:
            start += 1
            continue
        stop = start
        while stop < len(hot) and hot[stop]:
            stop += 1
        end = int(t[stop - 1] + period_ms)
        if stop < len(t):
            end = min(end, t[stop])
        if end - t[start] >= min_duration_ms:
            expected.append((t[start], end))
        start = stop
    assert intervals == tuple(expected)


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


def test_detect_breaths_rejects_misaligned_or_unordered_series():
    t, f = breathing_series(15.0)
    with pytest.raises(InsufficientDataError, match="align"):
        detect_breaths(t, f[:-1], 40)
    with pytest.raises(InsufficientDataError, match="must not decrease"):
        detect_breaths(t[::-1], f[::-1], 40)


_bad_periods = [0, -40, math.nan, math.inf]


@pytest.mark.parametrize("period_ms", _bad_periods)
def test_detect_breaths_rejects_a_period_that_is_not_finite_and_positive(period_ms):
    t, f = breathing_series(15.0)
    with pytest.raises(ParameterError, match="period_ms must be finite and > 0"):
        detect_breaths(t, f, period_ms)


@pytest.mark.parametrize("period_ms", _bad_periods)
def test_detect_motion_artifacts_rejects_a_period_that_is_not_finite_and_positive(period_ms):
    samples = accel_rows(
        (t, 0, 0, 1400 if 2000 <= t < 2700 else 1000) for t in range(0, 10000, 20))
    with pytest.raises(ParameterError, match="period_ms must be finite and > 0"):
        detect_motion_artifacts(samples, period_ms)


def test_peaks_that_share_an_instant_are_one_breath():
    # batches stamped with one t0 put several samples, and here two peaks,
    # at one instant; they must not become two breaths 0 ms apart
    breaths = detect_breaths([0, 6668, 6668, 6668, 10002], [1.0, 2.0, 1.0, 2.0, 1.0], 40)
    assert breaths.tolist() == [6668]


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


def test_estimate_rate_counts_a_repeated_instant_once():
    est = estimate_rate([1000, 1000, 5000, 5000], 0, 10000)
    assert est.rate_bpm == pytest.approx(15.0)
    assert est.breath_count == 2


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


def test_apnea_counts_only_unmasked_time():
    # the 20 s breath is masked, which leaves one 41 s gap from 4 s to 45 s
    breaths = [0.0, 4000.0, 20000.0, 45000.0, 49000.0]
    short_mask = ArtifactMask(((15000, 25000),))        # 31 s of it unmasked
    alerts = detect_apnea(breaths, 0, 50000, timeout_s=30.0, artifacts=short_mask)
    assert alerts == [Alert(4000, 45000)]
    long_mask = ArtifactMask(((10000, 25000),))         # 26 s of it unmasked
    assert detect_apnea(breaths, 0, 50000, timeout_s=30.0, artifacts=long_mask) == []


def test_a_gap_of_exactly_the_timeout_raises_no_alert():
    assert detect_apnea([0.0, 30000.0], 0, 30000, timeout_s=30.0) == []
    # 11 s of the 41 s gap are masked, which leaves exactly the timeout
    breaths = [0.0, 4000.0, 45000.0, 49000.0]
    mask = ArtifactMask(((10000, 21000),))
    assert detect_apnea(breaths, 0, 50000, timeout_s=30.0, artifacts=mask) == []


def test_walking_session_raises_no_apnea_alert():
    # the mask covers the whole walk, so no breath is accepted, yet no
    # unmasked time passes without one either
    cfg = from_dict({"duration_s": 120, "seed": 3, "rate_bpm": 15, "posture": "walking"})
    result = analyze_session(run_session(cfg).frames, cfg.analysis, cfg.device_model(),
                             cfg.firmware)
    assert result.breaths.size == 30
    assert result.artifacts.intervals == ((0, 120000),)
    assert result.alerts == []


def reference_masked(intervals, start_ms, end_ms):
    """Masked time in [start_ms, end_ms), summed one interval at a time."""
    return sum(max(0.0, min(b, end_ms) - max(a, start_ms)) for a, b in intervals)


def reference_apnea(breaths, start_ms, end_ms, timeout_s, intervals):
    """detect_apnea's (start_ms, end_ms) pairs, judged one gap at a time."""
    timeout_ms = timeout_s * 1000.0
    accepted = sorted(t for t in breaths if not any(a <= t < b for a, b in intervals))
    marks = [float(start_ms), *accepted, float(end_ms)]
    return [(int(a), int(b)) for a, b in zip(marks, marks[1:])
            if b - a > timeout_ms and b - a - reference_masked(intervals, a, b) > timeout_ms]


@st.composite
def sorted_masks(draw):
    """Sorted disjoint integer intervals, touching ones included, or none."""
    intervals, end = [], draw(st.integers(-5_000, 50_000))
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 30_000), st.integers(1, 40_000)),
                                     max_size=8)):
        intervals.append((end + gap, end + gap + length))
        end += gap + length
    return tuple(intervals)


# whole and fractional instants, all exact in float64
_instants = st.integers(-40_000, 1_200_000).map(lambda quarters: quarters / 4)


@settings(max_examples=200, deadline=None)
@given(sorted_masks(), st.lists(_instants, max_size=30), st.integers(-5_000, 100_000),
       st.integers(1, 300_000), st.integers(10, 60).map(lambda halves: halves / 2))
def test_masked_time_matches_a_per_interval_loop(intervals, breaths, start, length, timeout_s):
    mask, end = ArtifactMask(intervals), start + length
    alerts = detect_apnea(breaths, start, end, timeout_s, mask)
    assert [(a.start_ms, a.end_ms) for a in alerts] == reference_apnea(
        breaths, start, end, timeout_s, intervals)
    assert estimate_rate(breaths, start, end, mask).artifact_fraction == min(
        reference_masked(intervals, start, end) / length, 1.0)
    points = sorted([start, end, *breaths])
    assert np.diff(mask.masked_ms(points)).tolist() == [
        reference_masked(intervals, a, b) for a, b in zip(points, points[1:])]


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


def export_bytes(result):
    csv_text, jsonl_text = io.StringIO(), io.StringIO()
    export_csv(result, csv_text)
    export_jsonl(result, jsonl_text)
    return csv_text.getvalue(), jsonl_text.getvalue()


def test_a_capture_sent_twice_analyzes_as_the_clean_one():
    # a host that re-queues every notification receives each frame twice
    cfg = from_dict({"duration_s": 120, "seed": 1, "rate_bpm": 15})
    frames = split_stream(run_session(cfg).data)[0]
    doubled = split_stream(b"".join(encode(f) * 2 for f in frames))[0]
    assert len(doubled) == 2 * len(frames)
    clean = analyze_session(frames, cfg.analysis, cfg.device_model(), cfg.firmware)
    twice = analyze_session(doubled, cfg.analysis, cfg.device_model(), cfg.firmware)
    assert clean.breaths.size == twice.breaths.size == 30
    assert twice.alerts == []
    assert export_bytes(twice) == export_bytes(clean)
    # the received frames are still counted as received
    assert summarize(twice)["frames"] == {
        kind: 2 * n for kind, n in summarize(clean)["frames"].items()}


@functools.lru_cache(maxsize=None)
def short_session(seed, posture):
    """A 20 s session's frames and the export bytes and breaths they analyze to."""
    frames = run_session(session_cfg(20.0, 15.0, posture, seed, noise=0.05)).frames
    result = analyze_session(frames)
    return frames, export_bytes(result), result.breaths.tolist()


# D2: one CRC-valid frame stamped 2**31 stretched the default 60 s analysis
# to 0-2,147,483,848 ms, with 35,791 rate windows and a false apnea alert;
# one at 200,000 ms, on its kind's grid, to 0-200,200 ms with another false
# alert.  The first is off the grid, the second has the wrong seq
@pytest.mark.parametrize("t0_ms, seq", [(2**31, 630), (200_000, 0)])
def test_a_frame_off_the_schedule_is_counted_and_places_no_sample(t0_ms, seq):
    frames = run_frames()
    wild = TelemetryFrame(FrameKind.FSR_BATCH, seq, 0, FsrBatchPayload(t0_ms, (2000,) * 5))
    result = analyze_session(frames + [wild])
    assert export_bytes(result) == export_bytes(analyze_session(frames))
    assert summarize(result)["misplaced_frames"] == {**NONE_MISPLACED, "fsr_batch": 1}
    assert summarize(result)["frames"]["fsr_batch"] == 301


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(0, 3), st.sampled_from(["still", "walking"]))
def test_reordered_and_copied_frames_analyze_as_the_originals(data, seed, posture):
    frames, exports, breaths = short_session(seed, posture)
    received = data.draw(st.permutations(frames))
    for copy in data.draw(st.lists(st.sampled_from(frames), max_size=40)):
        received.insert(data.draw(st.integers(0, len(received))), decode(encode(copy)))
    result = analyze_session(received)
    assert result.breaths.tolist() == breaths
    assert export_bytes(result) == exports


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
    # one battery reading spans a single instant: no window to estimate over.
    # It is the default schedule's reading at 4,000 ms, whose seq is 42: 20
    # FSR and 20 accel batches and 2 readings are sent before it
    reading = TelemetryFrame(FrameKind.BATTERY_STATUS, 42, 0, BatteryStatusPayload(4000, 3822, 100))
    result = analyze_session([reading])
    assert summarize(result)["misplaced_frames"] == NONE_MISPLACED
    assert result.span_ms == (4000, 4000)
    assert (result.estimates, result.alerts) == ([], [])
    out = io.StringIO()
    assert export_csv(result, out) == 1
    assert out.getvalue().splitlines()[1].startswith("battery,4000,")


def test_extract_series_reports_seq_gaps():
    frames = run_frames(duration=10.0)
    thinned = [f for f in frames if f.seq % 7 != 3]
    series = extract_series(thinned)
    assert series.seq_gaps == len(frames) - len(thinned)


def test_single_batch_channels_take_their_period_from_the_firmware_config():
    # one batch per channel: no spacing between batches shows the period
    cfg = from_dict({"duration_s": 0.1,
                     "firmware": {"fsr_rate_hz": 50, "accel_rate_hz": 100}})
    frames = run_session(cfg).frames
    result = analyze_session(frames, cfg.analysis, cfg.device_model(), cfg.firmware)
    assert result.series.fsr["t_ms"].tolist() == list(range(0, 100, 20))
    assert result.series.accel["t_ms"].tolist() == list(range(0, 100, 10))
    assert result.span_ms == (0, 100)
    # so do channels with more batches, and the default config's grid of
    # 200 ms holds only the first batch of each
    cfg = dataclasses.replace(cfg, duration_s=0.2)
    frames = run_session(cfg).frames
    series = extract_series(frames, cfg.device_model(), cfg.firmware)
    assert series.fsr["t_ms"].tolist() == list(range(0, 200, 20))
    assert series.accel["t_ms"].tolist() == list(range(0, 200, 10))
    series = extract_series(frames, cfg.device_model(), FirmwareConfig())
    assert series.misplaced_frames == {"fsr_batch": 1, "accel_batch": 1, "battery_status": 0}


NONE_MISPLACED = {"fsr_batch": 0, "accel_batch": 0, "battery_status": 0}

# the default schedule's period and batch per kind; a battery reading is a batch of one
DEFAULT_GRID = {FrameKind.FSR_BATCH: (40, 5), FrameKind.ACCEL_BATCH: (20, 10),
                FrameKind.BATTERY_STATUS: (2000, 1)}
# the index of each send of the default schedule's first 110 s, by (instant, kind):
# a batch is sent when its last sample is taken, and sends at one instant go
# in kind-code order
DEFAULT_SLOTS = {send: i for i, send in enumerate(sorted(
    (t, kind) for kind, (period, batch) in DEFAULT_GRID.items()
    for t in range((batch - 1) * period, 110_000, period * batch)))}


def on_default_schedule(frame) -> bool:
    """Whether the default firmware sends ``frame``: a whole batch, or a smaller final
    flush, on its kind's grid, whose seq without the flush flag is its send's index."""
    period, batch = DEFAULT_GRID[frame.kind]
    p = frame.payload
    if frame.kind == FrameKind.BATTERY_STATUS:
        t0, count = p.t_ms, 1
    else:
        t0, count = p.t0_ms, len(p.codes if frame.kind == FrameKind.FSR_BATCH else p.samples)
    if t0 % (period * batch) or not (count == batch or frame.final_flush and count < batch):
        return False
    slot = DEFAULT_SLOTS[t0 + (batch - 1) * period, frame.kind]
    return frame.final_flush or slot % 2**16 == frame.seq


def reference_series(frames, model):
    """extract_series under the default firmware config written as a per-sample
    loop: rows, frame counts and misplaced frame counts."""
    counts, misplaced = dict(NONE_MISPLACED), dict(NONE_MISPLACED)
    fsr_batches, accel_batches, battery = [], [], []
    for f in frames:
        p, name = f.payload, f.kind.name.lower()
        counts[name] += 1
        if not on_default_schedule(f):
            misplaced[name] += 1
        elif f.kind == FrameKind.FSR_BATCH:
            fsr_batches.append((p.t0_ms, p.codes))
        elif f.kind == FrameKind.ACCEL_BATCH:
            accel_batches.append((p.t0_ms, p.samples))
        else:
            battery.append((p.t_ms, p.adc_code, p.percent, battery_percent(p.adc_code, model),
                            f.charging))

    def first_per_instant(rows):
        """Rows in time order, ties in the given order, keeping the first at each instant."""
        kept = {}
        for row in sorted(rows, key=lambda r: r[0]):
            kept.setdefault(row[0], row)
        return list(kept.values())

    def samples(batches, period):
        rows = []
        for t0, batch in sorted(batches, key=lambda b: b[0]):
            for j, sample in enumerate(batch):
                rows.append((t0 + j * period, sample))
        return first_per_instant(rows)

    return (
        np.array([(t, code, reconstruct_force([code], model)[0])
                  for t, code in samples(fsr_batches, 40)], dtype=FSR_DTYPE),
        np.array([(t, *xyz) for t, xyz in samples(accel_batches, 20)], dtype=ACCEL_DTYPE),
        np.array(first_per_instant(battery), dtype=BATTERY_DTYPE),
        counts, misplaced,
    )


# start times from a handful of values, so batches often share one
_t0s = st.sampled_from([0, 40, 200, 1000]) | st.integers(0, 100_000)


@st.composite
def received_frame(draw):
    """A frame of any kind, often on the default schedule: on its kind's grid
    within 100 s, with a whole batch and the seq of its slot."""
    kind = draw(st.sampled_from(list(FrameKind)))
    period, batch = DEFAULT_GRID[kind]
    t0 = draw(st.integers(0, 100_000 // (period * batch)).map(lambda m: m * period * batch)
              | _t0s)
    count = draw(st.just(batch) | st.integers(1, batch + 1))
    slot = DEFAULT_SLOTS.get((t0 + (batch - 1) * period, kind), 0)
    seq = draw(st.just(slot) | st.integers(0, 0xFFFF))
    flags = draw(st.sampled_from([0, FLAG_CHARGING, FLAG_FINAL_FLUSH]))
    if kind is FrameKind.FSR_BATCH:
        payload = FsrBatchPayload(t0, tuple(draw(st.lists(
            st.integers(0, 4095), min_size=count, max_size=count))))
    elif kind is FrameKind.ACCEL_BATCH:
        payload = AccelBatchPayload(t0, tuple(draw(st.lists(
            st.tuples(*[st.integers(-32768, 32767)] * 3), min_size=count, max_size=count))))
    else:
        payload = BatteryStatusPayload(t0, draw(st.integers(0, 4095)), draw(st.integers(0, 100)))
    return TelemetryFrame(kind, seq, flags, payload)


@st.composite
def received_frames(draw):
    """Frames of all three kinds, duplicated in part and in any receive order."""
    frames = draw(st.lists(received_frame(), max_size=16))
    if frames:
        frames += draw(st.lists(st.sampled_from(frames), max_size=3))
    return draw(st.permutations(frames))


@settings(max_examples=200, deadline=None)
@given(received_frames())
def test_extract_series_matches_a_per_sample_loop(frames):
    model = DeviceModel()
    series = extract_series(frames, model, FirmwareConfig())
    fsr, accel, battery, counts, misplaced = reference_series(frames, model)
    # byte equality also holds the NaN forces at the rails to each other
    assert series.fsr.tobytes() == fsr.tobytes()
    assert series.accel.tobytes() == accel.tobytes()
    assert series.battery.tobytes() == battery.tobytes()
    assert series.frame_counts == counts
    assert series.misplaced_frames == misplaced


@functools.cache
def sent_frames():
    return run_frames(duration=10.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), max_size=80), st.data())
def test_extract_series_reads_a_split_table_as_it_reads_the_frames(seeds, data):
    # random frames are off the schedule, so frames it sends ride along
    frames = [random_frame(random.Random(seed)) for seed in seeds]
    frames = data.draw(st.permutations(
        frames + data.draw(st.lists(st.sampled_from(sent_frames()), max_size=40))))
    with mock.patch.object(protocol, "BULK_MIN_CANDIDATES", 1):  # the column-wise pass
        table = split_stream(encode_session(frames))[0]
    got, want = extract_series(table), extract_series(frames)
    for name in ("fsr", "accel", "battery"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.frame_counts, got.misplaced_frames, got.seq_gaps) == (
        want.frame_counts, want.misplaced_frames, want.seq_gaps)


_fuzz_t0s = st.sampled_from([0, 40, 3334]) | st.integers(0, 2**32 - 1)


def _fuzz_samples(sample, most):
    """1 to ``most`` samples, often only a few."""
    return st.lists(sample, min_size=1, max_size=3) | st.lists(sample, min_size=1, max_size=most)


@st.composite
def well_formed_frames(draw):
    """Any frame that decode reads back: every kind, seq and flags, and any
    in-range samples, from one to the MTU's worth."""
    kind = draw(st.sampled_from(list(FrameKind)))
    if kind is FrameKind.FSR_BATCH:
        payload = FsrBatchPayload(draw(_fuzz_t0s), tuple(draw(_fuzz_samples(
            st.sampled_from([0, 4095]) | st.integers(0, 4095), 119))))
    elif kind is FrameKind.ACCEL_BATCH:
        payload = AccelBatchPayload(draw(_fuzz_t0s), tuple(draw(_fuzz_samples(
            st.tuples(*[st.integers(-32768, 32767)] * 3), 39))))
    else:
        payload = BatteryStatusPayload(
            draw(_fuzz_t0s), draw(st.integers(0, 4095)), draw(st.integers(0, 100)))
    frame = TelemetryFrame(kind, draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFF)),
                           payload)
    assert decode(encode(frame)) == frame
    return frame


@st.composite
def scheduled_frames(draw):
    """A frame the default schedule sends within 200 s, so that the analysis
    runs: a whole batch with its slot as seq, or a smaller final flush."""
    firmware = FirmwareConfig()
    kind, period, batch = draw(st.sampled_from(firmware._kinds()))
    t0 = period * batch * draw(st.integers(0, 200_000 // (period * batch)))
    count = batch
    if batch > 1 and draw(st.booleans()):
        count, seq = draw(st.integers(1, batch - 1)), draw(st.integers(0, 0xFFFF))
        flags = FLAG_FINAL_FLUSH
    else:
        seq, flags = int(firmware.slot(kind, t0 + (batch - 1) * period)) % 2**16, 0
    if kind is FrameKind.FSR_BATCH:
        payload = FsrBatchPayload(t0, tuple(draw(st.lists(
            st.sampled_from([0, 4095]) | st.integers(0, 4095), min_size=count, max_size=count))))
    elif kind is FrameKind.ACCEL_BATCH:
        payload = AccelBatchPayload(t0, tuple(draw(st.lists(
            st.tuples(*[st.integers(-32768, 32767)] * 3), min_size=count, max_size=count))))
    else:
        payload = BatteryStatusPayload(t0, draw(st.integers(0, 4095)), draw(st.integers(0, 100)))
    return TelemetryFrame(kind, seq, flags | draw(st.sampled_from([0, FLAG_CHARGING])), payload)


# the capture that divided by a zero median breath interval
@example([TelemetryFrame(FrameKind.FSR_BATCH, seq, 0, FsrBatchPayload(t0, codes))
          for seq, (t0, codes) in enumerate(
              [(0, (1,)), (3334, (0, 2)), (3334, (0, 1)), (3334, (0, 2, 1))])])
@settings(max_examples=200, deadline=None)
@given(st.lists(well_formed_frames() | scheduled_frames(), max_size=12))
def test_well_formed_frames_raise_nothing_but_insufficient_data(frames):
    try:
        result = analyze_session(frames)
        summarize(result)
        export_csv(result, io.StringIO())
        export_jsonl(result, io.StringIO())
    except InsufficientDataError:
        pass


# one sample per frame on every channel each millisecond: 3 frames per ms, so
# the seq wraps within 22 s
EVERY_MS = FirmwareConfig(fsr_rate_hz=1000, accel_rate_hz=1000, fsr_batch=1, accel_batch=1,
                          battery_period_ms=1)


@functools.cache
def every_ms_frames():
    """The 70,500 frames EVERY_MS sends in 23.5 s, indexed by their slot."""
    total_ms = 23_500
    force = [ForceSample(t, 4.0) for t in range(total_ms)]
    accel = np.array([(t, 0, 0, 1000) for t in range(total_ms)], dtype=ACCEL_DTYPE)
    return FirmwareEmulator(EVERY_MS).run(ArrayStimulus(force, accel), total_ms / 1000)


def seq_gaps_of(slots):
    """``seq_gaps`` of the frames EVERY_MS sends at ``slots``, received in that order."""
    series = extract_series([every_ms_frames()[i] for i in slots], firmware=EVERY_MS)
    assert series.misplaced_frames == NONE_MISPLACED
    return series.seq_gaps


def test_seq_gaps_across_16_bit_wrap():
    # seq 0 was lost while the counter wrapped from 0xFFFF
    assert [f.seq for f in every_ms_frames()[65533:65539]] == [65533, 65534, 65535, 0, 1, 2]
    assert seq_gaps_of([65533, 65534, 65535, 65537, 65538]) == 1


def test_seq_gaps_ignore_reordering_and_duplicates():
    assert seq_gaps_of([10, 12, 11, 12, 14]) == 1
    assert seq_gaps_of([65535, 65536, 65534, 65537, 65537]) == 0


@settings(max_examples=50, deadline=None)
@given(
    first=st.one_of(st.integers(0, 0xFFFF), st.integers(0xFC00, 0xFFFF)),
    kept=st.sets(st.integers(0, 2000), min_size=1),
)
def test_seq_gaps_count_missing_frames_anywhere_in_the_counter(first, kept):
    offsets = sorted(kept)
    assert seq_gaps_of([first + k for k in offsets]) == offsets[-1] - offsets[0] + 1 - len(offsets)


def test_seq_gaps_count_only_frames_on_the_schedule():
    # a frame off the schedule carries no seq the schedule sent, so a wild
    # seq of 40000 once read as 25,535 frames missing
    frames = run_frames()
    wild = TelemetryFrame(FrameKind.FSR_BATCH, 40_000, 0, FsrBatchPayload(2**31, (2000,) * 5))
    series = extract_series(frames + [wild])
    assert series.misplaced_frames == {**NONE_MISPLACED, "fsr_batch": 1}
    assert series.seq_gaps == extract_series(frames).seq_gaps == 0


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
    series = analyze_session(frames, cfg.analysis, cfg.device_model(), cfg.firmware).series
    assert series.seq_gaps == 0
    assert series.misplaced_frames == NONE_MISPLACED
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
    # a session's final flush of three FSR samples
    frames = [TelemetryFrame(FrameKind.FSR_BATCH, 0, FLAG_FINAL_FLUSH,
                             FsrBatchPayload(0, (0, 4095, 2000)))]
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


def test_export_rejects_an_unknown_format(tmp_path):
    path = tmp_path / "x.xml"
    with pytest.raises(ValueError, match="unknown export format 'xml'"):
        pipeline.export(analyze_session([]), str(path), "xml")
    assert not path.exists()


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
    for t, code, device, host, charging in result.series.battery.tolist():
        yield {"record": "battery", "t_ms": t, "code": code,
               "percent_device": device, "percent_host": host,
               "charging": int(charging)}
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
               "note": "apnea"}


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
# exact binary ties and their neighbours; decimal halves at 3, 4 and 6 digits,
# whose binary value lies just off the half, though x * 10**digits rounds onto
# it; values that round to -0, that repr writes with an exponent, that are too
# large for the export's numeric rule; and the non-finite ones
EDGE_REALS = [
    *(float(v) for tie in (0.0078125, 0.0234375)
      for v in (np.nextafter(tie, -math.inf), tie, np.nextafter(tie, math.inf))),
    0.0005, 0.0055, 0.00025, 0.00035, 2.5e-6, 3.5e-6,
    5e-7, -1e-7, -0.0, 1e-5, 9.99e-5, 1e8 + 0.5, 1e9, 1e16, math.inf, -math.inf, math.nan,
]
EDGE_TIMES = [-1, 359_999_999, 360_000_000]
_reals = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_REALS)


def session_analysis(fsr=(), accel=(), battery=(), breaths=(), intervals=(), estimates=(),
                     alerts=()) -> SessionAnalysis:
    """A SessionAnalysis holding these rows, as the export reads it."""
    series = ExtractedSeries(
        fsr=np.array(list(fsr), dtype=FSR_DTYPE),
        accel=np.array(list(accel), dtype=ACCEL_DTYPE),
        battery=np.array(list(battery), dtype=BATTERY_DTYPE),
        frame_counts={},
        misplaced_frames={},
        seq_gaps=0,
    )
    return SessionAnalysis(
        series=series,
        breaths=np.array(list(breaths), dtype=np.int64),
        artifacts=ArtifactMask(tuple(intervals)),
        estimates=list(estimates),
        alerts=list(alerts),
        span_ms=(0, 0),
    )


@st.composite
def session_analyses(draw):
    """Every record type, rail codes with NaN force, and empty channels."""
    return session_analysis(
        fsr=draw(st.lists(st.tuples(
            _export_times,
            st.sampled_from([0, 4095]) | st.integers(0, 4095),
            st.just(math.nan) | st.floats(-1e3, 1e4) | _reals))),
        accel=draw(st.lists(st.tuples(_export_times, *[st.integers(-32768, 32767)] * 3))),
        battery=draw(st.lists(st.tuples(
            _export_times, st.integers(0, 4095), st.integers(0, 100),
            st.integers(0, 100), st.booleans()), max_size=5)),
        breaths=draw(st.lists(_export_times, max_size=10)),
        intervals=draw(st.lists(st.tuples(_export_times, _export_times), max_size=5)),
        estimates=draw(st.lists(st.builds(
            RespirationEstimate, _export_times, _export_times, st.floats(0, 60) | _reals,
            st.integers(0, 100), st.floats(0, 1) | _reals, st.floats(0, 1) | _reals),
            max_size=5)),
        alerts=draw(st.lists(st.builds(Alert, _export_times, _export_times), max_size=3)),
    )


def assert_exports_match_the_reference_writers(result):
    for export, reference in ((export_csv, reference_csv), (export_jsonl, reference_jsonl)):
        got, expected = io.StringIO(), io.StringIO()
        assert export(result, got) == reference(result, expected)
        assert got.getvalue() == expected.getvalue()


def test_exports_of_edge_values_match_the_reference_writers():
    """Each edge real as a force, rate, confidence and fraction, NaN at both
    rails, and stamps before 0, just below 100 h and at 100 h."""
    times = EDGE_TIMES * len(EDGE_REALS)
    result = session_analysis(
        fsr=[(t, 2000, v) for t, v in zip(times, EDGE_REALS)]
        + [(-1, 0, math.nan), (360_000_000, 4095, math.nan)],
        accel=[(t, -5, 0, 32767) for t in EDGE_TIMES],
        battery=[(t, 4095, 0, 100, t > 0) for t in EDGE_TIMES],
        breaths=EDGE_TIMES,
        intervals=zip(EDGE_TIMES, EDGE_TIMES[1:]),
        estimates=[RespirationEstimate(t, t + 1, v, 2, v, v) for t, v in zip(times, EDGE_REALS)],
        alerts=[Alert(t, t + 1) for t in EDGE_TIMES],
    )
    assert_exports_match_the_reference_writers(result)


@settings(max_examples=200, deadline=None)
@given(session_analyses(), st.integers(1, 9))
def test_exports_match_the_reference_writers(result, block_rows):
    # small blocks put block boundaries inside every record group
    with mock.patch.object(pipeline, "BLOCK_ROWS", block_rows):
        assert_exports_match_the_reference_writers(result)


def test_export_of_a_session_matches_the_reference_writers():
    result = analyze_session(run_frames(duration=200.0, rate=20.0, posture="walking"))
    assert len(result.series.fsr) > pipeline.BLOCK_ROWS
    assert_exports_match_the_reference_writers(result)


def test_digit_table_holds_every_three_digit_value():
    assert [bytes(column).decode("ascii") for column in pipeline._DIGITS.T] == [
        f"{v:03d}" for v in range(1000)]


def test_export_memory_stays_flat_as_the_capture_grows():
    """The export holds one block at a time, however many rows there are."""

    class CountingSink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    peaks = {}
    for blocks in (2, 10):
        t = np.arange(blocks * pipeline.BLOCK_ROWS)
        fsr = np.zeros(t.size, dtype=FSR_DTYPE)
        fsr["t_ms"], fsr["code"] = 40 * t, t % 4096
        fsr["force_n"] = reconstruct_force(fsr["code"])
        accel = np.zeros(t.size, dtype=ACCEL_DTYPE)
        accel["t_ms"], accel["x_mg"], accel["y_mg"], accel["z_mg"] = 20 * t, t % 2001 - 1000, -7, 1000
        result = session_analysis(fsr=fsr, accel=accel)
        for export in (export_csv, export_jsonl):
            sink = CountingSink()
            tracemalloc.start()
            try:
                assert export(result, sink) == 2 * t.size
                peaks[export.__name__, blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sink.chars > 20 * 2 * t.size
    for export in (export_csv, export_jsonl):
        assert peaks[export.__name__, 10] < 1.5 * peaks[export.__name__, 2]
