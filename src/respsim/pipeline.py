"""Host-side decoding pipeline: from frames back to physiology.

Given a decoded frame sequence this module rebuilds the sample series as
numpy columns, inverts the electrical chain (code -> voltage -> resistance
-> force) over a whole array at once, detects breaths on the detrended
force signal, masks motion artifacts using the accelerometer magnitude,
estimates respiration rate per window, recomputes battery percent from the
raw sense code with the device's own percent map, and exports everything
as delimited rows for downstream tools.  The electrical chain is one
:class:`~respsim.firmware.DeviceModel`, the same object the firmware
emulator runs on.

Ordering is reconstructed from payload timestamps, not sequence numbers:
seq is 16-bit and wraps, while the millisecond timestamps are 32-bit and
monotonic at session scale.  seq only feeds the gap diagnostics.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.signal import find_peaks

from .firmware import DeviceModel, FirmwareConfig
from .protocol import FrameKind, TelemetryFrame
from .sensor import ACCEL_DTYPE, ParameterError, adc_to_voltage

log = logging.getLogger("respsim.pipeline")


class InsufficientDataError(ValueError):
    """Not enough signal to run the requested analysis step."""


# ---------------------------------------------------------------------------
# chain inversion
# ---------------------------------------------------------------------------

def reconstruct_force(codes, model: DeviceModel = DeviceModel()) -> np.ndarray:
    """Invert code -> voltage -> divider -> inverse-law force, code by code.

    The rails are unresolvable: code 0 means the divider output was at or
    below ground (sensor open, force indistinguishable from zero) and full
    scale means the sensor leg was effectively shorted (force beyond
    measurement), so both give NaN.  Every float operation runs in the
    order of the one-code inversion ``k / (r_fixed * (v_dd - v) / v)`` with
    ``v = code / full_scale * v_ref``, so the forces are identical to it,
    not merely close.
    """
    adc, divider = model.adc, model.divider
    code = np.asarray(codes, dtype=np.int64)
    v = code / adc.full_scale * adc.v_ref
    resolved = (code > 0) & (code < adc.full_scale) & (v < divider.v_dd)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_fsr = divider.r_fixed_ohm * (divider.v_dd - v) / v
        return np.where(resolved, model.fsr.k_ohm_n / r_fsr, np.nan)


def battery_percent(adc_code: int, model: DeviceModel = DeviceModel()) -> int:
    """Charge percent recomputed from the raw sense-divider ADC code.

    The code is scaled back to the terminal voltage and mapped by the
    device's own :meth:`~respsim.firmware.DeviceModel.device_percent`, so
    host and device share the OCV ends and the rounding and differ only by
    the quantization of the sense voltage.
    """
    return model.device_percent(adc_to_voltage(adc_code, model.adc) / model.sense_ratio)


# ---------------------------------------------------------------------------
# series extraction
# ---------------------------------------------------------------------------

# force_n is NaN at the rails: low at code <= 0, high otherwise
FSR_DTYPE = np.dtype([("t_ms", np.int64), ("code", np.int64), ("force_n", np.float64)])


@dataclass(frozen=True)
class BatteryPoint:
    t_ms: int
    adc_code: int
    device_percent: int
    host_percent: int
    charging: bool


def _infer_period_ms(t0s: Sequence[int], counts: Sequence[int], fallback: int) -> float:
    """Median intra-batch sample spacing from consecutive frame start times."""
    deltas = [
        (t0s[i + 1] - t0s[i]) / counts[i]
        for i in range(len(t0s) - 1)
        if counts[i] > 0 and t0s[i + 1] > t0s[i]
    ]
    if not deltas:
        return float(fallback)
    return float(np.median(deltas))


def _count_seq_gaps(seqs: list[int]) -> int:
    """Sequence numbers missing between the lowest and highest received.

    ``seq`` is 16 bits and wraps, so each value is first unwrapped against
    the previous frame in receive order by its signed serial difference
    (RFC 1982).  Duplicates count once, and reordered frames are no gap.
    """
    if not seqs:
        return 0
    prev = unwrapped = seqs[0]
    seen = {unwrapped}
    for seq in seqs[1:]:
        unwrapped += (seq - prev + 0x8000) % 0x10000 - 0x8000
        prev = seq
        seen.add(unwrapped)
    return max(seen) - min(seen) + 1 - len(seen)


def _sample_times(batches: list[tuple[int, tuple]], period_ms: float) -> np.ndarray:
    """``round(t0 + j * period_ms)`` for sample j of each (t0, samples) batch.

    numpy rounds half to even, as round() does, so the instants equal a
    per-sample loop's.
    """
    counts = np.array([len(samples) for _, samples in batches], dtype=np.int64)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    t0 = np.repeat(np.array([t0 for t0, _ in batches], dtype=np.int64), counts)
    return np.round(t0 + j * period_ms).astype(np.int64)


@dataclass
class ExtractedSeries:
    """Per-channel samples in time order.

    ``fsr`` holds :data:`FSR_DTYPE` rows and ``accel`` :data:`ACCEL_DTYPE`
    rows; ``len()`` of either is its sample count.
    """

    fsr: np.ndarray
    accel: np.ndarray
    battery: list[BatteryPoint]
    fsr_period_ms: float
    accel_period_ms: float
    frame_counts: dict[str, int]
    seq_gaps: int


def extract_series(
    frames: Iterable[TelemetryFrame],
    model: DeviceModel = DeviceModel(),
    firmware: FirmwareConfig = FirmwareConfig(),
) -> ExtractedSeries:
    """Unpack frames into time-ordered per-channel sample series.

    Sample periods are inferred from the batches' start times; a channel
    with a single batch takes its period from ``firmware``.
    """
    frames = list(frames)
    counts = {"fsr_batch": 0, "accel_batch": 0, "battery_status": 0}
    fsr_batches: list[tuple[int, tuple[int, ...]]] = []
    accel_batches: list[tuple[int, tuple[tuple[int, int, int], ...]]] = []
    battery_points: list[BatteryPoint] = []
    for f in frames:
        if f.kind == FrameKind.FSR_BATCH:
            counts["fsr_batch"] += 1
            fsr_batches.append((f.payload.t0_ms, f.payload.codes))
        elif f.kind == FrameKind.ACCEL_BATCH:
            counts["accel_batch"] += 1
            accel_batches.append((f.payload.t0_ms, f.payload.samples))
        elif f.kind == FrameKind.BATTERY_STATUS:
            counts["battery_status"] += 1
            p = f.payload
            battery_points.append(
                BatteryPoint(
                    t_ms=p.t_ms,
                    adc_code=p.adc_code,
                    device_percent=p.percent,
                    host_percent=battery_percent(p.adc_code, model),
                    charging=f.charging,
                )
            )
    # stable sorts: batches and samples with equal instants keep receive order
    fsr_batches.sort(key=itemgetter(0))
    accel_batches.sort(key=itemgetter(0))
    battery_points.sort(key=lambda p: p.t_ms)

    fsr_period = _infer_period_ms([t for t, _ in fsr_batches], [len(c) for _, c in fsr_batches],
                                  fallback=firmware.fsr_period_ms)
    accel_period = _infer_period_ms([t for t, _ in accel_batches],
                                    [len(s) for _, s in accel_batches],
                                    fallback=firmware.accel_period_ms)

    fsr = np.empty(sum(len(c) for _, c in fsr_batches), dtype=FSR_DTYPE)
    fsr["t_ms"] = _sample_times(fsr_batches, fsr_period)
    fsr["code"] = np.fromiter(chain.from_iterable(c for _, c in fsr_batches),
                              dtype=np.int64, count=len(fsr))
    fsr["force_n"] = reconstruct_force(fsr["code"], model)

    accel = np.empty(sum(len(s) for _, s in accel_batches), dtype=ACCEL_DTYPE)
    accel["t_ms"] = _sample_times(accel_batches, accel_period)
    xyz = np.fromiter(chain.from_iterable(chain.from_iterable(s for _, s in accel_batches)),
                      dtype=np.int64, count=3 * len(accel)).reshape(-1, 3)
    accel["x_mg"], accel["y_mg"], accel["z_mg"] = xyz.T

    return ExtractedSeries(
        fsr=fsr[np.argsort(fsr["t_ms"], kind="stable")],
        accel=accel[np.argsort(accel["t_ms"], kind="stable")],
        battery=battery_points,
        fsr_period_ms=fsr_period,
        accel_period_ms=accel_period,
        frame_counts=counts,
        seq_gaps=_count_seq_gaps([f.seq for f in frames]),
    )


# ---------------------------------------------------------------------------
# breath detection
# ---------------------------------------------------------------------------

def _moving_average(values: np.ndarray, width: int) -> np.ndarray:
    """Centered moving average; the window shrinks at the edges."""
    n = values.size
    c = np.concatenate(([0.0], np.cumsum(values)))
    half = width // 2
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return (c[hi] - c[lo]) / (hi - lo)


def detect_breaths(
    times_ms: Sequence[int] | np.ndarray,
    force_n: Sequence[float] | np.ndarray,
    detrend_window_s: float = 10.0,
    min_peak_distance_s: float = 1.5,
    hysteresis_fraction: float = 0.2,
) -> np.ndarray:
    """Find breath instants (inhalation peaks) in a force series.

    The series is detrended with a moving average before peak picking so
    slow baseline drift (strap tension, posture) doesn't swallow breaths.
    A peak must rise ``hysteresis_fraction`` of the detrended peak-to-peak
    range and sit at least ``min_peak_distance_s`` from its neighbors —
    the distance uses floor() so an exact multiple of the sample period
    (40 breaths/min at 25 Hz) isn't rejected by rounding.

    Returns breath timestamps in ms.  Raises
    :class:`InsufficientDataError` when the series is shorter than one
    detrend window.
    """
    t = np.asarray(times_ms, dtype=np.int64)
    v = np.asarray(force_n, dtype=np.float64)
    if t.size != v.size:
        raise InsufficientDataError("times and values must align")
    if t.size < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {t.size}")
    period_ms = float(np.median(np.diff(t)))
    if period_ms <= 0:
        raise InsufficientDataError("timestamps must be strictly increasing")
    fs = 1000.0 / period_ms
    duration_s = (t[-1] - t[0]) / 1000.0
    if duration_s < detrend_window_s:
        raise InsufficientDataError(
            f"need at least {detrend_window_s} s of data, got {duration_s:.1f} s"
        )
    width = max(int(round(detrend_window_s * fs)), 1)
    detrended = v - _moving_average(v, width)
    p2p = float(detrended.max() - detrended.min())
    if p2p <= 0.0:
        return np.empty(0, dtype=np.int64)
    distance = max(1, math.floor(min_peak_distance_s * fs))
    # The same fraction gates both absolute height and prominence.  Height
    # alone is not enough at slow rates: a 6 breaths/min lobe stays above
    # the threshold for seconds, and sensor noise riding on it would mint
    # extra local maxima past the distance gate.  Those wiggles have only
    # noise-sized prominence, so the prominence gate removes them without
    # touching real peaks (whose prominence is the full breath swing).
    threshold = hysteresis_fraction * p2p
    peaks, _ = find_peaks(
        detrended, height=threshold, distance=distance, prominence=threshold
    )
    return t[peaks]


# ---------------------------------------------------------------------------
# motion artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactMask:
    """Half-open [start_ms, end_ms) intervals flagged as motion-corrupted.

    The intervals are sorted and disjoint: each one ends at or before the
    next one starts.  :func:`detect_motion_artifacts` builds them that way,
    and :meth:`contains` depends on it.
    """

    intervals: tuple[tuple[int, int], ...] = ()

    def contains(self, t_ms) -> np.ndarray:
        """Whether each instant in ``t_ms`` falls inside an interval.

        One ``searchsorted`` over the interval starts finds the last
        interval starting at or before each instant; the instant is inside
        exactly when it precedes that interval's end.
        """
        t = np.asarray(t_ms)
        if not self.intervals:
            return np.zeros(t.shape, dtype=bool)
        starts, ends = np.array(self.intervals).T
        i = np.searchsorted(starts, t, side="right") - 1
        return (i >= 0) & (t < ends[i])

    def overlap_ms(self, start_ms: float, end_ms: float) -> float:
        return sum(
            max(0.0, min(b, end_ms) - max(a, start_ms)) for a, b in self.intervals
        )

    @property
    def total_ms(self) -> float:
        return sum(b - a for a, b in self.intervals)


def detect_motion_artifacts(
    samples: np.ndarray,
    threshold_mg: float = 250.0,
    min_duration_ms: float = 500.0,
    fallback_period_ms: float = FirmwareConfig().accel_period_ms,
) -> ArtifactMask:
    """Flag spans where |acceleration magnitude - 1 g| stays above threshold.

    ``samples`` are time-ordered :data:`ACCEL_DTYPE` rows.  Short
    excursions (a bump, a single step) are ignored: only runs lasting
    ``min_duration_ms`` or longer become artifact intervals.  A posture
    change that merely reorients gravity keeps magnitude at 1 g and is
    correctly not an artifact.  A run ends one sample period after its last
    hot sample, but never after the next sample, so intervals stay disjoint
    even where timestamps crowd closer than the period.  The period is the
    median sample spacing, or ``fallback_period_ms`` for a single sample.
    """
    if len(samples) == 0:
        return ArtifactMask()
    t = samples["t_ms"]
    x, y, z = (samples[axis].astype(np.float64) for axis in ("x_mg", "y_mg", "z_mg"))
    mag = np.sqrt(x ** 2 + y ** 2 + z ** 2)
    hot = np.abs(mag - 1000.0) > threshold_mg
    period_ms = float(np.median(np.diff(t))) if t.size > 1 else fallback_period_ms
    intervals: list[tuple[int, int]] = []
    edges = np.flatnonzero(np.diff(np.concatenate(([False], hot, [False])).astype(np.int8)))
    for start_idx, stop_idx in zip(edges[::2], edges[1::2]):
        start_t = int(t[start_idx])
        end_t = int(t[stop_idx - 1] + period_ms)
        if stop_idx < t.size:
            end_t = min(end_t, int(t[stop_idx]))
        if end_t - start_t >= min_duration_ms:
            intervals.append((start_t, end_t))
    return ArtifactMask(tuple(intervals))


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RespirationEstimate:
    window_start_ms: int
    window_end_ms: int
    rate_bpm: float
    breath_count: int
    confidence: float
    artifact_fraction: float


def estimate_rate(
    breath_times_ms: Sequence[int] | np.ndarray,
    window_start_ms: int,
    window_end_ms: int,
    artifacts: ArtifactMask | None = None,
) -> RespirationEstimate:
    """Respiration rate over one window from breath instants.

    Breaths inside artifact intervals are excluded before the rate median.
    Confidence combines interval regularity (1 - coefficient of variation
    over *all* in-window breaths, so excluded breaths still count against
    regularity) with the clean-time fraction — masking more of the window
    can therefore only lower confidence, never raise it.
    """
    if window_end_ms <= window_start_ms:
        raise InsufficientDataError("window must have positive length")
    mask = artifacts or ArtifactMask()
    window_ms = window_end_ms - window_start_ms
    breaths = np.asarray(breath_times_ms, dtype=np.float64)
    inside = breaths[(window_start_ms <= breaths) & (breaths < window_end_ms)]
    accepted = inside[~mask.contains(inside)]

    if len(accepted) >= 2:
        intervals = np.diff(accepted)
        rate = 60000.0 / float(np.median(intervals))
    elif len(accepted) == 1:
        rate = 60000.0 / window_ms
    else:
        rate = 0.0

    artifact_fraction = min(mask.overlap_ms(window_start_ms, window_end_ms) / window_ms, 1.0)
    if len(accepted) == 0:
        confidence = 0.0
    else:
        if len(inside) >= 3:
            all_intervals = np.diff(inside)
            mean = float(np.mean(all_intervals))
            cv = float(np.std(all_intervals)) / mean if mean > 0 else 1.0
            base = min(max(1.0 - cv, 0.0), 1.0)
        else:
            base = 0.5
        confidence = base * (1.0 - artifact_fraction)
    return RespirationEstimate(
        window_start_ms=int(window_start_ms),
        window_end_ms=int(window_end_ms),
        rate_bpm=rate,
        breath_count=len(accepted),
        confidence=confidence,
        artifact_fraction=artifact_fraction,
    )


# ---------------------------------------------------------------------------
# apnea alerts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Alert:
    kind: str
    start_ms: int
    end_ms: int


def detect_apnea(
    breath_times_ms: Sequence[float],
    session_start_ms: int,
    session_end_ms: int,
    timeout_s: float = 30.0,
) -> list[Alert]:
    """One alert per span with no accepted breath for ``timeout_s``."""
    timeout_ms = timeout_s * 1000.0
    marks = [float(session_start_ms)] + sorted(float(b) for b in breath_times_ms)
    marks.append(float(session_end_ms))
    alerts = []
    for a, b in zip(marks, marks[1:]):
        if b - a > timeout_ms:
            alerts.append(Alert("apnea", int(a), int(b)))
            log.warning("apnea: no breath detected between %d and %d ms", int(a), int(b))
    return alerts


# ---------------------------------------------------------------------------
# whole-session analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalysisConfig:
    window_s: float = 60.0
    detrend_window_s: float = 10.0
    min_peak_distance_s: float = 1.5
    hysteresis_fraction: float = 0.2
    artifact_threshold_mg: float = 250.0
    artifact_min_duration_ms: float = 500.0
    apnea_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (value > 0):
                raise ParameterError(f"{name} must be > 0, got {value}")
        if not (self.window_s * 1000 >= 1):
            raise ParameterError(f"window_s must be at least 1 ms, got {self.window_s}")


@dataclass
class SessionAnalysis:
    series: ExtractedSeries
    breaths: np.ndarray
    artifacts: ArtifactMask
    estimates: list[RespirationEstimate]
    alerts: list[Alert]
    span_ms: tuple[int, int]


def analyze_session(
    frames: Iterable[TelemetryFrame],
    analysis: AnalysisConfig = AnalysisConfig(),
    model: DeviceModel = DeviceModel(),
    firmware: FirmwareConfig = FirmwareConfig(),
) -> SessionAnalysis:
    """Run the full host pipeline over a decoded frame sequence."""
    series = extract_series(frames, model, firmware)
    fsr_t, accel_t, battery = series.fsr["t_ms"], series.accel["t_ms"], series.battery

    # each series is time-ordered, so its first and last entries bound it
    firsts = [int(ts[0]) for ts in (fsr_t, accel_t) if ts.size] + [p.t_ms for p in battery[:1]]
    if not firsts:
        return SessionAnalysis(
            series=series,
            breaths=np.empty(0, dtype=np.int64),
            artifacts=ArtifactMask(),
            estimates=[],
            alerts=[],
            span_ms=(0, 0),
        )
    span_start = min(firsts)
    span_end = int(round(max(
        (int(fsr_t[-1]) if fsr_t.size else span_start) + series.fsr_period_ms,
        (int(accel_t[-1]) if accel_t.size else span_start) + series.accel_period_ms,
        battery[-1].t_ms if battery else span_start,
    )))

    force = series.fsr["force_n"]
    usable = ~np.isnan(force)
    breaths = np.empty(0, dtype=np.int64)
    if usable.any():
        try:
            breaths = detect_breaths(
                fsr_t[usable], force[usable],
                detrend_window_s=analysis.detrend_window_s,
                min_peak_distance_s=analysis.min_peak_distance_s,
                hysteresis_fraction=analysis.hysteresis_fraction,
            )
        except InsufficientDataError:
            log.info("not enough force signal for breath detection")

    artifacts = detect_motion_artifacts(
        series.accel,
        threshold_mg=analysis.artifact_threshold_mg,
        min_duration_ms=analysis.artifact_min_duration_ms,
        fallback_period_ms=series.accel_period_ms,
    )

    window_ms = int(round(analysis.window_s * 1000))
    estimates: list[RespirationEstimate] = []
    n_windows = (span_end - span_start) // window_ms
    if n_windows == 0:
        estimates.append(estimate_rate(breaths, span_start, span_end, artifacts))
    else:
        for i in range(n_windows):
            lo = span_start + i * window_ms
            estimates.append(estimate_rate(breaths, lo, lo + window_ms, artifacts))

    accepted = breaths[~artifacts.contains(breaths)]
    alerts = detect_apnea(accepted, span_start, span_end, analysis.apnea_timeout_s)
    return SessionAnalysis(
        series=series,
        breaths=breaths,
        artifacts=artifacts,
        estimates=estimates,
        alerts=alerts,
        span_ms=(span_start, span_end),
    )


def summarize(result: SessionAnalysis) -> dict:
    """Compact session summary for human output and JSON dumps."""
    series = result.series
    rates = [e.rate_bpm for e in result.estimates if e.breath_count >= 2]
    summary = {
        "frames": dict(series.frame_counts),
        "seq_gaps": series.seq_gaps,
        "span_ms": list(result.span_ms),
        "fsr_samples": len(series.fsr),
        "accel_samples": len(series.accel),
        "battery_reports": len(series.battery),
        "breaths_detected": int(result.breaths.size),
        "median_rate_bpm": float(np.median(rates)) if rates else 0.0,
        "artifact_intervals": len(result.artifacts.intervals),
        "artifact_ms": float(result.artifacts.total_ms),
        "alerts": [
            {"kind": a.kind, "start_ms": a.start_ms, "end_ms": a.end_ms}
            for a in result.alerts
        ],
    }
    if series.battery:
        first, last = series.battery[0], series.battery[-1]
        summary["battery"] = {
            "first_percent_device": first.device_percent,
            "first_percent_host": first.host_percent,
            "last_percent_device": last.device_percent,
            "last_percent_host": last.host_percent,
            "charging": last.charging,
        }
    return summary


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "record", "t_ms", "t_iso", "end_ms", "code", "force_n", "saturated",
    "x_mg", "y_mg", "z_mg", "percent_device", "percent_host", "charging",
    "rate_bpm", "breath_count", "confidence", "artifact_fraction", "note",
]

# Rows are formatted and written this many at a time, so an export holds
# one block of text, never the whole file.
BLOCK_ROWS = 4096


def format_relative_ms(t_ms: int) -> str:
    """hh:mm:ss.mmm elapsed-time stamp for a millisecond offset."""
    ms = int(t_ms)
    s, ms = divmod(ms, 1000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"


_STAMP = np.frombuffer(b"00:00:00.000", dtype=np.uint8)
_STAMP_DIGITS = [0, 1, 3, 4, 6, 7, 9, 10, 11]


def _relative_ms_column(t_ms: np.ndarray) -> list[str]:
    """:func:`format_relative_ms` of every entry of an int64 array.

    numpy's divmod floors as Python's does.  Each stamp's 12 ASCII bytes
    are filled one digit column at a time; stamps whose hours do not fit
    two digits (100 h and beyond, or before 0) are formatted one by one.
    """
    s, ms = np.divmod(t_ms, 1000)
    m, s = np.divmod(s, 60)
    h, m = np.divmod(m, 60)
    hh = np.clip(h, 0, 99)
    chars = np.tile(_STAMP, (t_ms.size, 1))
    chars[:, _STAMP_DIGITS] = np.stack(
        [hh // 10, hh % 10, m // 10, m % 10, s // 10, s % 10, ms // 100, ms // 10 % 10, ms % 10],
        axis=1,
    ) + ord("0")
    stamps = chars.view("S12").ravel().astype("U12").tolist()
    for i in np.flatnonzero(h != hh).tolist():
        stamps[i] = format_relative_ms(t_ms[i])
    return stamps


def _saturation(code: int) -> str:
    return "low" if code <= 0 else "high"


def _csv_text(text: str) -> str:
    """A text cell as ``csv.writer`` writes it with ``lineterminator="\\n"``."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_real(x: float, digits: int) -> str:
    """``json.dumps(float(f"{x:.{digits}f}"))``: round() rounds the same way."""
    return repr(round(x, digits)) if math.isfinite(x) else json.dumps(x)


# One line builder per record type and format.  Each takes a row's t_ms and
# t_iso, then that record's fields in the order _records gives them.  A CSV
# line leaves every other column of CSV_COLUMNS empty; a JSONL line holds
# the record's keys as json.dumps(row, sort_keys=True) writes them.  An FSR
# force is NaN (f != f) only at a rail, which the row marks as saturated.
_CSV_LINES = {
    "fsr": lambda t, iso, code, f: (
        f"fsr,{t},{iso},,{code},{f:.6f},,,,,,,,,,,,\n" if f == f
        else f"fsr,{t},{iso},,{code},,{_saturation(code)},,,,,,,,,,,\n"),
    "accel": lambda t, iso, x, y, z: f"accel,{t},{iso},,,,,{x},{y},{z},,,,,,,,\n",
    "battery": lambda t, iso, code, device, host, charging: (
        f"battery,{t},{iso},,{code},,,,,,{device},{host},{charging},,,,,\n"),
    "breath": lambda t, iso: f"breath,{t},{iso},,,,,,,,,,,,,,,\n",
    "artifact": lambda t, iso, end: f"artifact,{t},{iso},{end},,,,,,,,,,,,,,\n",
    "estimate": lambda t, iso, end, rate, count, confidence, fraction: (
        f"estimate,{t},{iso},{end},,,,,,,,,,{rate:.3f},{count},{confidence:.4f},"
        f"{fraction:.4f},\n"),
    "alert": lambda t, iso, end, note: (
        f"alert,{t},{iso},{end},,,,,,,,,,,,,,{_csv_text(note)}\n"),
}
_JSONL_LINES = {
    "fsr": lambda t, iso, code, f: (
        f'{{"code": {code}, "force_n": {_json_real(f, 6)}, "record": "fsr", '
        f'"saturated": "", "t_iso": "{iso}", "t_ms": {t}}}\n' if f == f
        else f'{{"code": {code}, "record": "fsr", "saturated": "{_saturation(code)}", '
             f'"t_iso": "{iso}", "t_ms": {t}}}\n'),
    "accel": lambda t, iso, x, y, z: (
        f'{{"record": "accel", "t_iso": "{iso}", "t_ms": {t}, '
        f'"x_mg": {x}, "y_mg": {y}, "z_mg": {z}}}\n'),
    "battery": lambda t, iso, code, device, host, charging: (
        f'{{"charging": {charging}, "code": {code}, "percent_device": {device}, '
        f'"percent_host": {host}, "record": "battery", "t_iso": "{iso}", "t_ms": {t}}}\n'),
    "breath": lambda t, iso: f'{{"record": "breath", "t_iso": "{iso}", "t_ms": {t}}}\n',
    "artifact": lambda t, iso, end: (
        f'{{"end_ms": {end}, "record": "artifact", "t_iso": "{iso}", "t_ms": {t}}}\n'),
    "estimate": lambda t, iso, end, rate, count, confidence, fraction: (
        f'{{"artifact_fraction": {_json_real(fraction, 4)}, "breath_count": {count}, '
        f'"confidence": {_json_real(confidence, 4)}, "end_ms": {end}, '
        f'"rate_bpm": {_json_real(rate, 3)}, "record": "estimate", '
        f'"t_iso": "{iso}", "t_ms": {t}}}\n'),
    "alert": lambda t, iso, end, note: (
        f'{{"end_ms": {end}, "note": {json.dumps(note)}, "record": "alert", '
        f'"t_iso": "{iso}", "t_ms": {t}}}\n'),
}


def _records(result: SessionAnalysis) -> list[tuple[str, np.ndarray, list[np.ndarray]]]:
    """(record type, t_ms, field columns) per record type, in export order.

    Every column is an array, text in an object array, so a block of it
    converts back to Python values with one ``tolist()``.
    """
    fsr, accel = result.series.fsr, result.series.accel

    def column(items, attr: str, dtype=None) -> np.ndarray:
        return np.array([getattr(item, attr) for item in items], dtype=dtype)

    battery, estimates, alerts = result.series.battery, result.estimates, result.alerts
    intervals = np.array(result.artifacts.intervals, dtype=np.int64).reshape(-1, 2)
    return [
        ("fsr", fsr["t_ms"], [fsr["code"], fsr["force_n"]]),
        ("accel", accel["t_ms"], [accel["x_mg"], accel["y_mg"], accel["z_mg"]]),
        ("battery", column(battery, "t_ms"),
         [column(battery, attr, np.int64)
          for attr in ("adc_code", "device_percent", "host_percent", "charging")]),
        ("breath", result.breaths, []),
        ("artifact", intervals[:, 0], [intervals[:, 1]]),
        ("estimate", column(estimates, "window_start_ms"),
         [column(estimates, "window_end_ms", np.int64),
          column(estimates, "rate_bpm", np.float64),
          column(estimates, "breath_count", np.int64),
          column(estimates, "confidence", np.float64),
          column(estimates, "artifact_fraction", np.float64)]),
        ("alert", column(alerts, "start_ms"),
         [column(alerts, "end_ms", np.int64), column(alerts, "kind", object)]),
    ]


def _write(result: SessionAnalysis, fp: IO[str], lines: dict) -> int:
    """Write every record through ``lines``, one block at a time; returns the row count."""
    n = 0
    for record, t_ms, columns in _records(result):
        line = lines[record]
        t_ms = np.asarray(t_ms, dtype=np.int64)
        for lo in range(0, t_ms.size, BLOCK_ROWS):
            t = t_ms[lo:lo + BLOCK_ROWS]
            fields = [c[lo:lo + BLOCK_ROWS].tolist() for c in columns]
            fp.write("".join(map(line, t.tolist(), _relative_ms_column(t), *fields)))
        n += t_ms.size
    return n


def export_csv(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as CSV; returns the number of data rows."""
    fp.write(",".join(CSV_COLUMNS) + "\n")
    return _write(result, fp, _CSV_LINES)


def export_jsonl(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as JSON Lines with the same fields as the CSV."""
    return _write(result, fp, _JSONL_LINES)


def export(result: SessionAnalysis, path: str, fmt: str = "csv") -> int:
    """Export to a file path in ``csv`` or ``jsonl`` format."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        if fmt == "csv":
            return export_csv(result, fp)
        return export_jsonl(result, fp)
