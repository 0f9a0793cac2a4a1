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

import csv
import json
import logging
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import IO, Iterable, Sequence

import numpy as np
from scipy.signal import find_peaks

from .firmware import DeviceModel
from .protocol import FrameKind, TelemetryFrame
from .sensor import ACCEL_DTYPE, adc_to_voltage

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
) -> ExtractedSeries:
    """Unpack frames into time-ordered per-channel sample series."""
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

    fsr_period = _infer_period_ms(
        [t for t, _ in fsr_batches], [len(c) for _, c in fsr_batches], fallback=40
    )
    accel_period = _infer_period_ms(
        [t for t, _ in accel_batches], [len(s) for _, s in accel_batches], fallback=20
    )

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
) -> ArtifactMask:
    """Flag spans where |acceleration magnitude - 1 g| stays above threshold.

    ``samples`` are time-ordered :data:`ACCEL_DTYPE` rows.  Short
    excursions (a bump, a single step) are ignored: only runs lasting
    ``min_duration_ms`` or longer become artifact intervals.  A posture
    change that merely reorients gravity keeps magnitude at 1 g and is
    correctly not an artifact.  A run ends one sample period after its last
    hot sample, but never after the next sample, so intervals stay disjoint
    even where timestamps crowd closer than the period.
    """
    if len(samples) == 0:
        return ArtifactMask()
    t = samples["t_ms"]
    x, y, z = (samples[axis].astype(np.float64) for axis in ("x_mg", "y_mg", "z_mg"))
    mag = np.sqrt(x ** 2 + y ** 2 + z ** 2)
    hot = np.abs(mag - 1000.0) > threshold_mg
    if t.size > 1:
        period_ms = float(np.median(np.diff(t)))
    else:
        period_ms = 20.0
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
) -> SessionAnalysis:
    """Run the full host pipeline over a decoded frame sequence."""
    series = extract_series(frames, model)
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
    )

    window_ms = int(round(analysis.window_s * 1000))
    estimates: list[RespirationEstimate] = []
    n_windows = max((span_end - span_start) // window_ms, 0) if window_ms > 0 else 0
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


def format_relative_ms(t_ms: int) -> str:
    """hh:mm:ss.mmm elapsed-time stamp for a millisecond offset."""
    ms = int(t_ms)
    s, ms = divmod(ms, 1000)
    m, s = divmod(s, 60)
    h, m = divmod(m, 60)
    return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"


def _rows(result: SessionAnalysis) -> Iterable[dict]:
    """Export rows grouped by record type, each group time-ordered."""
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


def export_csv(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as CSV; returns the number of data rows."""
    writer = csv.DictWriter(fp, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    n = 0
    for row in _rows(result):
        row["t_iso"] = format_relative_ms(row["t_ms"])
        writer.writerow(row)
        n += 1
    return n


def export_jsonl(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as JSON Lines with the same fields as the CSV."""
    n = 0
    for row in _rows(result):
        row["t_iso"] = format_relative_ms(row["t_ms"])
        for key in ("force_n", "rate_bpm", "confidence", "artifact_fraction"):
            if key in row:
                row[key] = float(row[key])
        fp.write(json.dumps(row, sort_keys=True) + "\n")
        n += 1
    return n


def export(result: SessionAnalysis, path: str, fmt: str = "csv") -> int:
    """Export to a file path in ``csv`` or ``jsonl`` format."""
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fp:
        if fmt == "csv":
            return export_csv(result, fp)
        return export_jsonl(result, fp)
