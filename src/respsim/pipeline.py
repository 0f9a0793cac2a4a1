"""Host-side decoding pipeline: from frames back to physiology.

Given a decoded frame sequence, read as the columns of a
:class:`~respsim.protocol.FrameTable`, this module rebuilds the sample
series as numpy columns, inverts the electrical chain (code -> voltage ->
resistance -> force) over a whole array at once, detects breaths on the
detrended force signal, masks motion artifacts using the accelerometer magnitude,
estimates respiration rate per window, recomputes battery percent from the
raw sense code with the device's own percent map, and exports everything
as delimited rows for downstream tools.  The electrical chain is one
:class:`~respsim.firmware.DeviceModel`, the same object the firmware
emulator runs on.

Both export formats go through one writer.  Each record type is listed
once, with its rows and its fields by CSV column (integers, hh:mm:ss.mmm
stamps, reals, texts picked per row, and constants), and its CSV and JSON
line layouts are derived from that entry on import.  A block of rows
becomes one byte matrix filled field by field from digit tables.  A
value the numeric rule cannot render exactly, such as a near-tie or a
non-finite real, is formatted by Python itself, so the bytes are those of
Python's own formatting.

Samples are placed by the firmware config's periods, and only from frames
on its schedule (:meth:`~respsim.firmware.FirmwareConfig.on_schedule`);
any other frame is counted as misplaced.  Ordering is reconstructed from
payload timestamps: seq is 16-bit and wraps, while the millisecond
timestamps are 32-bit and monotonic at session scale.
"""

from __future__ import annotations

import json
import logging
import math
from collections import namedtuple
from dataclasses import astuple, dataclass
from itertools import groupby
from typing import IO, Iterable, Sequence

import numpy as np

from ._output import open_output
from .firmware import DeviceModel, FirmwareConfig
from .protocol import FLAG_CHARGING, FrameKind, FrameTable, TelemetryFrame
from .sensor import ACCEL_DTYPE, ParameterError, adc_to_voltage

log = logging.getLogger("respsim.pipeline")


class InsufficientDataError(ValueError):
    """Not enough signal to run the requested analysis step."""


def _median(values) -> float:
    """``np.median`` of a non-empty 1-D input without NaN, bit for bit.

    The same mean of the middle one or two values after a partition, but
    without ``np.median``'s NaN check of float input, which imports
    ``numpy.ma`` on first use.
    """
    a = np.asarray(values)
    half, odd = divmod(a.size, 2)
    kth = [half] if odd else [half - 1, half]
    return float(np.mean(np.partition(a, kth)[half - 1 + odd:half + 1]))


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
BATTERY_DTYPE = np.dtype([
    ("t_ms", np.int64), ("adc_code", np.int64), ("device_percent", np.int64),
    ("host_percent", np.int64), ("charging", np.bool_),
])


def _count_seq_gaps(seqs: np.ndarray) -> int:
    """Sequence numbers missing between the lowest and highest received.

    ``seq`` is 16 bits and wraps, so each value is first unwrapped against
    the previous frame in receive order by its signed serial difference
    (RFC 1982), one cumulative sum for all of them.  Duplicates count once,
    and reordered frames are no gap.
    """
    if not len(seqs):
        return 0
    step = (np.diff(seqs.astype(np.int64)) + 0x8000) % 0x10000 - 0x8000
    seen = _distinct(np.sort(np.concatenate(([0], np.cumsum(step)))))  # relative to seqs[0]
    return int(seen[-1] - seen[0] + 1 - seen.size)


def _batch_rows(
    table: FrameTable, keep: np.ndarray, values: dict[str, np.ndarray], dtype: np.dtype,
    period_ms: int,
) -> np.ndarray:
    """The samples of one channel's ``keep`` frames of ``table`` as time-ordered ``dtype`` rows.

    ``values`` maps field names to columns holding every frame's samples of
    the channel, frame after frame (an FSR code, an accel axis or a battery
    reading's field); other fields are left zero.  Sample j of a batch lies
    at ``t0 + j * period_ms``.  Both sorts are stable, so batches and samples
    with equal instants keep receive order; of the rows at one instant only
    the first is kept, so a copied or conflicting later frame adds none there.
    """
    t0, counts, first = table.t_ms[keep], table.count[keep], table.offset[keep]
    order = np.argsort(t0, kind="stable")
    t0, counts, first = t0[order], counts[order], first[order]
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.zeros(j.size, dtype=dtype)
    rows["t_ms"] = np.repeat(t0, counts) + j * period_ms
    take = np.repeat(first, counts) + j  # each row's sample in values
    del j  # each temporary of the series' length raises peak memory
    for name, column in values.items():
        rows[name] = column[take]
    del take
    t = rows["t_ms"]
    if (t[1:] > t[:-1]).all():
        return rows
    rows = rows[np.argsort(t, kind="stable")]
    t = rows["t_ms"]
    return rows[np.searchsorted(t, _distinct(t))]  # the first row per instant


@dataclass
class ExtractedSeries:
    """Per-channel samples in time order.

    ``fsr`` holds :data:`FSR_DTYPE` rows, ``accel`` :data:`ACCEL_DTYPE`
    rows and ``battery`` :data:`BATTERY_DTYPE` rows; ``len()`` of each is
    its sample count.  ``frame_counts`` counts every frame by kind, and
    ``misplaced_frames`` those off the firmware schedule, which add no rows.
    ``seq_gaps`` counts the seqs missing among the frames on it.
    """

    fsr: np.ndarray
    accel: np.ndarray
    battery: np.ndarray
    frame_counts: dict[str, int]
    misplaced_frames: dict[str, int]
    seq_gaps: int


def extract_series(
    frames: Iterable[TelemetryFrame],
    model: DeviceModel = DeviceModel(),
    firmware: FirmwareConfig = FirmwareConfig(),
) -> ExtractedSeries:
    """Unpack frames into time-ordered per-channel sample series.

    The frames are read as the columns of a
    :class:`~respsim.protocol.FrameTable`; any other frame sequence is
    converted to one first.  A frame off ``firmware``'s schedule is
    counted as misplaced and adds no rows; the others' samples lie
    ``firmware``'s period apart.
    """
    table = FrameTable.from_frames(frames)
    placed = firmware.on_schedule(table.kind, table.seq, table.flags, table.t_ms, table.count)
    of_kind = {kind: table.kind == kind for kind in FrameKind}
    fsr_keep, accel_keep, battery_keep = (of_kind[kind] & placed for kind in FrameKind)
    codes, xyz, readings = (table.samples[kind] for kind in FrameKind)
    fsr = _batch_rows(table, fsr_keep, {"code": codes}, FSR_DTYPE, firmware.fsr_period_ms)
    fsr["force_n"] = reconstruct_force(fsr["code"], model)
    accel = _batch_rows(table, accel_keep, dict(zip(("x_mg", "y_mg", "z_mg"), xyz.T)),
                        ACCEL_DTYPE, firmware.accel_period_ms)
    charging = (table.flags[of_kind[FrameKind.BATTERY_STATUS]] & FLAG_CHARGING) != 0
    battery = _batch_rows(table, battery_keep, {
        "adc_code": readings[:, 0], "device_percent": readings[:, 1], "charging": charging},
        BATTERY_DTYPE, firmware.battery_period_ms)
    wide = battery[battery["adc_code"] > model.adc.full_scale]
    if len(wide):
        raise ParameterError(
            f"battery reading at t_ms={wide['t_ms'][0]} has code {wide['adc_code'][0]}, "
            f"outside 0..{model.adc.full_scale} of adc.bits={model.adc.bits}, "
            f"so the capture needs a wider adc.bits")
    battery["host_percent"] = [battery_percent(c, model) for c in battery["adc_code"].tolist()]

    return ExtractedSeries(
        fsr=fsr,
        accel=accel,
        battery=battery,
        frame_counts={kind.name.lower(): int(np.count_nonzero(of_kind[kind]))
                      for kind in FrameKind},
        misplaced_frames={kind.name.lower(): int(np.count_nonzero(of_kind[kind] & ~placed))
                          for kind in FrameKind},
        seq_gaps=_count_seq_gaps(table.seq[placed]),
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
    period_ms: float,
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
    (40 breaths/min at 25 Hz) isn't rejected by rounding.  ``period_ms`` is
    that period, the firmware config's; ``times_ms`` must not decrease.

    Returns strictly increasing breath timestamps in ms: peaks at samples
    that share an instant count as one breath.  Raises
    :class:`InsufficientDataError` when the series is shorter than one
    detrend window.
    """
    _check_period(period_ms)
    t = np.asarray(times_ms, dtype=np.int64)
    v = np.asarray(force_n, dtype=np.float64)
    if t.size != v.size:
        raise InsufficientDataError("times and values must align")
    if t.size < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {t.size}")
    if (t[1:] < t[:-1]).any():
        raise InsufficientDataError("timestamps must not decrease")
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
    return _distinct(t[_find_peaks(detrended, threshold, distance, threshold)])


def _check_period(period_ms: float) -> None:
    if not (0 < period_ms < math.inf):
        raise ParameterError(f"period_ms must be finite and > 0, got {period_ms}")


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a sorted 1-D array, which here would import ``numpy.ma``."""
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _find_peaks(x: np.ndarray, height: float, distance: int, prominence: float) -> np.ndarray:
    """``scipy.signal.find_peaks(x, height=, distance=, prominence=)[0]`` for finite ``x``.

    The same filters, in scipy's order and with its tie rules:

    - *local maxima*: a run of equal samples higher than the samples on
      both sides of it is one peak, at the run's midpoint rounded down;
    - *height*: ``x[peak] >= height``;
    - *distance*: peaks are taken highest first, in ``np.argsort`` order as
      scipy takes them, and each one kept drops the others closer than
      ``distance`` samples;
    - *prominence*: the peak's height over the higher of its two bases.
      A base is the lowest sample met walking outward from the peak until
      a higher sample or the end of the signal.

    No walk is taken sample by sample.  A walk stops at the slope of a
    local maximum higher than the peak, and every such maximum passed the
    height filter, so a base is the lowest sample between the peak and
    the nearest higher height-passing maximum on that side, or the end.
    One ``reduceat`` takes the lowest sample between each pair of
    neighbouring candidates, and sparse tables over the candidates' heights
    and those lows let all walks step outward by powers of two at once,
    so the cost grows with the length of ``x``, not with length × peaks.
    """
    change = np.empty(x.size, dtype=bool)
    change[:1] = True
    np.not_equal(x[1:], x[:-1], out=change[1:])
    starts = np.flatnonzero(change)  # where each run of equal samples starts
    runs = x[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = (starts[top] + starts[top + 1] - 1) // 2
    peaks = peaks[x[peaks] >= height]
    heights = x[peaks]

    first = np.searchsorted(peaks, peaks - distance, side="right").tolist()
    stop = np.searchsorted(peaks, peaks + distance, side="left").tolist()
    keep = [True] * peaks.size
    for j in np.argsort(heights)[::-1].tolist():
        if keep[j]:
            keep[first[j]:j] = [False] * (j - first[j])
            keep[j + 1:stop[j]] = [False] * (stop[j] - j - 1)
    kept = np.flatnonzero(keep)
    if kept.size == 0:
        return kept

    # lows[i] is the lowest sample from candidate i - 1 to candidate i; lows[0]
    # reaches back to the start and lows[-1] on to the end
    lows = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    # level k: the highest candidate and the lowest low in each run of 2**k
    highest, lowest = [heights], [lows]
    while 2 ** len(highest) <= peaks.size:
        step = 2 ** (len(highest) - 1)
        highest.append(np.maximum(highest[-1][:-step], highest[-1][step:]))
        lowest.append(np.minimum(lowest[-1][:-step], lowest[-1][step:]))
    h = heights[kept]
    # candidates kept[i] - lo .. kept[i] - 1 and kept[i] + 1 .. hi are no higher
    # than the peak; left_base and right_base are the lows over those spans
    lo, hi = kept.copy(), kept.copy()
    left_base, right_base = lows[kept], lows[kept + 1]
    for k in reversed(range(len(highest))):
        step = 2 ** k
        at = np.maximum(lo - step, 0)
        ok = (lo >= step) & (highest[k][at] <= h)
        np.minimum(left_base, lowest[k][at], out=left_base, where=ok)
        lo[ok] -= step
        at = np.minimum(hi + 1, highest[k].size - 1)
        ok = (hi + step < peaks.size) & (highest[k][at] <= h)
        np.minimum(right_base, lowest[k][at + 1], out=right_base, where=ok)
        hi[ok] += step
    return peaks[kept[h - np.maximum(left_base, right_base) >= prominence]]


# ---------------------------------------------------------------------------
# motion artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArtifactMask:
    """Half-open [start_ms, end_ms) intervals flagged as motion-corrupted.

    The intervals are sorted and disjoint: each one ends at or before the
    next one starts.  :func:`detect_motion_artifacts` builds them that way,
    and :meth:`contains` and :meth:`masked_ms` depend on it.
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

    def masked_ms(self, t_ms) -> np.ndarray:
        """Masked time before each instant in ``t_ms``, in ms.

        A span's masked time is the difference of its two ends' values.
        The last interval starting at or before an instant counts up to
        it, and every interval before that one counts whole.
        """
        t = np.asarray(t_ms)
        if not self.intervals:
            return np.zeros(t.shape)
        starts, ends = np.array(self.intervals).T
        before = np.cumsum(ends - starts) - (ends - starts)  # masked time before each start
        i = np.searchsorted(starts, t, side="right") - 1
        return np.where(i >= 0, before[i] + np.minimum(t, ends[i]) - starts[i], 0)


def detect_motion_artifacts(
    samples: np.ndarray,
    period_ms: float,
    threshold_mg: float = 250.0,
    min_duration_ms: float = 500.0,
) -> ArtifactMask:
    """Flag spans where |acceleration magnitude - 1 g| stays above threshold.

    ``samples`` are time-ordered :data:`ACCEL_DTYPE` rows.  Short
    excursions (a bump, a single step) are ignored: only runs lasting
    ``min_duration_ms`` or longer become artifact intervals.  A posture
    change that merely reorients gravity keeps magnitude at 1 g and is
    correctly not an artifact.  A run ends one sample period, ``period_ms``
    as the firmware config sets it, after its last hot sample, but
    never after the next sample, so intervals stay disjoint even where
    timestamps crowd closer than the period.
    """
    _check_period(period_ms)
    if len(samples) == 0:
        return ArtifactMask()
    t = samples["t_ms"]
    # sqrt(x**2 + y**2 + z**2) - 1000, built in one float buffer in that order
    mag = np.square(samples["x_mg"], dtype=np.float64)
    square = np.empty_like(mag)
    for axis in ("y_mg", "z_mg"):
        mag += np.square(samples[axis], out=square, dtype=np.float64)
    del square
    np.sqrt(mag, out=mag)
    mag -= 1000.0
    hot = np.abs(mag, out=mag) > threshold_mg
    edges = np.flatnonzero(np.diff(hot, prepend=False, append=False))
    start_t, stop = t[edges[::2]], edges[1::2]  # each hot run is samples[start:stop]
    end_t = (t[stop - 1] + period_ms).astype(np.int64)  # truncated to a whole ms
    np.minimum(end_t, t[np.minimum(stop, t.size - 1)], out=end_t, where=stop < t.size)
    keep = end_t - start_t >= min_duration_ms
    return ArtifactMask(tuple(zip(start_t[keep].tolist(), end_t[keep].tolist())))


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
    # distinct instants in order, so no interval is zero or negative
    inside = _distinct(np.sort(breaths[(window_start_ms <= breaths) & (breaths < window_end_ms)]))
    accepted = inside[~mask.contains(inside)]

    if len(accepted) >= 2:
        intervals = np.diff(accepted)
        rate = 60000.0 / _median(intervals)
    elif len(accepted) == 1:
        rate = 60000.0 / window_ms
    else:
        rate = 0.0

    masked_lo, masked_hi = mask.masked_ms([window_start_ms, window_end_ms]).tolist()
    artifact_fraction = (masked_hi - masked_lo) / window_ms
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
    start_ms: int
    end_ms: int


def detect_apnea(
    breath_times_ms: Sequence[float],
    session_start_ms: int,
    session_end_ms: int,
    timeout_s: float = 30.0,
    artifacts: ArtifactMask | None = None,
) -> list[Alert]:
    """One alert per span with no accepted breath for ``timeout_s``.

    Breaths inside artifact intervals are excluded first, as in
    :func:`estimate_rate`.  Masked time shows no breath and no absence of
    one either, so a gap between accepted breaths raises an alert only when
    its unmasked time exceeds the timeout; the alert keeps the gap's bounds.
    """
    mask = artifacts or ArtifactMask()
    timeout_ms = timeout_s * 1000.0
    breaths = np.asarray(breath_times_ms, dtype=np.float64)
    marks = np.concatenate(
        ([session_start_ms], np.sort(breaths[~mask.contains(breaths)]), [session_end_ms]),
        dtype=np.float64)
    gap = np.diff(marks)
    late = (gap > timeout_ms) & (gap - np.diff(mask.masked_ms(marks)) > timeout_ms)
    alerts = []
    for a, b in zip(marks[:-1][late].tolist(), marks[1:][late].tolist()):
        alerts.append(Alert(int(a), int(b)))
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
            if not (0 < value < math.inf):
                raise ParameterError(f"{name} must be finite and > 0, got {value}")
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
    frames: Iterable[TelemetryFrame] | ExtractedSeries,
    analysis: AnalysisConfig = AnalysisConfig(),
    model: DeviceModel = DeviceModel(),
    firmware: FirmwareConfig = FirmwareConfig(),
) -> SessionAnalysis:
    """Run the full host pipeline over a decoded frame sequence, or over its extracted series."""
    series = (frames if isinstance(frames, ExtractedSeries)
              else extract_series(frames, model, firmware))
    # each channel is time-ordered, so its first and last rows bound it; a
    # sample covers one period, a battery reading only its instant
    channels = ((series.fsr, firmware.fsr_period_ms), (series.accel, firmware.accel_period_ms),
                (series.battery, 0))
    bounds = [(int(rows["t_ms"][0]), int(rows["t_ms"][-1]) + period)
              for rows, period in channels if len(rows)]
    span_start = min((first for first, _ in bounds), default=0)
    span_end = max((end for _, end in bounds), default=0)

    fsr_t, force = series.fsr["t_ms"], series.fsr["force_n"]
    usable = ~np.isnan(force)
    breaths = np.empty(0, dtype=np.int64)
    if usable.any():
        try:
            breaths = detect_breaths(
                fsr_t[usable], force[usable], firmware.fsr_period_ms,
                detrend_window_s=analysis.detrend_window_s,
                min_peak_distance_s=analysis.min_peak_distance_s,
                hysteresis_fraction=analysis.hysteresis_fraction,
            )
        except InsufficientDataError:
            log.info("not enough force signal for breath detection")

    artifacts = detect_motion_artifacts(
        series.accel, firmware.accel_period_ms,
        threshold_mg=analysis.artifact_threshold_mg,
        min_duration_ms=analysis.artifact_min_duration_ms,
    )

    # whole windows from the span's start, or one window over a shorter, non-empty span
    window_ms = int(round(analysis.window_s * 1000))
    starts = range(span_start, span_end - window_ms + 1, window_ms)
    windows = ([(lo, lo + window_ms) for lo in starts]
               or ([(span_start, span_end)] if span_end > span_start else []))
    estimates = [estimate_rate(breaths, lo, hi, artifacts) for lo, hi in windows]

    alerts = detect_apnea(breaths, span_start, span_end, analysis.apnea_timeout_s, artifacts)
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
    # with the capture's own device model the two percents agree exactly
    percent_gap = np.abs(series.battery["device_percent"] - series.battery["host_percent"])
    summary = {
        "frames": dict(series.frame_counts),
        "misplaced_frames": dict(series.misplaced_frames),
        "seq_gaps": series.seq_gaps,
        "span_ms": list(result.span_ms),
        "fsr_samples": len(series.fsr),
        "accel_samples": len(series.accel),
        "battery_reports": len(series.battery),
        "battery_percent_mismatches": int(np.count_nonzero(percent_gap > 1)),
        "breaths_detected": int(result.breaths.size),
        "median_rate_bpm": _median(rates) if rates else 0.0,
        "artifact_intervals": len(result.artifacts.intervals),
        "artifact_ms": float(result.artifacts.masked_ms(math.inf)),
        "alerts": [
            {"kind": "apnea", "start_ms": a.start_ms, "end_ms": a.end_ms}
            for a in result.alerts
        ],
    }
    if len(series.battery):
        first, last = (dict(zip(BATTERY_DTYPE.names, row))
                       for row in series.battery[[0, -1]].tolist())
        summary["battery"] = {
            "first_percent_device": first["device_percent"],
            "first_percent_host": first["host_percent"],
            "last_percent_device": last["device_percent"],
            "last_percent_host": last["host_percent"],
            "charging": last["charging"],
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


def _json_real(x: float, digits: int) -> str:
    """``json.dumps(float(f"{x:.{digits}f}"))``: round() rounds the same way."""
    return repr(round(x, digits)) if math.isfinite(x) else json.dumps(x)


# A block of rows is rendered as one uint8 matrix, one column per line: each
# field of the record's layout fills a few rows of it for the whole block
# with numpy, NUL bytes pad each field to its widest value, and the block's
# text is the transposed matrix without them.  Digits come from _DIGITS,
# whose column v is f"{v:03d}" as three ASCII bytes, so that one gather by
# value fills three digit rows.
_DIGITS = (np.arange(1000) // np.array([[100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
_HOUR_MS = 3_600_000


def _padded(mag: np.ndarray, width: int) -> np.ndarray:
    """Each non-negative integer of ``mag`` (uint64) as a column of ``width`` digits."""
    groups = -(-width // 3)
    digits = np.concatenate(
        [np.take(_DIGITS, mag // 1000 ** g % 1000, axis=1) for g in reversed(range(groups))])
    return digits[3 * groups - width:]


def _blank_zero_run(digits: np.ndarray) -> None:
    """Blank the run of '0's that each column of ``digits`` starts with."""
    run = np.ones(digits.shape[1], dtype=bool)
    for row in digits:
        run &= row == ord("0")
        row[run] = 0


def _sign(negative: np.ndarray) -> np.ndarray:
    return (negative * np.uint8(ord("-")))[None]


def _patch(chars: np.ndarray, lines: np.ndarray, texts: list[str]) -> np.ndarray:
    """``chars`` with each line of ``lines`` replaced by its text, widened as the texts need."""
    if not lines.size:
        return chars
    fill = np.array(texts, dtype=np.bytes_)
    fill = fill.view(np.uint8).reshape(lines.size, fill.itemsize).T
    chars = np.pad(chars, ((0, max(len(fill) - len(chars), 0)), (0, 0)))
    chars[:, lines] = 0
    chars[:len(fill), lines] = fill
    return chars


def _integers(values: np.ndarray) -> np.ndarray:
    """``str(v)`` of each integer."""
    v = values.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)  # abs(-2**63) wraps to itself, which uint64 reads right
    digits = _padded(mag, len(str(int(mag.max()))))
    _blank_zero_run(digits[:-1])
    negative = v < 0
    return np.concatenate([_sign(negative), digits]) if negative.any() else digits


def _stamps(t_ms: np.ndarray) -> np.ndarray:
    """:func:`format_relative_ms` of each instant.

    An instant before 0, or at 100 h or later, has no two-digit hours and
    is formatted by :func:`format_relative_ms` itself.
    """
    inside = (t_ms >= 0) & (t_ms < 100 * _HOUR_MS)
    s, ms = np.divmod(np.where(inside, t_ms, 0), 1000)
    m, s = np.divmod(s, 60)
    h, m = np.divmod(m, 60)
    chars = np.empty((12, t_ms.size), dtype=np.uint8)
    for at, value in ((0, h), (3, m), (6, s)):
        chars[at:at + 2] = np.take(_DIGITS[1:], value, axis=1)
    chars[9:] = np.take(_DIGITS, ms, axis=1)
    chars[[2, 5]] = ord(":")
    chars[8] = ord(".")
    outside = np.flatnonzero(~inside)
    return _patch(chars, outside, [format_relative_ms(t) for t in t_ms[outside].tolist()])


def _decimals(x: np.ndarray, digits: int, json_real: bool, blank_nan: bool) -> np.ndarray:
    """``f"{v:.{digits}f}"`` of each float, or ``_json_real(v, digits)`` if ``json_real``.

    Python rounds the exact binary value half to even.  ``y = x * 10**digits``
    is within ``|y| * 2**-53`` of it, so ``rint(y)`` gives the same integer
    unless the fraction of ``y`` lies within twice that of one half; such
    near-ties, values of 1e9 and more (whose ``y`` may not be exact) and
    non-finite values are formatted by Python one by one.  The sign is the
    sign bit, so a negative value that rounds to zero keeps its '-', as
    Python's does.  Above 1e-4 the JSON real is the fixed digits without
    trailing zeros, keeping one: the rounded decimal has at most 15
    significant digits, so it is the shortest one that reads back as the
    float ``round()`` returns.  ``repr`` writes smaller non-zero values
    with an exponent, and those go to Python too.  With ``blank_nan`` a NaN
    is written as nothing.
    """
    exact = np.abs(x) < 1e9
    y = np.where(exact, x, 0.0) * 10.0 ** digits
    r = np.rint(y)
    exact &= np.abs(y - np.floor(y) - 0.5) > np.abs(y) * 2.0 ** -52
    if json_real:
        exact &= (r == 0) | (np.abs(r) >= 10.0 ** (digits - 4))
    mag = np.abs(r).astype(np.uint64)
    width = max(len(str(int(mag.max()))), digits + 1)
    chars = _padded(mag, width)
    whole, fraction = chars[:width - digits], chars[width - digits:]
    _blank_zero_run(whole[:-1])
    if json_real:
        _blank_zero_run(fraction[:0:-1])  # trailing zeros, keeping the first digit
    point = np.full((1, x.size), ord("."), dtype=np.uint8)
    chars = np.concatenate([_sign(np.signbit(x)), whole, point, fraction])
    blank = blank_nan & np.isnan(x)
    chars[:, blank] = 0
    python = np.flatnonzero(~exact & ~blank)
    format_one = (lambda v: _json_real(v, digits)) if json_real else (lambda v: f"{v:.{digits}f}")
    return _patch(chars, python, [format_one(v) for v in x[python].tolist()])


# Fields render a block of structured rows, those of _RECORDS, as characters
def _int(name: str):
    return lambda rows: _integers(rows[name])


# A real field to ``digits`` decimals, a JSON real in a JSON line.  With blank_nan
# a NaN is written as nothing and its JSON key left out; it is never the first key.
_Real = namedtuple("_Real", "name digits blank_nan", defaults=(False,))


def _text(pick, *choices: bytes):
    """``choices[pick(rows)]`` for each row."""
    table = np.array(choices, dtype=np.bytes_)
    table = np.ascontiguousarray(table.view(np.uint8).reshape(len(choices), table.itemsize).T)
    return lambda rows: np.take(table, pick(rows), axis=1)


def _rail(rows: np.ndarray) -> np.ndarray:
    """0 for an FSR row with a force, else 1 at the low rail and 2 at the high one."""
    return np.isnan(rows["force_n"]) * np.where(rows["code"] <= 0, 1, 2)


_T_MS, _T_ISO, _END_MS = _int("t_ms"), lambda rows: _stamps(rows["t_ms"]), _int("end_ms")
_SPAN_DTYPE = np.dtype([("t_ms", np.int64), ("end_ms", np.int64)])
_ESTIMATE_DTYPE = np.dtype([
    ("t_ms", np.int64), ("end_ms", np.int64), ("rate_bpm", np.float64),
    ("breath_count", np.int64), ("confidence", np.float64), ("artifact_fraction", np.float64),
])

# Each record type once, in export order: its name, its structured rows as
# read from a SessionAnalysis, and its fields by CSV column besides record,
# t_ms and t_iso, each a renderer, a _Real or constant bytes.  An FSR force
# is NaN only at a rail, which the row marks as saturated.
_RECORDS = [
    ("fsr", lambda result: result.series.fsr,
     {"code": _int("code"), "force_n": _Real("force_n", 6, blank_nan=True),
      "saturated": _text(_rail, b"", b"low", b"high")}),
    ("accel", lambda result: result.series.accel,
     {"x_mg": _int("x_mg"), "y_mg": _int("y_mg"), "z_mg": _int("z_mg")}),
    ("battery", lambda result: result.series.battery,
     {"code": _int("adc_code"), "percent_device": _int("device_percent"),
      "percent_host": _int("host_percent"), "charging": _int("charging")}),
    ("breath", lambda result: result.breaths.astype([("t_ms", np.int64)]), {}),
    ("artifact", lambda result: np.array(list(result.artifacts.intervals), dtype=_SPAN_DTYPE),
     {"end_ms": _END_MS}),
    ("estimate", lambda result: np.array([astuple(e) for e in result.estimates],
                                         dtype=_ESTIMATE_DTYPE),
     {"end_ms": _END_MS, "rate_bpm": _Real("rate_bpm", 3), "breath_count": _int("breath_count"),
      "confidence": _Real("confidence", 4), "artifact_fraction": _Real("artifact_fraction", 4)}),
    ("alert", lambda result: np.array([(a.start_ms, a.end_ms) for a in result.alerts],
                                      dtype=_SPAN_DTYPE),
     {"end_ms": _END_MS, "note": b"apnea"}),
]
_JSON_STRINGS = {"record", "t_iso", "saturated", "note"}


def _line(record: str, fields: dict, json_line: bool) -> tuple:
    """A record type's line: renderers, and each run of constant bytes as one uint8 array.

    A CSV line holds every column of CSV_COLUMNS in order, empty where the record has
    no field; a JSON line holds its keys in ``json.dumps(row, sort_keys=True)``'s order.
    """
    fields = {"record": record.encode(), "t_ms": _T_MS, "t_iso": _T_ISO, **fields}
    parts = []
    if json_line:
        for i, key in enumerate(sorted(fields)):
            field, quote = fields[key], b'"' if key in _JSON_STRINGS else b""
            name = (b", " if i else b"{") + f'"{key}": '.encode()
            if isinstance(field, _Real) and field.blank_nan:
                name = _text(lambda rows, column=field.name: np.isnan(rows[column]), name, b"")
            parts += [name, quote, field, quote]
        parts.append(b"}\n")
    else:
        for i, column in enumerate(CSV_COLUMNS):
            parts += [b"," if i else b"", fields.get(column, b"")]
        parts.append(b"\n")
    items = []
    for constant, group in groupby(filter(None, parts), lambda part: isinstance(part, bytes)):
        if constant:
            items.append(np.frombuffer(b"".join(group), dtype=np.uint8))
        else:
            items += [(lambda rows, f=f: _decimals(rows[f.name], f.digits, json_line, f.blank_nan))
                      if isinstance(f, _Real) else f for f in group]
    return tuple(items)


_CSV_LINES, _JSONL_LINES = ([(rows, _line(record, fields, json_line))
                             for record, rows, fields in _RECORDS] for json_line in (False, True))


def _write(result: SessionAnalysis, fp: IO[str], lines: list) -> int:
    """Write every record by its line, one block at a time; returns the row count."""
    n = 0
    for rows_of, line in lines:
        rows = rows_of(result)
        for lo in range(0, len(rows), BLOCK_ROWS):
            block = rows[lo:lo + BLOCK_ROWS]
            chars = np.concatenate([
                np.broadcast_to(item[:, None], (item.size, block.size))
                if isinstance(item, np.ndarray) else item(block)
                for item in line]).T.ravel()
            fp.write(chars[chars != 0].tobytes().decode("ascii"))
        n += len(rows)
    return n


def export_csv(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as CSV; returns the number of data rows."""
    fp.write(",".join(CSV_COLUMNS) + "\n")
    return _write(result, fp, _CSV_LINES)


def export_jsonl(result: SessionAnalysis, fp: IO[str]) -> int:
    """Write the session as JSON Lines with the same fields as the CSV."""
    return _write(result, fp, _JSONL_LINES)


# The writer of each export format, by name: export() looks it up when called,
# so a wrapper set on the module's function, such as a mock or a tracer, runs.
EXPORTERS = {"csv": "export_csv", "jsonl": "export_jsonl"}


def export(result: SessionAnalysis, path: str, fmt: str = "csv") -> int:
    """Export to a file path in one of the :data:`EXPORTERS` formats."""
    if fmt not in EXPORTERS:
        raise ValueError(f"unknown export format {fmt!r}")
    with open_output(path, "w", encoding="utf-8", newline="") as fp:
        return globals()[EXPORTERS[fmt]](result, fp)
