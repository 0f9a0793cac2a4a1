"""Firmware emulator: the sampling schedule, batching, framing and energy.

The schedule mirrors the device firmware: FSR sampling at 25 Hz, the
accelerometer at 50 Hz, and a battery measurement every 2 s, all phased so
every channel takes its first sample at t=0.  :class:`FirmwareConfig` owns
it: :meth:`FirmwareConfig.session_ms` turns a session's duration into whole
milliseconds and ticks, and each channel samples at
``range(0, session_ms, period)``.  :mod:`respsim.session` synthesizes the
stimulus at the same instants, and the host places only frames that
:meth:`FirmwareConfig.on_schedule` finds on it.  Samples go out in
fixed-size batches (5 FSR codes, 10 accel triples per frame), each sent
when its last sample is taken.  :meth:`FirmwareConfig.sends` lists them in
send order: each whole batch at its :meth:`FirmwareConfig.slot`, the closed
form by which the host checks a frame's seq, and the partial batches last,
as the final flush.

Energy is accounted per tick from a power profile: a tick is ``radio``
while frame transmission airtime is pending, ``active`` when any channel
sampled, and ``idle`` otherwise.  The battery drains continuously, so a
long enough run walks the reported percent all the way down.  Those
per-tick state codes, one byte per tick, are the emulator's one activity
record; :attr:`FirmwareEmulator.activity_timeline` run-length encodes them
for :func:`~respsim.power.accumulate`.  They follow from the send instants
and the airtime per frame alone, so :func:`schedule_timeline` builds the
same timeline without a run; ``respsim power`` audits that.

:meth:`FirmwareEmulator.run` builds a session's frames as one
:class:`~respsim.protocol.FrameTable`, with no per-frame object: the ADC
codes of one array pass of the force column through the FSR chain and the
accel rows are the sample columns as they are, and each frame's time,
sample count, seq and flags are arithmetic on the columns of ``sends``.
Only the battery readings are a loop, because each needs the energy spent
up to its instant; energy is summed per battery period with ``np.cumsum``,
which adds in the same sequence as a per-tick ``+=``.
:func:`encode_session` writes the table as byte columns.  The tests hold
``run`` to a reference tick loop frame for frame, float for float.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import protocol
from .protocol import FrameKind
from .power import ACTIVE, IDLE, PRESETS, RADIO, PowerProfile, Timeline, UW_MS_PER_MWH
from .sensor import (
    AdcConfig,
    DividerConfig,
    FULL_SCALE_MG,
    FsrModel,
    LINEAR_OCV,
    OcvCurve,
    ParameterError,
    _round_half_up,
    adc_quantize,
    fsr_codes,
)

# every t0_ms and t_ms on the wire is a u32, and a session samples up to,
# not including, its end, so this is the longest session the wire can stamp
MAX_SESSION_MS = 2 ** 32


class StimulusError(LookupError):
    """A stimulus without exactly one sample at each scheduled instant."""


@dataclass(frozen=True)
class FirmwareConfig:
    fsr_rate_hz: int = 25
    accel_rate_hz: int = 50
    battery_period_ms: int = 2000
    fsr_batch: int = 5
    accel_batch: int = 10
    tick_ms: int = 1

    def __post_init__(self) -> None:
        for name in ("fsr_rate_hz", "accel_rate_hz", "battery_period_ms",
                     "fsr_batch", "accel_batch", "tick_ms"):
            value = getattr(self, name)
            if value <= 0 or value % 1 != 0:
                raise ParameterError(f"{name} must be a positive whole number")
            object.__setattr__(self, name, int(value))
        # reject schedules and batch sizes the hardware cannot honor
        for name, rate in (("fsr_rate_hz", self.fsr_rate_hz),
                           ("accel_rate_hz", self.accel_rate_hz)):
            if 1000 % rate != 0:
                raise ParameterError(
                    f"{name}={rate} does not divide the 1000 ms tick grid evenly"
                )
        for name, period in (("fsr", self.fsr_period_ms),
                             ("accel", self.accel_period_ms),
                             ("battery", self.battery_period_ms)):
            if period % self.tick_ms != 0:
                raise ParameterError(
                    f"{name} period {period} ms is not a multiple of tick_ms={self.tick_ms}"
                )
        for name, kind in (("fsr_batch", FrameKind.FSR_BATCH),
                           ("accel_batch", FrameKind.ACCEL_BATCH)):
            count = getattr(self, name)
            size = protocol.batch_payload_len(kind, count)
            if size > protocol.MAX_PAYLOAD:
                raise ParameterError(
                    f"{name}={count} needs a {size}-byte payload, "
                    f"MTU budget allows {protocol.MAX_PAYLOAD}"
                )

    @property
    def fsr_period_ms(self) -> int:
        return 1000 // self.fsr_rate_hz

    @property
    def accel_period_ms(self) -> int:
        return 1000 // self.accel_rate_hz

    def _kinds(self) -> tuple[tuple[FrameKind, int, int], ...]:
        """``(kind, period, batch)`` per frame kind; a battery reading is a batch of one."""
        return ((FrameKind.FSR_BATCH, self.fsr_period_ms, self.fsr_batch),
                (FrameKind.ACCEL_BATCH, self.accel_period_ms, self.accel_batch),
                (FrameKind.BATTERY_STATUS, self.battery_period_ms, 1))

    def _grid(self) -> np.ndarray:
        """``(period, batch)`` rows indexed by kind code."""
        grid = np.ones((2, max(FrameKind) + 1), dtype=np.int64)
        for k, p, b in self._kinds():
            grid[:, k] = p, b
        return grid

    def slot(self, kind, send_ms):
        """Each frame's index in the send order: kind k sends at ``(m * b + b - 1) * p``, and
        the sends before a frame's instant, or at it with a lower kind code, precede it."""
        return sum((send_ms + (k < kind) + p - 1) // (p * b) for k, p, b in self._kinds())

    def sends(self, total_ms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(send_ms, kind, first)`` of every frame a session of ``total_ms`` sends, in send
        order, as int64 columns; ``first`` indexes the batch's first sample in its channel.

        Each whole batch is sent when its last sample is taken, at its :meth:`slot`.  The
        final flush's partial batches come last, FSR before accel, at ``total_ms``: the
        clock after the last tick, where :meth:`FirmwareEmulator.flush` sends them.
        """
        whole, flush = [], []
        for kind, period, batch in self._kinds():
            samples = -(-total_ms // period)  # len(range(0, total_ms, period))
            start = np.arange(0, samples - batch + 1, batch, dtype=np.int64)
            whole.append((kind, start, (start + batch - 1) * period))
            if samples % batch:
                flush.append((kind, samples - samples % batch))
        n = sum(len(start) for _, start, _ in whole)
        send_ms = np.full(n + len(flush), total_ms, dtype=np.int64)
        kind, first = np.empty((2, send_ms.size), dtype=np.int64)
        for k, start, t in whole:
            at = self.slot(k, t)
            send_ms[at], kind[at], first[at] = t, k, start
        for at, (k, start) in enumerate(flush, n):
            kind[at], first[at] = k, start
        return send_ms, kind, first

    def on_schedule(self, kind, seq, flags, t_ms, count) -> np.ndarray:
        """Whether each frame, as frame-table columns, is one this schedule sends: a whole
        batch, or a smaller final flush, on its kind's grid of ``period * batch``, and
        without the flush flag (whose slot depends on the session's length) a ``seq``
        equal to its slot mod 2**16."""
        period, batch = self._grid()[:, kind]
        flush = (flags & protocol.FLAG_FINAL_FLUSH) != 0
        slot = self.slot(kind, t_ms + (batch - 1) * period)
        return ((t_ms % (period * batch) == 0) & ((count == batch) | flush & (count < batch))
                & (flush | (seq == slot % 2 ** 16)))

    def session_ms(self, duration_s: float) -> int:
        """A session's length in ms, where every channel's ``range(0, ms, period)`` ends."""
        exact_ms = duration_s * 1000.0
        if not (math.isfinite(exact_ms) and exact_ms >= 0):
            raise ParameterError(f"duration_s must be finite and >= 0, got {duration_s}")
        total_ms = round(exact_ms)
        if total_ms > MAX_SESSION_MS:
            raise ParameterError(
                f"duration_s must be at most {MAX_SESSION_MS / 1000} ({MAX_SESSION_MS} ms, "
                f"the reach of the wire's u32 timestamps), got {duration_s}"
            )
        if abs(exact_ms - total_ms) > 1e-6:
            raise ParameterError(
                f"duration_s={duration_s} is not a whole number of milliseconds"
            )
        if total_ms % self.tick_ms != 0:
            raise ParameterError(
                f"duration {total_ms} ms is not a multiple of tick_ms={self.tick_ms}"
            )
        return total_ms


@dataclass(frozen=True)
class DeviceModel:
    """Electrical chain parameters shared by firmware and host inversion."""

    fsr: FsrModel = FsrModel()
    divider: DividerConfig = DividerConfig()
    adc: AdcConfig = AdcConfig()
    ocv: OcvCurve = LINEAR_OCV
    sense_ratio: float = 0.4
    capacity_mah: float = 450.0
    nominal_v: float = 3.7

    def __post_init__(self) -> None:
        for name in ("capacity_mah", "nominal_v"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ParameterError(f"{name} must be positive and finite, got {value}")
        # the full-charge rail, the last OCV point, must fit the ADC front end
        if not (0 < self.sense_ratio < 1 and self.ocv.v_max * self.sense_ratio <= self.adc.v_ref):
            raise ParameterError(
                f"sense_ratio={self.sense_ratio} must be in (0, 1) and scale the full-charge "
                f"{self.ocv.v_max} V of ocv_points to at most adc.v_ref={self.adc.v_ref} V"
            )
        if self.adc.full_scale > protocol.MAX_CODE:
            raise ParameterError(
                f"adc.bits={self.adc.bits} gives codes up to {self.adc.full_scale}, "
                f"the wire carries at most {protocol.MAX_CODE}"
            )

    def device_percent(self, v_batt: float) -> int:
        """Firmware's charge percent from terminal voltage, round-half-up."""
        span = self.ocv.v_max - self.ocv.v_min
        pct = 100.0 * (v_batt - self.ocv.v_min) / span
        return _round_half_up(min(max(pct, 0.0), 100.0))


class ArrayStimulus:
    """Stimulus columns: ``force_t_ms``/``force_n`` from a ``ForceSample`` list, ``accel`` rows."""

    def __init__(self, force_samples, accel_rows):
        self.force_t_ms = np.array([s.t_ms for s in force_samples])
        self.force_n = np.array([s.force_n for s in force_samples], dtype=np.float64)
        self.accel = accel_rows


class FirmwareEmulator:
    """Deterministic software twin of the sensor firmware.

    An emulator is ready when built: the constructor boots it, and
    :meth:`boot` resets it to that fresh state.  :meth:`run` drives it over
    an :class:`ArrayStimulus`.  Identical configuration and stimulus
    reproduce identical frames.
    """

    def __init__(
        self,
        config: FirmwareConfig = FirmwareConfig(),
        model: DeviceModel = DeviceModel(),
        power_profile: PowerProfile | None = None,
        initial_soc: float = 1.0,
        charging: bool = False,
    ) -> None:
        if not (0.0 <= initial_soc <= 1.0):
            raise ParameterError(f"initial_soc must be in [0, 1], got {initial_soc}")
        self.config = config
        self.model = model
        self.power_profile = power_profile or PRESETS["abstract-claim"]
        self.initial_soc = initial_soc
        self.charging = charging
        self.boot()

    # -- lifecycle ----------------------------------------------------------

    def boot(self) -> None:
        """Reset all runtime state to that of a freshly built emulator."""
        self._clock_ms = 0
        self.energy_mwh = 0.0
        self._tx_remaining_ms = 0
        self._ticks = bytearray()  # the activity state code of every tick
        # one tick's energy in each state, indexed by state code
        self._tick_mwh = (self.power_profile.state_powers_uw()
                          * self.config.tick_ms / UW_MS_PER_MWH)
        self.battery_log: list[dict] = []  # one truth row per battery reading

    # -- views --------------------------------------------------------------

    @property
    def soc(self) -> float:
        """Charge remaining; derived from accumulated energy in one step so
        sub-picojoule per-tick draws don't get lost to float cancellation."""
        used = self.energy_mwh / (self.model.capacity_mah * self.model.nominal_v)
        return max(self.initial_soc - used, 0.0)

    @property
    def activity_timeline(self) -> Timeline:
        return Timeline.from_ticks(np.frombuffer(self._ticks, dtype=np.int8),
                                   self.config.tick_ms)

    # perfbench's tracer counts a run's intervals through this name
    _timeline = activity_timeline

    # -- running ------------------------------------------------------------

    def _battery_reading(self, t_ms: int) -> tuple[int, int]:
        """Measure the battery at ``t_ms``: ``(adc_code, percent)``, logged as a truth row."""
        soc = self.soc
        v = self.model.ocv.voltage(soc)
        sense = v * self.model.sense_ratio  # DeviceModel holds it within v_ref
        code = adc_quantize(sense, self.model.adc)
        percent = self.model.device_percent(v)
        self.battery_log.append({"t_ms": t_ms, "soc": soc, "v_terminal": v, "sense_v": sense,
                                 "adc_code": code, "percent": percent})
        return code, percent

    def run(self, stimulus: ArrayStimulus, duration_s: float) -> protocol.FrameTable:
        """Boot fresh and run the schedule for a duration, final flush included.

        :meth:`FirmwareConfig.session_ms` turns ``duration_s`` into the
        schedule's length.  The returned table is every frame the device
        would have sent, in transmit order, with the column types of a table
        :func:`~respsim.protocol.split_stream` reads.  Each channel of
        ``stimulus`` must hold exactly the instants
        ``range(0, session_ms, period)``, or :class:`StimulusError` is raised.
        Activity, energy and battery readings follow from the ticks that
        emit frames.
        """
        total_ms = self.config.session_ms(duration_s)
        self.boot()
        cfg = self.config
        for name, t_ms, period in (("force", stimulus.force_t_ms, cfg.fsr_period_ms),
                                   ("accel", stimulus.accel["t_ms"], cfg.accel_period_ms)):
            if not np.array_equal(t_ms, np.arange(0, total_ms, period)):
                raise StimulusError(f"{name} samples must be at exactly the instants "
                                    f"range(0, {total_ms}, {period}) ms")
        codes = fsr_codes(stimulus.force_n, self.model.fsr, self.model.divider, self.model.adc)
        axes = [stimulus.accel[a] for a in ("x_mg", "y_mg", "z_mg")]
        _check_accel(axes, stimulus.accel["t_ms"])

        send_ms, kind, first = cfg.sends(total_ms)
        states, self._tx_remaining_ms = _activity(
            cfg, self.power_profile.tx_ms_per_frame, send_ms, total_ms)
        self._ticks = bytearray(states)
        readings = []
        metered = 0
        for t in send_ms[kind == FrameKind.BATTERY_STATUS].tolist():
            k = t // cfg.tick_ms
            self._add_energy(self._tick_mwh[states[metered:k]])
            metered = k
            readings.append(self._battery_reading(t))
        self._add_energy(self._tick_mwh[states[metered:]])
        self._clock_ms = total_ms

        period, batch = cfg._grid()[:, kind]
        samples = -(-total_ms // period)  # in the channel of each frame
        flags = np.full(kind.size, protocol.FLAG_CHARGING if self.charging else 0, np.uint8)
        flags[send_ms == total_ms] |= protocol.FLAG_FINAL_FLUSH
        return protocol.FrameTable(
            kind.astype(np.uint8), np.arange(kind.size).astype(np.uint16), flags,
            first * period, np.minimum(batch, samples - first),
            {FrameKind.FSR_BATCH: codes.astype(np.uint16),
             FrameKind.ACCEL_BATCH: np.stack(axes, axis=1).astype(np.int16),
             FrameKind.BATTERY_STATUS: np.array(readings, dtype=np.uint16).reshape(-1, 2)})

    def _add_energy(self, tick_mwh: np.ndarray) -> None:
        """Add per-tick energies to the total one after another, as ``+=`` does.

        ``tick_mwh`` is overwritten.
        """
        if tick_mwh.size:
            tick_mwh[0] += self.energy_mwh
            self.energy_mwh = float(np.cumsum(tick_mwh)[-1])


def _activity(
    config: FirmwareConfig, tx_ms_per_frame: int, send_ms: np.ndarray, total_ms: int
) -> tuple[np.ndarray, int]:
    """A session's ``(states, tx_remaining_ms)``, as ``tick()`` decides them.

    ``send_ms`` is the sorted send instants of :meth:`FirmwareConfig.sends`;
    the final flush, sent at ``total_ms`` after the last tick, adds no
    airtime.  ``states`` is each tick's activity code.  Pending airtime grows
    only on ticks that send frames, by one frame's airtime per send at the
    tick's instant, and drains by ``tick_ms`` per tick in between, so the
    queue is walked once per sending tick; ``tx_remaining_ms`` is what the
    tick loop leaves pending, negative when airtime is not a multiple of
    ``tick_ms``.
    Nothing here depends on the stimulus or the power draws.
    """
    tick = config.tick_ms
    states = np.full(total_ms // tick, IDLE, dtype=np.int8)
    for _, period, _ in config._kinds():
        states[::period // tick] = ACTIVE
    sent = send_ms[send_ms < total_ms]
    start = np.flatnonzero(np.diff(sent, prepend=-1))  # each run of one instant's sends
    # a zero-frame entry at the last tick drains the queue to the end
    instants = np.append(sent[start], total_ms - tick).tolist()
    counts = np.append(np.diff(start, append=len(sent)), 0).tolist()
    tx = 0
    pos = 0  # first tick not yet walked
    for t, n in zip(instants, counts):
        k = t // tick
        if tx > 0:
            radio = min(-(-tx // tick), k + 1 - pos)
            states[pos:pos + radio] = RADIO
            tx -= radio * tick
        tx += tx_ms_per_frame * n
        pos = k + 1
    return states, tx


def schedule_timeline(config: FirmwareConfig, tx_ms_per_frame: int, duration_s: float) -> Timeline:
    """The activity timeline of a session, the one :meth:`FirmwareEmulator.run` records."""
    total_ms = config.session_ms(duration_s)
    send_ms, _, _ = config.sends(total_ms)
    states, _ = _activity(config, tx_ms_per_frame, send_ms, total_ms)
    return Timeline.from_ticks(states, config.tick_ms)


def _check_accel(axes, times) -> None:
    """Reject accel samples past full scale, as a negative force is rejected; ``axes``
    are their x, y and z columns, each bounded by its min and max without a copy."""
    if len(times) and any(np.min(a) < -FULL_SCALE_MG or np.max(a) > FULL_SCALE_MG for a in axes):
        i = next(i for i, s in enumerate(zip(*axes)) if max(map(abs, s)) > FULL_SCALE_MG)
        raise ParameterError(f"accel sample {tuple(int(a[i]) for a in axes)} at t={times[i]} ms "
                             f"is beyond ±{FULL_SCALE_MG} mg")


def encode_session(frames: Sequence[protocol.TelemetryFrame]) -> bytes:
    """The wire bytes of a frame sequence, ``b"".join(map(protocol.encode, frames))``.

    A :class:`~respsim.protocol.FrameTable` is written as it is, and any
    other sequence as its table, by :func:`~respsim.protocol.write_table`.
    Whatever ``encode`` rejects raises the error ``encode`` raises for the
    first frame it rejects.
    """
    try:
        table = protocol.FrameTable.from_frames(frames)
    except protocol.ProtocolError:
        for frame in frames:
            protocol.encode(frame)  # raises at the first frame it rejects
        raise
    return protocol.write_table(table)
