"""Firmware emulator: millisecond tick scheduler, batching, and framing.

The schedule mirrors the device firmware: FSR sampling at 25 Hz, the
accelerometer at 50 Hz, and a battery measurement every 2 s, all phased so
every channel takes its first sample at t=0.  :class:`FirmwareConfig` owns
it: :meth:`FirmwareConfig.session_ms` turns a session's duration into whole
milliseconds and ticks, and each channel samples at
``range(0, session_ms, period)``.  The emulator runs that schedule,
:mod:`respsim.session` synthesizes its stimulus at the same instants, and
the host places only frames that :meth:`FirmwareConfig.on_schedule` finds on it.
Samples accumulate into
fixed-size batches (5 FSR codes, 10 accel triples per frame) and each
completed batch is framed immediately; partially filled batches are flushed
with the final-flush flag when a run ends.

Energy is accounted per tick from a power profile: a tick is ``radio``
while frame transmission airtime is pending, ``active`` when any channel
sampled, and ``idle`` otherwise.  The battery drains continuously, so a
long enough run walks the reported percent all the way down.  The
emulator's one activity record is those per-tick state codes, one byte per
tick, which both :meth:`FirmwareEmulator.tick` and
:meth:`FirmwareEmulator.run` keep;
:attr:`FirmwareEmulator.activity_timeline` run-length encodes it with
:meth:`~respsim.power.Timeline.from_ticks` for
:func:`~respsim.power.accumulate` to read.  The codes follow from the
send instants and the airtime per frame alone, so :func:`schedule_timeline`
builds the same timeline with ``_activity``, without a run, stimulus or
frames; ``respsim power`` audits that.

:meth:`FirmwareConfig.sends` lists a session's frames in send order: each
whole batch at its :meth:`FirmwareConfig.slot`, the closed form by which the
host checks a frame's seq, and the final flush last.

:meth:`FirmwareEmulator.tick` steps that schedule one tick at a time and is
the reference.  :meth:`FirmwareEmulator.run` derives the same schedule in
bulk from an :class:`ArrayStimulus`, whose columns hold exactly each
channel's instants: frames in the order of :meth:`FirmwareConfig.sends`,
tick activity from ``_activity``, ADC codes from one array pass of the
force column through the FSR chain, each batch cut as a slice of those
arrays, and energy summed per battery period with ``np.cumsum``, which adds
in the same sequence as the per-tick ``+=``.  Because ``sends`` lists the
final flush too, ``run`` frames every batch in one loop and ``respsim
stream`` paces each frame by its send instant.  Both frame every batch
through one builder.  The tests hold ``run`` and ``sends`` to a tick loop
frame for frame, float for float.
"""

from __future__ import annotations

import math
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
    divider_voltage,
    fsr_codes,
    fsr_resistance,
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
        grid = np.ones((2, max(FrameKind) + 1), dtype=np.int64)  # period, batch by kind code
        for k, p, b in self._kinds():
            grid[:, k] = p, b
        period, batch = grid[:, kind]
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
    :meth:`boot` resets it to that fresh state.  Drive it either tick by
    tick (supplying samples for any channel due at the current clock) or
    with :meth:`run` and an :class:`ArrayStimulus`.  All state lives in plain
    Python scalars; identical configuration and stimulus reproduce
    identical frame bytes.
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
        self._seq = 0
        self.energy_mwh = 0.0
        self._tx_remaining_ms = 0
        self._fsr_buf: list[tuple[int, int]] = []
        self._accel_buf: list[tuple[int, tuple[int, int, int]]] = []
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

    # -- internals ----------------------------------------------------------

    def _flags(self, final_flush: bool = False) -> int:
        flags = protocol.FLAG_CHARGING if self.charging else 0
        if final_flush:
            flags |= protocol.FLAG_FINAL_FLUSH
        return flags

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq = (self._seq + 1) & 0xFFFF
        return seq

    def _batch_frame(
        self, kind: FrameKind, t0: int, samples: list, final_flush: bool = False
    ) -> protocol.TelemetryFrame:
        """Frame one FSR or accel batch whose first sample was taken at ``t0``."""
        return protocol.TelemetryFrame(
            kind, self._next_seq(), self._flags(final_flush),
            protocol.PAYLOAD_TYPES[kind](t0, tuple(samples)),
        )

    def _battery_frame(self, t_ms: int) -> protocol.TelemetryFrame:
        soc = self.soc
        v = self.model.ocv.voltage(soc)
        sense = v * self.model.sense_ratio  # DeviceModel holds it within v_ref
        code = adc_quantize(sense, self.model.adc)
        percent = self.model.device_percent(v)
        self.battery_log.append({"t_ms": t_ms, "soc": soc, "v_terminal": v, "sense_v": sense,
                                 "adc_code": code, "percent": percent})
        return protocol.TelemetryFrame(
            FrameKind.BATTERY_STATUS, self._next_seq(), self._flags(),
            protocol.BatteryStatusPayload(t_ms, code, percent),
        )

    # -- stepping -----------------------------------------------------------

    def tick(
        self,
        force_n: float | None = None,
        accel_mg: tuple[int, int, int] | None = None,
    ) -> list[protocol.TelemetryFrame]:
        """Advance one tick, sampling whatever the schedule makes due.

        Samples must be supplied for channels due this tick and are ignored
        otherwise.  Returns frames completed by this tick in the fixed
        order FSR batch, accel batch, battery status.
        """
        cfg = self.config
        t = self._clock_ms
        frames: list[protocol.TelemetryFrame] = []
        fsr_due = t % cfg.fsr_period_ms == 0
        accel_due = t % cfg.accel_period_ms == 0
        sampled = fsr_due or accel_due

        # read every due sample before any state changes, so a tick that
        # raises leaves the emulator as it found it
        if fsr_due:
            if force_n is None:
                raise StimulusError(f"FSR sample due at t={t} ms but no force supplied")
            code = adc_quantize(
                divider_voltage(fsr_resistance(force_n, self.model.fsr), self.model.divider),
                self.model.adc,
            )
        if accel_due:
            if accel_mg is None:
                raise StimulusError(f"accel sample due at t={t} ms but none supplied")
            accel = (int(accel_mg[0]), int(accel_mg[1]), int(accel_mg[2]))
            _check_accel([[a] for a in accel], [t])

        if fsr_due:
            self._fsr_buf.append((t, code))
            if len(self._fsr_buf) == cfg.fsr_batch:
                frames.append(self._batch_frame(FrameKind.FSR_BATCH, *_drain(self._fsr_buf)))

        if accel_due:
            self._accel_buf.append((t, accel))
            if len(self._accel_buf) == cfg.accel_batch:
                frames.append(self._batch_frame(FrameKind.ACCEL_BATCH, *_drain(self._accel_buf)))

        if t % cfg.battery_period_ms == 0:
            frames.append(self._battery_frame(t))
            sampled = True

        # energy accounting: pending radio airtime outranks sampling work
        if self._tx_remaining_ms > 0:
            state = RADIO
            self._tx_remaining_ms -= cfg.tick_ms
        elif sampled:
            state = ACTIVE
        else:
            state = IDLE
        self._ticks.append(state)
        self.energy_mwh += self._tick_mwh.item(state)
        if frames:
            self._tx_remaining_ms += self.power_profile.tx_ms_per_frame * len(frames)

        self._clock_ms = t + cfg.tick_ms
        return frames

    def flush(self) -> list[protocol.TelemetryFrame]:
        """Emit any partially filled batches with the final-flush flag set."""
        return [self._batch_frame(kind, *_drain(buf), final_flush=True)
                for kind, buf in ((FrameKind.FSR_BATCH, self._fsr_buf),
                                  (FrameKind.ACCEL_BATCH, self._accel_buf)) if buf]

    def run(self, stimulus: ArrayStimulus, duration_s: float) -> list[protocol.TelemetryFrame]:
        """Boot fresh, run the schedule for a duration, and flush.

        :meth:`FirmwareConfig.session_ms` turns ``duration_s`` into the
        schedule's length.  The returned list is every frame the device would
        have sent, in transmit order.  Each channel of ``stimulus`` must hold
        exactly the instants ``range(0, session_ms, period)``, or
        :class:`StimulusError` is raised.

        The schedule is derived in bulk, not stepped: the force column goes
        through the FSR chain in one array pass, each batch is a slice of
        the samples, and activity, energy and battery readings follow from
        the ticks that emit frames.  One loop frames every send of
        :meth:`FirmwareConfig.sends`; the sends at the session's end are the
        final flush and carry its flag.  Frames, battery log, timeline,
        energy and the state left behind are those of :meth:`boot`, then
        :meth:`tick` at every tick, then :meth:`flush`.
        """
        total_ms = self.config.session_ms(duration_s)
        self.boot()
        cfg = self.config
        fsr_t = range(0, total_ms, cfg.fsr_period_ms)
        accel_t = range(0, total_ms, cfg.accel_period_ms)
        for name, t_ms, times in (("force", stimulus.force_t_ms, fsr_t),
                                  ("accel", stimulus.accel["t_ms"], accel_t)):
            if not np.array_equal(t_ms, np.arange(0, total_ms, times.step)):
                raise StimulusError(f"{name} samples must be at exactly the instants "
                                    f"range(0, {total_ms}, {times.step}) ms")
        codes = fsr_codes(stimulus.force_n,
                          self.model.fsr, self.model.divider, self.model.adc).tolist()
        _check_accel([stimulus.accel[a] for a in ("x_mg", "y_mg", "z_mg")], accel_t)
        accel = stimulus.accel[["x_mg", "y_mg", "z_mg"]].tolist()

        send_ms, kinds, firsts = cfg.sends(total_ms)
        states, self._tx_remaining_ms = _activity(
            cfg, self.power_profile.tx_ms_per_frame, send_ms, total_ms)
        self._ticks = bytearray(states)

        # by kind code, the FrameKind member (decode names it), samples, sample
        # instants and batch size of each batch kind
        batches = {kind: (kind, *columns) for kind, *columns in (
            (FrameKind.FSR_BATCH, codes, fsr_t, cfg.fsr_batch),
            (FrameKind.ACCEL_BATCH, accel, accel_t, cfg.accel_batch))}
        frames: list[protocol.TelemetryFrame] = []
        metered = 0
        for t, code, i in zip(send_ms.tolist(), kinds.tolist(), firsts.tolist()):
            if code == FrameKind.BATTERY_STATUS:
                k = t // cfg.tick_ms
                self._add_energy(self._tick_mwh[states[metered:k]])
                metered = k
                frames.append(self._battery_frame(t))
            else:
                kind, samples, times, n = batches[code]
                frames.append(self._batch_frame(kind, times[i], samples[i:i + n],
                                                final_flush=t == total_ms))
        self._add_energy(self._tick_mwh[states[metered:]])
        self._clock_ms = total_ms
        return frames

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


def _drain(buf: list) -> tuple[int, list]:
    """``(t0, samples)`` of a buffer of ``(t, sample)`` pairs, which is emptied."""
    t0 = buf[0][0]
    samples = [sample for _, sample in buf]
    buf.clear()
    return t0, samples


def encode_session(frames: list[protocol.TelemetryFrame]) -> bytes:
    """Concatenate the wire bytes for a frame sequence."""
    return b"".join(protocol.encode(f) for f in frames)
