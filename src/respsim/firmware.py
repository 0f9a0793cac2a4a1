"""Firmware emulator: millisecond tick scheduler, batching, and framing.

The schedule mirrors the device firmware: FSR sampling at 25 Hz, the
accelerometer at 50 Hz, and a battery measurement every 2 s, all phased so
every channel takes its first sample at t=0.  :class:`FirmwareConfig` owns
it: :meth:`FirmwareConfig.session_ms` turns a session's duration into whole
milliseconds and ticks, and each channel samples at
``range(0, session_ms, period)``.  The emulator runs that schedule, and
:mod:`respsim.session` synthesizes its stimulus at the same instants.
Samples accumulate into
fixed-size batches (5 FSR codes, 10 accel triples per frame) and each
completed batch is framed immediately; partially filled batches are flushed
with the final-flush flag when a run ends.

Energy is accounted per tick from a power profile: a tick is ``radio``
while frame transmission airtime is pending, ``active`` when any channel
sampled, and ``idle`` otherwise.  The battery drains continuously, so a
long enough run walks the reported percent all the way down.  Those
per-tick states are kept as a :class:`~respsim.power.Timeline`, which
:attr:`FirmwareEmulator.activity_timeline` hands over as is for
:func:`~respsim.power.accumulate` to read.

:meth:`FirmwareEmulator.tick` steps that schedule one tick at a time and is
the reference.  :meth:`FirmwareEmulator.run` derives the same schedule in
bulk instead: sampling instants from ranges, ADC codes from one array pass
through the FSR chain, each batch cut as a slice of those arrays, radio
airtime walked only over the ticks that emit frames, and energy summed per
battery period with ``np.cumsum``, which adds in the same sequence as the
per-tick ``+=``.  Both frame every batch through one builder.  The tests
hold ``run`` to a tick loop frame for frame, float for float.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Protocol

import numpy as np

from . import protocol
from .protocol import FrameKind
from .power import ACTIVITY_STATES, PowerProfile, PRESETS, Timeline, UW_MS_PER_MWH
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
    battery_sense_voltage,
    divider_voltage,
    fsr_codes,
    fsr_resistance,
)

# activity states as small integers: indices into ACTIVITY_STATES
_STATE_CODE = {name: code for code, name in enumerate(ACTIVITY_STATES)}
_ACTIVE, _RADIO = _STATE_CODE["active"], _STATE_CODE["radio"]


class InvalidConfigError(ValueError):
    """The firmware configuration cannot run on the modeled hardware."""


class NotBootedError(RuntimeError):
    """tick() or a view of the battery or activity before boot()."""


class StimulusError(LookupError):
    """The stimulus source has no sample for a scheduled instant."""


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
                raise InvalidConfigError(f"{name} must be a positive whole number")
            object.__setattr__(self, name, int(value))
        # reject schedules and batch sizes the hardware cannot honor
        for name, rate in (("fsr_rate_hz", self.fsr_rate_hz),
                           ("accel_rate_hz", self.accel_rate_hz)):
            if 1000 % rate != 0:
                raise InvalidConfigError(
                    f"{name}={rate} does not divide the 1000 ms tick grid evenly"
                )
        for name, period in (("fsr", self.fsr_period_ms),
                             ("accel", self.accel_period_ms),
                             ("battery", self.battery_period_ms)):
            if period % self.tick_ms != 0:
                raise InvalidConfigError(
                    f"{name} period {period} ms is not a multiple of tick_ms={self.tick_ms}"
                )
        for name, kind in (("fsr_batch", FrameKind.FSR_BATCH),
                           ("accel_batch", FrameKind.ACCEL_BATCH)):
            count = getattr(self, name)
            size = protocol.batch_payload_len(kind, count)
            if size > protocol.MAX_PAYLOAD:
                raise InvalidConfigError(
                    f"{name}={count} needs a {size}-byte payload, "
                    f"MTU budget allows {protocol.MAX_PAYLOAD}"
                )

    @property
    def fsr_period_ms(self) -> int:
        return 1000 // self.fsr_rate_hz

    @property
    def accel_period_ms(self) -> int:
        return 1000 // self.accel_rate_hz

    def session_ms(self, duration_s: float) -> int:
        """A session's length in ms, where every channel's ``range(0, ms, period)`` ends."""
        exact_ms = duration_s * 1000.0
        if not (math.isfinite(exact_ms) and exact_ms >= 0):
            raise InvalidConfigError(f"duration_s must be finite and >= 0, got {duration_s}")
        total_ms = round(exact_ms)
        if abs(exact_ms - total_ms) > 1e-6:
            raise InvalidConfigError(
                f"duration_s={duration_s} is not a whole number of milliseconds"
            )
        if total_ms % self.tick_ms != 0:
            raise InvalidConfigError(
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
        if self.capacity_mah <= 0 or self.nominal_v <= 0:
            raise ParameterError("capacity_mah and nominal_v must be positive")
        # the full-charge rail must fit the ADC front end
        battery_sense_voltage(self.ocv.v_max, self.sense_ratio, self.adc.v_ref)
        if self.adc.full_scale > protocol.MAX_CODE:
            raise InvalidConfigError(
                f"adc.bits={self.adc.bits} gives codes up to {self.adc.full_scale}, "
                f"the wire carries at most {protocol.MAX_CODE}"
            )

    def device_percent(self, v_batt: float) -> int:
        """Firmware's charge percent from terminal voltage, round-half-up."""
        span = self.ocv.v_max - self.ocv.v_min
        pct = 100.0 * (v_batt - self.ocv.v_min) / span
        return _round_half_up(min(max(pct, 0.0), 100.0))


@dataclass(frozen=True)
class BatteryMeasurement:
    """Ground-truth record of one battery sampling instant."""

    t_ms: int
    soc: float
    v_terminal: float
    sense_v: float
    adc_code: int
    percent: int


class StimulusSource(Protocol):
    def force_n(self, t_ms: int) -> float: ...
    def accel_mg(self, t_ms: int) -> tuple[int, int, int]: ...


class ConstantStimulus:
    """Fixed force and posture; handy for cadence and battery tests."""

    def __init__(self, force: float = 4.0, accel: tuple[int, int, int] = (0, 0, 1000)):
        self._force = force
        self._accel = accel

    def force_n(self, t_ms: int) -> float:
        return self._force

    def accel_mg(self, t_ms: int) -> tuple[int, int, int]:
        return self._accel


class ArrayStimulus:
    """Stimulus keyed by timestamp: ``ForceSample`` list, ``ACCEL_DTYPE`` rows."""

    def __init__(self, force_samples, accel_rows):
        self._force = {s.t_ms: s.force_n for s in force_samples}
        self._accel = {row[0]: row[1:] for row in accel_rows.tolist()}

    def force_n(self, t_ms: int) -> float:
        try:
            return self._force[t_ms]
        except KeyError:
            raise StimulusError(f"no force sample at t={t_ms} ms") from None

    def accel_mg(self, t_ms: int) -> tuple[int, int, int]:
        try:
            return self._accel[t_ms]
        except KeyError:
            raise StimulusError(f"no accel sample at t={t_ms} ms") from None


class FirmwareEmulator:
    """Deterministic software twin of the sensor firmware.

    Drive it either tick by tick (supplying samples for any channel due at
    the current clock) or with :meth:`run` and a stimulus source.  All
    state lives in plain Python scalars; identical configuration and
    stimulus reproduce identical frame bytes.
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
            raise InvalidConfigError(f"initial_soc must be in [0, 1], got {initial_soc}")
        self.config = config
        self.model = model
        self.power_profile = power_profile or PRESETS["abstract-claim"]
        self.initial_soc = initial_soc
        self.charging = charging
        self._booted = False

    # -- lifecycle ----------------------------------------------------------

    def boot(self) -> None:
        """Reset all runtime state."""
        self._clock_ms = 0
        self._seq = 0
        self._energy_mwh = 0.0
        self._tx_remaining_ms = 0
        self._fsr_buf: list[tuple[int, int]] = []
        self._accel_buf: list[tuple[int, tuple[int, int, int]]] = []
        self._timeline = Timeline()
        self.battery_log: list[BatteryMeasurement] = []
        self._booted = True

    def _require_boot(self) -> None:
        if not self._booted:
            raise NotBootedError("boot() must complete before ticking")

    # -- views --------------------------------------------------------------

    @property
    def soc(self) -> float:
        """Charge remaining; derived from accumulated energy in one step so
        sub-picojoule per-tick draws don't get lost to float cancellation."""
        self._require_boot()
        used = self._energy_mwh / (self.model.capacity_mah * self.model.nominal_v)
        return max(self.initial_soc - used, 0.0)

    @property
    def energy_mwh(self) -> float:
        self._require_boot()
        return self._energy_mwh

    @property
    def activity_timeline(self) -> Timeline:
        self._require_boot()
        return self._timeline

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
        sense = battery_sense_voltage(v, self.model.sense_ratio, self.model.adc.v_ref)
        code = adc_quantize(sense, self.model.adc)
        percent = self.model.device_percent(v)
        self.battery_log.append(BatteryMeasurement(t_ms, soc, v, sense, code, percent))
        return protocol.TelemetryFrame(
            FrameKind.BATTERY_STATUS, self._next_seq(), self._flags(),
            protocol.BatteryStatusPayload(t_ms, code, percent),
        )

    def _record_activity(self, state: str, t_ms: int) -> None:
        code = _STATE_CODE[state]
        end = t_ms + self.config.tick_ms
        tl = self._timeline
        if tl.ends and tl.states[-1] == code and tl.ends[-1] == t_ms:
            tl.ends[-1] = end
        else:
            tl.states.append(code)
            tl.starts.append(t_ms)
            tl.ends.append(end)

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
        self._require_boot()
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
            _check_accel([accel], [t])

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
            activity = "radio"
            self._tx_remaining_ms -= cfg.tick_ms
        elif sampled:
            activity = "active"
        else:
            activity = "idle"
        self._record_activity(activity, t)
        p_uw = self.power_profile.power_uw(activity)
        self._energy_mwh += p_uw * cfg.tick_ms / UW_MS_PER_MWH
        if frames:
            self._tx_remaining_ms += self.power_profile.tx_ms_per_frame * len(frames)

        self._clock_ms = t + cfg.tick_ms
        return frames

    def flush(self) -> list[protocol.TelemetryFrame]:
        """Emit any partially filled batches with the final-flush flag set."""
        self._require_boot()
        return [self._batch_frame(kind, *_drain(buf), final_flush=True)
                for kind, buf in ((FrameKind.FSR_BATCH, self._fsr_buf),
                                  (FrameKind.ACCEL_BATCH, self._accel_buf)) if buf]

    def run(self, stimulus: StimulusSource, duration_s: float) -> list[protocol.TelemetryFrame]:
        """Boot fresh, run the schedule for a duration, and flush.

        :meth:`FirmwareConfig.session_ms` turns ``duration_s`` into the
        schedule's length.  The returned list is every frame the device would
        have sent, in transmit order.

        The schedule is derived in bulk, not stepped: the stimulus is
        queried once per sampling instant, each batch is a slice of the
        samples, and activity, energy and battery readings follow from the
        ticks that emit frames.  Frames, battery
        log, timeline, energy and the state left behind are those of
        :meth:`boot`, then :meth:`tick` at every tick, then :meth:`flush`.
        """
        total_ms = self.config.session_ms(duration_s)
        self.boot()
        cfg = self.config
        fsr_t = range(0, total_ms, cfg.fsr_period_ms)
        accel_t = range(0, total_ms, cfg.accel_period_ms)
        codes = fsr_codes([stimulus.force_n(t) for t in fsr_t],
                          self.model.fsr, self.model.divider, self.model.adc).tolist()
        accel = [(int(a[0]), int(a[1]), int(a[2])) for a in map(stimulus.accel_mg, accel_t)]
        _check_accel(accel, accel_t)

        # samples, sample instants and batch size of each batch kind
        batches = {FrameKind.FSR_BATCH: (codes, fsr_t, cfg.fsr_batch),
                   FrameKind.ACCEL_BATCH: (accel, accel_t, cfg.accel_batch)}
        # (instant, kind, first sample) of every frame; within a tick the
        # firmware sends the FSR batch, then the accel batch, then battery
        # status, which is the order of their kind codes
        events = [(times[i + n - 1], kind, i) for kind, (_, times, n) in batches.items()
                  for i in range(0, len(times) - n + 1, n)]
        events += [(t, FrameKind.BATTERY_STATUS, 0)
                   for t in range(0, total_ms, cfg.battery_period_ms)]
        events.sort()
        states = self._tick_activity(Counter(t for t, _, _ in events), total_ms)
        self._timeline = Timeline.from_ticks(states, cfg.tick_ms)
        tick_mwh = self.power_profile.state_powers_uw() * cfg.tick_ms / UW_MS_PER_MWH

        frames: list[protocol.TelemetryFrame] = []
        metered = 0
        for t, kind, i in events:
            if kind is FrameKind.BATTERY_STATUS:
                k = t // cfg.tick_ms
                self._add_energy(tick_mwh[states[metered:k]])
                metered = k
                frames.append(self._battery_frame(t))
            else:
                samples, times, n = batches[kind]
                frames.append(self._batch_frame(kind, times[i], samples[i:i + n]))
        self._add_energy(tick_mwh[states[metered:]])
        # the partial batches the tick loop's final flush would send
        for kind, (samples, times, n) in batches.items():
            i = len(samples) // n * n
            if i < len(samples):
                frames.append(self._batch_frame(kind, times[i], samples[i:], final_flush=True))
        self._clock_ms = total_ms
        return frames

    def _tick_activity(self, emitted: dict[int, int], total_ms: int) -> np.ndarray:
        """Activity code of every tick up to ``total_ms``, as :meth:`tick` decides it.

        ``emitted`` maps each frame-emitting instant, in time order, to its
        frame count.  Pending airtime grows only on those ticks and drains by
        ``tick_ms`` per tick in between, so the queue is walked once per
        emitting tick.  Leaves ``_tx_remaining_ms`` where the tick loop does,
        negative when airtime is not a multiple of ``tick_ms``.
        """
        cfg = self.config
        tick = cfg.tick_ms
        states = np.zeros(total_ms // tick, dtype=np.int8)
        for period in (cfg.fsr_period_ms, cfg.accel_period_ms, cfg.battery_period_ms):
            states[::period // tick] = _ACTIVE
        tx = 0
        pos = 0  # first tick not yet walked
        # a zero-frame entry at the last tick drains the queue to the end
        for t, count in [*emitted.items(), (total_ms - tick, 0)]:
            k = t // tick
            if tx > 0:
                radio = min(-(-tx // tick), k + 1 - pos)
                states[pos:pos + radio] = _RADIO
                tx -= radio * tick
            tx += self.power_profile.tx_ms_per_frame * count
            pos = k + 1
        self._tx_remaining_ms = tx
        return states

    def _add_energy(self, tick_mwh: np.ndarray) -> None:
        """Add per-tick energies to the total one after another, as ``+=`` does.

        ``tick_mwh`` is overwritten.
        """
        if tick_mwh.size:
            tick_mwh[0] += self._energy_mwh
            self._energy_mwh = float(np.cumsum(tick_mwh)[-1])


def _check_accel(samples: list[tuple[int, int, int]], times) -> None:
    """Reject accel triples past the sensor's full scale, as a negative force is rejected."""
    if samples and max(map(abs, chain.from_iterable(samples))) > FULL_SCALE_MG:
        i = next(i for i, s in enumerate(samples) if max(map(abs, s)) > FULL_SCALE_MG)
        raise ParameterError(
            f"accel sample {samples[i]} at t={times[i]} ms is beyond ±{FULL_SCALE_MG} mg"
        )


def _drain(buf: list) -> tuple[int, list]:
    """``(t0, samples)`` of a buffer of ``(t, sample)`` pairs, which is emptied."""
    t0 = buf[0][0]
    samples = [sample for _, sample in buf]
    buf.clear()
    return t0, samples


def encode_session(frames: list[protocol.TelemetryFrame]) -> bytes:
    """Concatenate the wire bytes for a frame sequence."""
    return b"".join(protocol.encode(f) for f in frames)
