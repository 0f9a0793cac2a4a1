"""The reference firmware: the schedule stepped one tick at a time.

:class:`TickEmulator` is a :class:`~respsim.firmware.FirmwareEmulator` that
also steps the schedule with :meth:`TickEmulator.tick` and ends a run with
:meth:`TickEmulator.flush`, framing each batch the moment it fills, as the
device firmware does.  It is the oracle that ``run``'s frame table, battery
log, activity and energy are held to.
"""

from __future__ import annotations

from respsim import protocol
from respsim.firmware import FirmwareEmulator, StimulusError, _check_accel
from respsim.power import ACTIVE, IDLE, RADIO
from respsim.protocol import FrameKind
from respsim.sensor import adc_quantize, divider_voltage, fsr_resistance


class TickEmulator(FirmwareEmulator):
    """A firmware emulator with the tick-by-tick reference beside ``run``."""

    def boot(self) -> None:
        super().boot()
        self._seq = 0
        self._fsr_buf: list[tuple[int, int]] = []
        self._accel_buf: list[tuple[int, tuple[int, int, int]]] = []

    def run(self, stimulus, duration_s):
        frames = super().run(stimulus, duration_s)
        self._seq = len(frames) & 0xFFFF  # where the tick loop's seq stands after the flush
        return frames

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
        return protocol.TelemetryFrame(
            FrameKind.BATTERY_STATUS, self._next_seq(), self._flags(),
            protocol.BatteryStatusPayload(t_ms, *self._battery_reading(t_ms)),
        )

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


def _drain(buf: list) -> tuple[int, list]:
    """``(t0, samples)`` of a buffer of ``(t, sample)`` pairs, which is emptied."""
    t0 = buf[0][0]
    samples = [sample for _, sample in buf]
    buf.clear()
    return t0, samples
