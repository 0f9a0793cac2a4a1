"""Firmware schedule: cadence counts, batching, flush, energy conservation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respsim.firmware import (
    ArrayStimulus,
    ConstantStimulus,
    DeviceModel,
    FirmwareConfig,
    FirmwareEmulator,
    InvalidConfigError,
    NotBootedError,
    StimulusError,
    encode_session,
)
from respsim.power import PowerProfile, accumulate, uniform_profile
from respsim.protocol import FrameKind
from respsim.sensor import ACCEL_DTYPE, ForceSample, OcvCurve, ParameterError


def kind_counts(frames):
    counts = {k: 0 for k in FrameKind}
    for f in frames:
        counts[f.kind] += 1
    return counts


def test_boot_reports_full_charge():
    emu = FirmwareEmulator()
    assert emu.boot() is None
    assert emu._clock_ms == 0
    assert emu._seq == 0
    assert emu.soc == 1.0


def test_tick_before_boot_raises():
    emu = FirmwareEmulator()
    with pytest.raises(NotBootedError):
        emu.tick(4.0, (0, 0, 1000))


def test_two_second_run_frame_counts():
    # 2000 ms: 50 FSR samples -> 10 batches, 100 accel -> 10 batches,
    # one battery measurement (at t=0)
    frames = FirmwareEmulator().run(ConstantStimulus(), 2.0)
    counts = kind_counts(frames)
    assert counts[FrameKind.FSR_BATCH] == 10
    assert counts[FrameKind.ACCEL_BATCH] == 10
    assert counts[FrameKind.BATTERY_STATUS] == 1


def test_zero_duration_run_is_empty():
    assert FirmwareEmulator().run(ConstantStimulus(), 0.0) == []


def test_sixty_second_run_cadence():
    frames = FirmwareEmulator().run(ConstantStimulus(), 60.0)
    counts = kind_counts(frames)
    assert counts[FrameKind.BATTERY_STATUS] == 30
    fsr_samples = sum(
        len(f.payload.codes) for f in frames if f.kind == FrameKind.FSR_BATCH
    )
    accel_samples = sum(
        len(f.payload.samples) for f in frames if f.kind == FrameKind.ACCEL_BATCH
    )
    assert fsr_samples == 1500
    assert accel_samples == 3000


def test_seq_is_gapless_and_in_transmit_order():
    frames = FirmwareEmulator().run(ConstantStimulus(), 10.0)
    assert [f.seq for f in frames] == list(range(len(frames)))


def test_batch_timestamps_follow_sampling_grid():
    frames = FirmwareEmulator().run(ConstantStimulus(), 4.0)
    fsr = [f for f in frames if f.kind == FrameKind.FSR_BATCH]
    assert [f.payload.t0_ms for f in fsr] == [0, 200, 400, 600, 800,
                                              1000, 1200, 1400, 1600, 1800,
                                              2000, 2200, 2400, 2600, 2800,
                                              3000, 3200, 3400, 3600, 3800]
    accel = [f for f in frames if f.kind == FrameKind.ACCEL_BATCH]
    assert accel[0].payload.t0_ms == 0
    assert accel[1].payload.t0_ms == 200
    battery = [f for f in frames if f.kind == FrameKind.BATTERY_STATUS]
    assert [f.payload.t_ms for f in battery] == [0, 2000]


def test_partial_batches_flush_with_flag():
    # 1.3 s: FSR samples at 0..1280 ms = 33 -> 6 full batches + 3 left over;
    # accel 65 samples -> 6 full batches + 5 left over
    frames = FirmwareEmulator().run(ConstantStimulus(), 1.3)
    flushed = [f for f in frames if f.final_flush]
    assert len(flushed) == 2
    fsr_flush = next(f for f in flushed if f.kind == FrameKind.FSR_BATCH)
    accel_flush = next(f for f in flushed if f.kind == FrameKind.ACCEL_BATCH)
    assert len(fsr_flush.payload.codes) == 3
    assert fsr_flush.payload.t0_ms == 1200
    assert len(accel_flush.payload.samples) == 5
    assert not any(f.final_flush for f in frames[:-2])


def test_exact_batch_boundary_needs_no_flush():
    frames = FirmwareEmulator().run(ConstantStimulus(), 2.0)
    assert not any(f.final_flush for f in frames)


def test_charging_flag_propagates():
    frames = FirmwareEmulator(charging=True).run(ConstantStimulus(), 2.0)
    assert all(f.charging for f in frames)
    frames = FirmwareEmulator(charging=False).run(ConstantStimulus(), 2.0)
    assert not any(f.charging for f in frames)


def test_battery_frame_contents():
    emu = FirmwareEmulator()
    frames = emu.run(ConstantStimulus(), 2.0)
    batt = next(f for f in frames if f.kind == FrameKind.BATTERY_STATUS)
    # full pack: 4.2 V * 0.4 = 1.68 V -> code 3822 -> 100 %
    assert batt.payload.adc_code == 3822
    assert batt.payload.percent == 100


def test_oversize_accel_batch_is_invalid_config():
    # 100 samples would need a 605-byte payload against a 244-byte budget
    with pytest.raises(InvalidConfigError):
        FirmwareEmulator(FirmwareConfig(accel_batch=100)).boot()


def test_non_divisor_rate_is_invalid_config():
    with pytest.raises(InvalidConfigError):
        FirmwareEmulator(FirmwareConfig(fsr_rate_hz=33)).boot()


def test_whole_number_schedule_values_may_be_floats():
    # YAML hands over 2.0 where 2 was meant; both must run the same schedule
    as_floats = FirmwareEmulator(FirmwareConfig(tick_ms=2.0, battery_period_ms=1000.0),
                                 power_profile=uniform_profile(400.0, tx_ms_per_frame=3.0))
    as_ints = FirmwareEmulator(FirmwareConfig(tick_ms=2, battery_period_ms=1000),
                               power_profile=uniform_profile(400.0, tx_ms_per_frame=3))
    assert as_floats.run(ConstantStimulus(), 2.5) == as_ints.run(ConstantStimulus(), 2.5)
    assert as_floats.activity_timeline == as_ints.activity_timeline
    with pytest.raises(InvalidConfigError):
        FirmwareConfig(fsr_batch=5.5)
    with pytest.raises(ParameterError):
        uniform_profile(400.0, tx_ms_per_frame=2.5)


def test_bad_initial_soc_rejected():
    with pytest.raises(InvalidConfigError):
        FirmwareEmulator(initial_soc=1.5)


def test_missing_due_sample_raises():
    emu = FirmwareEmulator()
    emu.boot()
    with pytest.raises(StimulusError):
        emu.tick(force_n=None, accel_mg=(0, 0, 1000))


@pytest.mark.parametrize("config", [FirmwareConfig(), FirmwareConfig(fsr_batch=1),
                                    FirmwareConfig(accel_batch=1)],
                         ids=["default", "fsr-batch-1", "accel-batch-1"])
def test_a_tick_missing_a_sample_changes_no_state(config):
    clean = FirmwareEmulator(config)
    clean.boot()
    expected = observed(clean, clean.tick(4.0, (0, 0, 1000)))
    # a missing sample, and one past the accelerometer's full scale
    for accel, error in ((None, StimulusError), ((40000, 0, 1000), ParameterError),
                         ((0, -2001, 1000), ParameterError)):
        emu = FirmwareEmulator(config)
        emu.boot()
        with pytest.raises(error):
            emu.tick(4.0, accel)
        assert observed(emu, emu.tick(4.0, (0, 0, 1000))) == expected


def test_session_ms_is_the_length_of_every_sampling_range():
    assert FirmwareConfig().session_ms(1.01) == 1010
    assert FirmwareConfig(tick_ms=2).session_ms(0.002) == 2
    assert FirmwareConfig().session_ms(0) == 0


@pytest.mark.parametrize("config, duration_s, message", [
    (FirmwareConfig(), math.inf, "duration_s must be finite and >= 0, got inf"),
    (FirmwareConfig(), 1e308, "duration_s must be finite and >= 0, got 1e+308"),
    (FirmwareConfig(), math.nan, "duration_s must be finite and >= 0, got nan"),
    (FirmwareConfig(), -0.5, "duration_s must be finite and >= 0, got -0.5"),
    (FirmwareConfig(), 1.0005, "duration_s=1.0005 is not a whole number of milliseconds"),
    (FirmwareConfig(tick_ms=2), 1.001, "duration 1001 ms is not a multiple of tick_ms=2"),
], ids=["inf", "1e308", "nan", "negative", "fraction-of-a-ms", "fraction-of-a-tick"])
def test_session_ms_rejects_what_no_tick_loop_can_run(config, duration_s, message):
    with pytest.raises(InvalidConfigError) as raised:
        config.session_ms(duration_s)
    assert str(raised.value) == message
    with pytest.raises(InvalidConfigError) as raised:
        FirmwareEmulator(config).run(ConstantStimulus(), duration_s)
    assert str(raised.value) == message


def test_run_is_byte_deterministic():
    a = encode_session(FirmwareEmulator().run(ConstantStimulus(), 10.0))
    b = encode_session(FirmwareEmulator().run(ConstantStimulus(), 10.0))
    assert a == b


def test_soc_never_increases():
    emu = FirmwareEmulator(power_profile=uniform_profile(1e7))
    emu.run(ConstantStimulus(), 10.0)
    socs = [m.soc for m in emu.battery_log]
    assert all(b < a for a, b in zip(socs, socs[1:]))


def test_energy_decrement_matches_timeline_accumulation():
    emu = FirmwareEmulator(power_profile=uniform_profile(5000.0))
    emu.run(ConstantStimulus(), 12.0)
    report = accumulate(emu.power_profile, emu.activity_timeline)
    assert report.energy_mwh == pytest.approx(emu.energy_mwh, rel=1e-9)
    # and the battery lost exactly that energy
    decrement_mwh = (1.0 - emu.soc) * emu.model.capacity_mah * emu.model.nominal_v
    assert decrement_mwh == pytest.approx(emu.energy_mwh, rel=1e-9)


def test_timeline_covers_run_without_overlap():
    emu = FirmwareEmulator()
    emu.run(ConstantStimulus(), 3.0)
    timeline = emu.activity_timeline
    assert len(timeline) == len(timeline.states) == len(timeline.ends)
    assert timeline.starts[0] == 0
    assert timeline.ends[-1] == 3000
    assert timeline.starts[1:] == timeline.ends[:-1]
    assert all(a < b for a, b in zip(timeline.starts, timeline.ends))
    # merged: neighbors always differ
    assert all(a != b for a, b in zip(timeline.states, timeline.states[1:]))


def test_radio_time_scales_with_frames():
    emu = FirmwareEmulator()
    frames = emu.run(ConstantStimulus(), 4.0)
    report = accumulate(emu.power_profile, emu.activity_timeline)
    # flush frames at teardown never got airtime, everything else did
    on_air = [f for f in frames if not f.final_flush]
    assert report.ms_by_state["radio"] == emu.power_profile.tx_ms_per_frame * len(on_air)


def test_custom_ocv_curve_drives_percent():
    # a curve topping out at 4.0 V: full pack reads 4.0 V -> (4.0-3.3)/0.9 -> 78 %
    model = DeviceModel(ocv=OcvCurve(((0.0, 3.5), (1.0, 4.0))))
    emu = FirmwareEmulator(model=model)
    emu.run(ConstantStimulus(), 2.0)
    m = emu.battery_log[0]
    assert m.v_terminal == pytest.approx(4.0)
    assert m.percent == 100  # device percent is relative to its own curve span


def test_fast_discharge_reaches_depleted():
    # 1.1e8 uW empties the 1665 mWh pack by t=54.5 s, so the last battery
    # measurements in a one-minute run actually read empty
    emu = FirmwareEmulator(power_profile=uniform_profile(1.1e8))
    emu.run(ConstantStimulus(), 60.0)
    assert emu.soc == 0.0
    percents = [m.percent for m in emu.battery_log]
    assert percents[0] == 100
    assert percents[-1] == 0
    assert all(b <= a for a, b in zip(percents, percents[1:]))


# ---------------------------------------------------------------------------
# run() against the tick loop
# ---------------------------------------------------------------------------

def tick_loop(emu, stimulus, duration_s):
    """The reference: boot, tick every tick_ms with the stimulus, flush."""
    emu.boot()
    cfg = emu.config
    frames = []
    for t in range(0, round(duration_s * 1000), cfg.tick_ms):
        force = stimulus.force_n(t) if t % cfg.fsr_period_ms == 0 else None
        accel = stimulus.accel_mg(t) if t % cfg.accel_period_ms == 0 else None
        frames.extend(emu.tick(force, accel))
    frames.extend(emu.flush())
    return frames


class VaryingStimulus:
    """A different force on consecutive FSR samples, a moving accel vector."""

    def __init__(self, forces):
        self.forces = forces

    def force_n(self, t_ms):
        return self.forces[t_ms // 40 % len(self.forces)]

    def accel_mg(self, t_ms):
        return (t_ms % 7 - 3, -(t_ms % 11), 1000 - t_ms % 13)


@st.composite
def emulator_setups(draw):
    tick = draw(st.sampled_from([1, 2, 4, 5, 10, 20]))
    config = FirmwareConfig(
        fsr_batch=draw(st.integers(1, 8)),
        accel_batch=draw(st.integers(1, 16)),
        battery_period_ms=tick * draw(st.integers(1, 3000 // tick)),
        tick_ms=tick,
    )
    # up to 1e9 uW, enough to empty the pack within a run
    powers = draw(st.lists(st.floats(0.0, 1e9), min_size=3, max_size=3, unique=True))
    kwargs = {
        "config": config,
        "power_profile": PowerProfile(*powers, tx_ms_per_frame=draw(st.integers(0, 7))),
        "charging": draw(st.booleans()),
        "initial_soc": draw(st.floats(0.0, 1.0)),
    }
    duration_s = tick * draw(st.integers(0, 6000 // tick)) / 1000
    forces = draw(st.lists(st.floats(0.0, 300.0), min_size=1, max_size=20))
    return kwargs, duration_s, forces


def observed(emu, frames):
    return {
        "frames": frames,
        "bytes": encode_session(frames),
        "battery_log": emu.battery_log,
        "timeline": emu.activity_timeline,
        "clock_ms": emu._clock_ms,
        "seq": emu._seq,
        "soc": emu.soc,
        "energy_mwh": emu.energy_mwh,
        "tx_remaining_ms": emu._tx_remaining_ms,
        "buffers": (emu._fsr_buf, emu._accel_buf),
    }


# airtime of 3 ms on a 2 ms tick leaves the radio queue negative
@example(({"config": FirmwareConfig(tick_ms=2, battery_period_ms=1000),
           "power_profile": PowerProfile(10.0, 500.0, 5000.0, tx_ms_per_frame=3)},
          2.37, [0.0, 4.0, 150.0]))
@example(({}, 0.0, [4.0]))
@settings(max_examples=40, deadline=None)
@given(emulator_setups())
def test_run_equals_tick_loop(setup):
    kwargs, duration_s, forces = setup
    stimulus = VaryingStimulus(forces)
    bulk = FirmwareEmulator(**kwargs)
    stepped = FirmwareEmulator(**kwargs)
    expected = observed(stepped, tick_loop(stepped, stimulus, duration_s))
    got = observed(bulk, bulk.run(stimulus, duration_s))
    assert got == expected
    assert got["energy_mwh"] == expected["energy_mwh"]  # exact, not approx


@pytest.mark.parametrize("force, accel", [
    (-1.0, (0, 0, 1000)), (math.nan, (0, 0, 1000)), (4.0, (0, 2001, 1000)),
], ids=["-1.0", "nan", "accel-past-full-scale"])
def test_run_rejects_invalid_force_like_tick(force, accel):
    emu = FirmwareEmulator()
    emu.boot()
    with pytest.raises(ParameterError):
        emu.tick(force, accel)
    forces = [ForceSample(t, force if t == 400 else 4.0) for t in range(0, 1000, 40)]
    rows = np.array([(t, *accel) if t == 400 else (t, 0, 0, 1000) for t in range(0, 1000, 20)],
                    dtype=ACCEL_DTYPE)
    with pytest.raises(ParameterError):
        FirmwareEmulator().run(ArrayStimulus(forces, rows), 1.0)


@pytest.mark.parametrize("missing", ["force", "accel"])
def test_run_raises_when_array_stimulus_misses_an_instant(missing):
    force = [ForceSample(t, 4.0) for t in range(0, 1000, 40)
             if not (missing == "force" and t == 480)]
    accel = np.array([(t, 0, 0, 1000) for t in range(0, 1000, 20)
                      if not (missing == "accel" and t == 480)], dtype=ACCEL_DTYPE)
    with pytest.raises(StimulusError):
        FirmwareEmulator().run(ArrayStimulus(force, accel), 1.0)
