"""Firmware schedule: cadence counts, batching, flush, energy conservation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respsim.firmware import (
    ArrayStimulus,
    DeviceModel,
    FirmwareConfig,
    FirmwareEmulator,
    StimulusError,
    encode_session,
    schedule_timeline,
)
from respsim.power import PowerProfile, accumulate, uniform_profile
from respsim.protocol import FLAG_FINAL_FLUSH, FrameKind, FrameTable
from respsim.sensor import ACCEL_DTYPE, ForceSample, OcvCurve, ParameterError


class ConstantStimulus:
    """Fixed force and posture; handy for cadence and battery tests."""

    def force_n(self, t_ms):
        return 4.0

    def accel_mg(self, t_ms):
        return (0, 0, 1000)


def run_on_grid(emu, stimulus, duration_s):
    """``emu.run`` over a scalar stimulus, sampled at the emulator's instants."""
    cfg = emu.config
    total_ms = cfg.session_ms(duration_s)
    force = [ForceSample(t, stimulus.force_n(t)) for t in range(0, total_ms, cfg.fsr_period_ms)]
    accel = np.array([(t, *stimulus.accel_mg(t)) for t in range(0, total_ms, cfg.accel_period_ms)],
                     dtype=ACCEL_DTYPE)
    return emu.run(ArrayStimulus(force, accel), duration_s)


def columns(timeline):
    """A timeline's three columns as lists, to compare with ``==``."""
    return timeline.states.tolist(), timeline.starts.tolist(), timeline.ends.tolist()


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


def test_two_second_run_frame_counts():
    # 2000 ms: 50 FSR samples -> 10 batches, 100 accel -> 10 batches,
    # one battery measurement (at t=0)
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 2.0)
    counts = kind_counts(frames)
    assert counts[FrameKind.FSR_BATCH] == 10
    assert counts[FrameKind.ACCEL_BATCH] == 10
    assert counts[FrameKind.BATTERY_STATUS] == 1


def test_zero_duration_run_is_empty():
    assert run_on_grid(FirmwareEmulator(), ConstantStimulus(), 0.0) == []


def test_sixty_second_run_cadence():
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 60.0)
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
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 10.0)
    assert [f.seq for f in frames] == list(range(len(frames)))


def test_batch_timestamps_follow_sampling_grid():
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 4.0)
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
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 1.3)
    flushed = [f for f in frames if f.final_flush]
    assert len(flushed) == 2
    fsr_flush = next(f for f in flushed if f.kind == FrameKind.FSR_BATCH)
    accel_flush = next(f for f in flushed if f.kind == FrameKind.ACCEL_BATCH)
    assert len(fsr_flush.payload.codes) == 3
    assert fsr_flush.payload.t0_ms == 1200
    assert len(accel_flush.payload.samples) == 5
    assert not any(f.final_flush for f in frames[:-2])


def test_exact_batch_boundary_needs_no_flush():
    frames = run_on_grid(FirmwareEmulator(), ConstantStimulus(), 2.0)
    assert not any(f.final_flush for f in frames)


def test_charging_flag_propagates():
    frames = run_on_grid(FirmwareEmulator(charging=True), ConstantStimulus(), 2.0)
    assert all(f.charging for f in frames)
    frames = run_on_grid(FirmwareEmulator(charging=False), ConstantStimulus(), 2.0)
    assert not any(f.charging for f in frames)


def test_battery_frame_contents():
    emu = FirmwareEmulator()
    frames = run_on_grid(emu, ConstantStimulus(), 2.0)
    batt = next(f for f in frames if f.kind == FrameKind.BATTERY_STATUS)
    # full pack: 4.2 V * 0.4 = 1.68 V -> code 3822 -> 100 %
    assert batt.payload.adc_code == 3822
    assert batt.payload.percent == 100


def test_oversize_accel_batch_is_invalid_config():
    # 100 samples would need a 605-byte payload against a 244-byte budget
    with pytest.raises(ParameterError):
        FirmwareEmulator(FirmwareConfig(accel_batch=100)).boot()


def test_non_divisor_rate_is_invalid_config():
    with pytest.raises(ParameterError):
        FirmwareEmulator(FirmwareConfig(fsr_rate_hz=33)).boot()


def test_whole_number_schedule_values_may_be_floats():
    # YAML hands over 2.0 where 2 was meant; both must run the same schedule
    as_floats = FirmwareEmulator(FirmwareConfig(tick_ms=2.0, battery_period_ms=1000.0),
                                 power_profile=uniform_profile(400.0, tx_ms_per_frame=3.0))
    as_ints = FirmwareEmulator(FirmwareConfig(tick_ms=2, battery_period_ms=1000),
                               power_profile=uniform_profile(400.0, tx_ms_per_frame=3))
    assert (run_on_grid(as_floats, ConstantStimulus(), 2.5)
            == run_on_grid(as_ints, ConstantStimulus(), 2.5))
    assert columns(as_floats.activity_timeline) == columns(as_ints.activity_timeline)
    with pytest.raises(ParameterError):
        FirmwareConfig(fsr_batch=5.5)
    with pytest.raises(ParameterError):
        uniform_profile(400.0, tx_ms_per_frame=2.5)


def test_bad_initial_soc_rejected():
    with pytest.raises(ParameterError):
        FirmwareEmulator(initial_soc=1.5)


@pytest.mark.parametrize("ratio", [0.0, 1.5])
def test_sense_ratio_outside_the_open_unit_interval_rejected(ratio):
    # the ratio that overflows the ADC is tests/test_config.py's case
    with pytest.raises(ParameterError, match=f"sense_ratio={ratio} must be in \\(0, 1\\)"):
        DeviceModel(sense_ratio=ratio)


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


def test_session_ms_ends_where_the_wire_can_still_timestamp():
    # the last instant of a 2**32 ms session, 2**32 - 1, still fits a u32
    assert FirmwareConfig().session_ms(4294967.296) == 2 ** 32
    for duration_s in (4294967.297, 1e300):
        with pytest.raises(ParameterError) as raised:
            FirmwareConfig().session_ms(duration_s)
        assert str(raised.value) == (
            "duration_s must be at most 4294967.296 (4294967296 ms, the reach of the "
            f"wire's u32 timestamps), got {duration_s}")


@pytest.mark.parametrize("config, duration_s, message", [
    (FirmwareConfig(), math.inf, "duration_s must be finite and >= 0, got inf"),
    (FirmwareConfig(), 1e308, "duration_s must be finite and >= 0, got 1e+308"),
    (FirmwareConfig(), math.nan, "duration_s must be finite and >= 0, got nan"),
    (FirmwareConfig(), -0.5, "duration_s must be finite and >= 0, got -0.5"),
    (FirmwareConfig(), 1.0005, "duration_s=1.0005 is not a whole number of milliseconds"),
    (FirmwareConfig(tick_ms=2), 1.001, "duration 1001 ms is not a multiple of tick_ms=2"),
], ids=["inf", "1e308", "nan", "negative", "fraction-of-a-ms", "fraction-of-a-tick"])
def test_session_ms_rejects_what_no_tick_loop_can_run(config, duration_s, message):
    with pytest.raises(ParameterError) as raised:
        config.session_ms(duration_s)
    assert str(raised.value) == message
    with pytest.raises(ParameterError) as raised:
        FirmwareEmulator(config).run(ArrayStimulus([], np.empty(0, ACCEL_DTYPE)), duration_s)
    assert str(raised.value) == message


def test_run_is_byte_deterministic():
    a = encode_session(run_on_grid(FirmwareEmulator(), ConstantStimulus(), 10.0))
    b = encode_session(run_on_grid(FirmwareEmulator(), ConstantStimulus(), 10.0))
    assert a == b


def test_soc_never_increases():
    emu = FirmwareEmulator(power_profile=uniform_profile(1e7))
    run_on_grid(emu, ConstantStimulus(), 10.0)
    socs = [m["soc"] for m in emu.battery_log]
    assert all(b < a for a, b in zip(socs, socs[1:]))


def test_energy_decrement_matches_timeline_accumulation():
    emu = FirmwareEmulator(power_profile=uniform_profile(5000.0))
    run_on_grid(emu, ConstantStimulus(), 12.0)
    report = accumulate(emu.power_profile, emu.activity_timeline)
    assert report.energy_mwh == pytest.approx(emu.energy_mwh, rel=1e-9)
    # and the battery lost exactly that energy
    decrement_mwh = (1.0 - emu.soc) * emu.model.capacity_mah * emu.model.nominal_v
    assert decrement_mwh == pytest.approx(emu.energy_mwh, rel=1e-9)


def test_timeline_covers_run_without_overlap():
    emu = FirmwareEmulator()
    run_on_grid(emu, ConstantStimulus(), 3.0)
    timeline = emu.activity_timeline
    assert len(timeline) == len(timeline.states) == len(timeline.ends)
    assert timeline.starts[0] == 0
    assert timeline.ends[-1] == 3000
    np.testing.assert_array_equal(timeline.starts[1:], timeline.ends[:-1])
    assert (timeline.starts < timeline.ends).all()
    # merged: neighbors always differ
    assert (timeline.states[1:] != timeline.states[:-1]).all()


def test_radio_time_scales_with_frames():
    emu = FirmwareEmulator()
    frames = run_on_grid(emu, ConstantStimulus(), 4.0)
    report = accumulate(emu.power_profile, emu.activity_timeline)
    # flush frames at teardown never got airtime, everything else did
    on_air = [f for f in frames if not f.final_flush]
    assert report.ms_by_state["radio"] == emu.power_profile.tx_ms_per_frame * len(on_air)


def test_custom_ocv_curve_drives_percent():
    # a curve topping out at 4.0 V: full pack reads 4.0 V -> (4.0-3.3)/0.9 -> 78 %
    model = DeviceModel(ocv=OcvCurve(((0.0, 3.5), (1.0, 4.0))))
    emu = FirmwareEmulator(model=model)
    run_on_grid(emu, ConstantStimulus(), 2.0)
    m = emu.battery_log[0]
    assert m["v_terminal"] == pytest.approx(4.0)
    assert m["percent"] == 100  # device percent is relative to its own curve span


def test_device_percent_rounds_an_exact_half_up():
    # 3.25 V on a 3.0 .. 5.0 V curve is exactly 12.5 %
    model = DeviceModel(ocv=OcvCurve(((0.0, 3.0), (1.0, 5.0))), sense_ratio=0.3)
    assert model.device_percent(3.25) == 13


def test_fast_discharge_reaches_depleted():
    # 1.1e8 uW empties the 1665 mWh pack by t=54.5 s, so the last battery
    # measurements in a one-minute run actually read empty
    emu = FirmwareEmulator(power_profile=uniform_profile(1.1e8))
    run_on_grid(emu, ConstantStimulus(), 60.0)
    assert emu.soc == 0.0
    percents = [m["percent"] for m in emu.battery_log]
    assert percents[0] == 100
    assert percents[-1] == 0
    assert all(b <= a for a, b in zip(percents, percents[1:]))


# ---------------------------------------------------------------------------
# run() against the tick loop
# ---------------------------------------------------------------------------

def tick_on(emu, stimulus, ticks):
    """Step ``ticks`` ticks from the emulator's clock, with the samples due."""
    cfg = emu.config
    frames = []
    for _ in range(ticks):
        t = emu._clock_ms
        force = stimulus.force_n(t) if t % cfg.fsr_period_ms == 0 else None
        accel = stimulus.accel_mg(t) if t % cfg.accel_period_ms == 0 else None
        frames.extend(emu.tick(force, accel))
    return frames


def tick_loop(emu, stimulus, duration_s):
    """The reference: boot, tick every tick_ms with the stimulus, flush."""
    emu.boot()
    frames = tick_on(emu, stimulus, round(duration_s * 1000) // emu.config.tick_ms)
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
        "timeline": columns(emu.activity_timeline),
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
    got = observed(bulk, run_on_grid(bulk, stimulus, duration_s))
    assert got == expected
    assert got["energy_mwh"] == expected["energy_mwh"]  # exact, not approx
    # the schedule alone gives the same timeline, whatever the stimulus and draws
    schedule = schedule_timeline(stepped.config, stepped.power_profile.tx_ms_per_frame,
                                 duration_s)
    assert columns(schedule) == expected["timeline"]


@settings(max_examples=40, deadline=None)
@given(emulator_setups())
def test_schedule_lists_the_instant_each_frame_is_sent(setup):
    # stream --connect paces each frame by its send instant
    kwargs, duration_s, forces = setup
    stimulus = VaryingStimulus(forces)
    emu = FirmwareEmulator(**kwargs)
    session_ms = emu.config.session_ms(duration_s)
    sent = []
    while emu._clock_ms < session_ms:
        t = emu._clock_ms
        sent += [(t, f) for f in tick_on(emu, stimulus, 1)]
    sent += [(session_ms, f) for f in emu.flush()]
    # the first sample of each frame, as an index into its channel's instants
    period = {kind: p for kind, p, _ in emu.config._kinds()}
    first = [(f.payload.t_ms if f.kind == FrameKind.BATTERY_STATUS else f.payload.t0_ms)
             // period[f.kind] for _, f in sent]
    columns = emu.config.sends(session_ms)
    assert all(c.dtype == np.int64 for c in columns)
    assert [c.tolist() for c in columns] == [
        [t for t, _ in sent], [f.kind for _, f in sent], first]


@settings(max_examples=20, deadline=None)
@given(emulator_setups(), st.integers(0, 300))
def test_ticking_on_after_run_equals_tick_loop(setup, ticks):
    # the activity record run() leaves must take the ticks that follow
    kwargs, duration_s, forces = setup
    stimulus = VaryingStimulus(forces)
    bulk = FirmwareEmulator(**kwargs)
    stepped = FirmwareEmulator(**kwargs)
    frames = run_on_grid(bulk, stimulus, duration_s)
    bulk.activity_timeline  # reading the timeline must leave the record appendable
    frames += tick_on(bulk, stimulus, ticks)
    expected = tick_loop(stepped, stimulus, duration_s) + tick_on(stepped, stimulus, ticks)
    assert observed(bulk, frames) == observed(stepped, expected)


@settings(max_examples=20, deadline=None)
@given(emulator_setups(), st.integers(0, 300))
def test_an_emulator_is_ready_when_built(setup, ticks):
    kwargs, _, forces = setup
    stimulus = VaryingStimulus(forces)
    built = FirmwareEmulator(**kwargs)
    booted = FirmwareEmulator(**kwargs)
    booted.boot()
    assert (observed(built, tick_on(built, stimulus, ticks))
            == observed(booted, tick_on(booted, stimulus, ticks)))
    # boot() after any ticks is a reset to the state the constructor left
    built.boot()
    assert observed(built, []) == observed(FirmwareEmulator(**kwargs), [])
    assert (built._clock_ms, built._seq, built.energy_mwh) == (0, 0, 0.0)
    assert len(built.activity_timeline) == 0
    assert built.soc == built.initial_soc


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
    with pytest.raises(ParameterError) as raised:
        FirmwareEmulator().run(ArrayStimulus(forces, rows), 1.0)
    if accel[1] > 2000:  # run() names the triple and its instant, as tick() does
        assert str(raised.value) == "accel sample (0, 2001, 1000) at t=400 ms is beyond ±2000 mg"


@pytest.mark.parametrize("channel, change", [
    ("force", "missing"), ("accel", "missing"), ("force", "extra"), ("accel", "extra"),
    ("force", "shifted"), ("accel", "shifted"),
], ids=["force", "accel", "force-extra", "accel-extra", "force-shifted", "accel-shifted"])
def test_run_raises_when_array_stimulus_misses_an_instant(channel, change):
    def instants(name, period):
        times = list(range(0, 1000, period))
        if name == channel:
            if change == "missing":
                times.remove(480)
            elif change == "extra":
                times.append(1000)  # the session ends before it
            else:
                times[times.index(480)] = 481
        return times

    force = [ForceSample(t, 4.0) for t in instants("force", 40)]
    accel = np.array([(t, 0, 0, 1000) for t in instants("accel", 20)], dtype=ACCEL_DTYPE)
    with pytest.raises(StimulusError):
        FirmwareEmulator().run(ArrayStimulus(force, accel), 1.0)


# ---------------------------------------------------------------------------
# the schedule check the host runs on a capture
# ---------------------------------------------------------------------------

RATES_HZ = [r for r in range(1, 1001) if 1000 % r == 0]


@st.composite
def schedules(draw):
    """A firmware config with any rates and batches of 1-30, and a session length."""
    config = FirmwareConfig(
        fsr_rate_hz=draw(st.sampled_from(RATES_HZ)),
        accel_rate_hz=draw(st.sampled_from(RATES_HZ)),
        fsr_batch=draw(st.integers(1, 30)),
        accel_batch=draw(st.integers(1, 30)),
        battery_period_ms=draw(st.sampled_from([1, 7, 40, 500, 2000, 3000])),
    )
    return config, draw(st.integers(0, 5000)) / 1000


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_every_frame_run_sends_is_on_its_schedule(setup):
    config, duration_s = setup
    frames = FrameTable.from_frames(run_on_grid(FirmwareEmulator(config), ConstantStimulus(),
                                                duration_s))
    columns = frames.kind, frames.seq, frames.flags, frames.t_ms, frames.count
    assert config.on_schedule(*columns).all()
    # the send order of whole batches, each sent when its last sample is
    # taken: by instant, and within an instant by kind code.  The final flush
    # follows them, and each whole batch's closed-form slot is its index
    total_ms = config.session_ms(duration_s)
    whole = sorted((t, kind) for kind, period, batch in config._kinds()
                   for t in range(0, total_ms, period)[batch - 1::batch])
    flush = (frames.flags & FLAG_FINAL_FLUSH) != 0
    assert flush.tolist() == [False] * len(whole) + [True] * (len(frames) - len(whole))
    send_ms = np.array([t for t, _ in whole], dtype=np.int64)
    kind = np.array([k for _, k in whole], dtype=np.int64)
    assert (kind == frames.kind[~flush]).all()
    assert (config.slot(kind, send_ms) == np.arange(len(whole))).all()
    assert (frames.seq == np.arange(len(frames)) % 2**16).all()
    # any other seq is off the schedule, unless the frame is the final flush
    assert (config.on_schedule(frames.kind, frames.seq ^ 1, *columns[2:]) == flush).all()
    # a frame a sample period late is off its kind's grid, whatever its seq,
    # unless its batches hold one sample
    grid = {k: (p, b) for k, p, b in config._kinds()}
    period, batch = np.array([grid[k] for k in frames.kind.tolist()],
                             dtype=np.int64).reshape(-1, 2).T
    late = frames.t_ms + period
    seq = config.slot(frames.kind, late + (batch - 1) * period) % 2**16
    assert (config.on_schedule(frames.kind, seq, frames.flags, late, frames.count)
            == (batch == 1)).all()
