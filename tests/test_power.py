"""Energy accumulation over activity timelines, and battery-life projection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from respsim.power import (
    ACTIVITY_STATES,
    PRESETS,
    UW_MS_PER_MWH,
    PowerProfile,
    Timeline,
    accumulate,
    battery_life_hours,
    uniform_profile,
)
from respsim.sensor import ParameterError


def runs(*pairs):
    """A timeline of ``(state, duration_ms)`` runs starting at t=0."""
    edges = np.cumsum([0, *(duration for _, duration in pairs)], dtype=np.int64)
    states = np.array([ACTIVITY_STATES.index(state) for state, _ in pairs], dtype=np.int8)
    return Timeline(states, edges[:-1], edges[1:])


def test_constant_400uw_for_one_hour_is_0p4_mwh():
    profile = uniform_profile(400.0)
    report = accumulate(profile, runs(("active", 3_600_000)))
    assert report.energy_mwh == pytest.approx(0.4, rel=1e-12)
    assert report.average_power_uw == pytest.approx(400.0, rel=1e-12)
    assert report.duration_s == 3600.0


def test_zero_power_zero_energy():
    profile = uniform_profile(0.0)
    report = accumulate(profile, runs(("idle", 10_000)))
    assert report.energy_mwh == 0.0
    assert report.average_power_uw == 0.0
    assert report.projected_battery_life_h == float("inf")


def test_duty_cycle_average():
    # half the time at 4900 uW, half idle at 0: average 2450 uW
    profile = PowerProfile(p_idle_uw=0.0, p_active_uw=4900.0, p_radio_uw=4900.0)
    report = accumulate(profile, runs(("active", 30_000), ("idle", 30_000)))
    assert report.average_power_uw == pytest.approx(2450.0, rel=1e-12)
    assert report.ms_by_state == {"idle": 30_000, "active": 30_000, "radio": 0}


def test_interval_state_validation():
    with pytest.raises(ParameterError):
        PowerProfile(-1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        uniform_profile(math.nan)
    with pytest.raises(ParameterError):
        uniform_profile(math.inf)


def test_battery_life_at_abstract_claim():
    # 450 mAh * 3.7 V = 1665 mWh; at 0.4 mW that's 4162.5 hours
    assert battery_life_hours(400.0) == pytest.approx(4162.5, rel=1e-12)


def test_battery_life_at_intro_claim():
    # 1665 mWh / 4.9 mW = 339.79... hours -- about two weeks, not half a year
    assert battery_life_hours(4900.0) == pytest.approx(1665.0 / 4.9, rel=1e-12)
    assert battery_life_hours(4900.0) == pytest.approx(339.8, abs=0.05)


def test_battery_life_scales_linearly_with_capacity():
    assert battery_life_hours(400.0, capacity_mah=900.0) == 2 * battery_life_hours(400.0)


def test_battery_life_rejects_zero_power():
    with pytest.raises(ParameterError):
        battery_life_hours(0.0)
    with pytest.raises(ParameterError):
        battery_life_hours(-5.0)
    with pytest.raises(ParameterError):
        battery_life_hours(math.nan)


@pytest.mark.parametrize("battery", [{"capacity_mah": math.nan}, {"nominal_v": math.nan},
                                     {"capacity_mah": math.inf}, {"nominal_v": math.inf}],
                         ids=["capacity", "voltage", "inf-capacity", "inf-voltage"])
def test_battery_life_rejects_nan_battery(battery):
    with pytest.raises(ParameterError):
        battery_life_hours(400.0, **battery)


def test_presets_are_uniform_claims():
    assert PRESETS["abstract-claim"].p_idle_uw == 400.0
    assert PRESETS["abstract-claim"].p_radio_uw == 400.0
    assert PRESETS["intro-claim"].p_active_uw == 4900.0
    # a uniform profile reproduces its claim over any timeline shape
    timeline = runs(("idle", 123), ("radio", 7), ("active", 330))
    for name, expected in (("abstract-claim", 400.0), ("intro-claim", 4900.0)):
        report = accumulate(PRESETS[name], timeline)
        assert report.average_power_uw == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# accumulate against the interval-by-interval loop
# ---------------------------------------------------------------------------

def reference_accumulate(profile, timeline):
    """The reference: add each interval's energy and time with ``+=``, in order."""
    draws = {"idle": profile.p_idle_uw, "active": profile.p_active_uw,
             "radio": profile.p_radio_uw}
    energy_mwh = 0.0
    total_ms = 0
    ms_by_state = {state: 0 for state in ACTIVITY_STATES}
    for code, start, end in zip(timeline.states.tolist(), timeline.starts.tolist(),
                                timeline.ends.tolist()):
        state = ACTIVITY_STATES[code]
        energy_mwh += draws[state] * (end - start) / UW_MS_PER_MWH
        total_ms += end - start
        ms_by_state[state] += end - start
    average_uw = energy_mwh * UW_MS_PER_MWH / total_ms if total_ms > 0 else 0.0
    return energy_mwh, ms_by_state, total_ms / 1000.0, average_uw


@st.composite
def timelines(draw):
    # each run moves to one of the two other states, as a merged timeline does
    steps = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(1, 10**7)), max_size=300))
    state = draw(st.integers(0, len(ACTIVITY_STATES) - 1))
    pairs = []
    for step, duration in steps:
        pairs.append((ACTIVITY_STATES[state], duration))
        state = (state + step) % len(ACTIVITY_STATES)
    return runs(*pairs)


@example(runs(), [400.0, 500.0, 600.0])
@settings(max_examples=200, deadline=None)
@given(timelines(), st.lists(st.floats(0.0, 1e9) | st.integers(0, 10**6),
                             min_size=3, max_size=3, unique=True))
def test_accumulate_equals_interval_loop(timeline, powers):
    profile = PowerProfile(*powers)
    report = accumulate(profile, timeline)
    got = (report.energy_mwh, report.ms_by_state, report.duration_s, report.average_power_uw)
    assert got == reference_accumulate(profile, timeline)  # exact, not approx


# ---------------------------------------------------------------------------
# Timeline.from_ticks
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2) | st.integers(-128, 127), max_size=300),
       st.integers(1, 20))
def test_from_ticks_run_length_encodes_every_tick(codes, tick_ms):
    ticks = np.array(codes, dtype=np.int8)
    timeline = Timeline.from_ticks(ticks, tick_ms)
    states, starts, ends = timeline.states, timeline.starts, timeline.ends
    assert (states.dtype, starts.dtype, ends.dtype) == (np.int8, np.int64, np.int64)
    assert len(timeline) == len(states) == len(ends)
    np.testing.assert_array_equal(np.repeat(states, (ends - starts) // tick_ms), ticks)
    if ticks.size:
        assert starts[0] == 0
        assert ends[-1] == ticks.size * tick_ms
    np.testing.assert_array_equal(starts[1:], ends[:-1])
    assert (states[1:] != states[:-1]).all()
