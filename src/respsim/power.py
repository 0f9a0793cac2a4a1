"""Power profiles, activity timelines, energy accumulation, and battery life.

The device's published power figures disagree by an order of magnitude
(400 microwatts in one place, 4.9 milliwatts in another), so both are kept
as named presets — ``abstract-claim`` and ``intro-claim`` — and the audit
report always projects battery life under each so the contradiction stays
visible instead of silently picking a side.

Device activity is one state code per tick, as the firmware emulator
records it.  :meth:`Timeline.from_ticks` run-length encodes those codes into
numpy columns of states and interval edges, and :func:`accumulate`
integrates a profile over the columns as they are, adding the per-interval
energies in time order with ``np.cumsum`` so the sum is the one an
interval-by-interval ``+=`` gives, bit for bit.

A draw out of range, or no positive average power for a battery life,
raises :class:`~respsim.sensor.ParameterError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensor import ParameterError

# microwatt-milliseconds per milliwatt-hour: 1 mWh = 1000 uW * 3600 * 1000 ms
UW_MS_PER_MWH = 3.6e9

ACTIVITY_STATES = ("idle", "active", "radio")
# activity state codes: indices into ACTIVITY_STATES
IDLE, ACTIVE, RADIO = range(len(ACTIVITY_STATES))


@dataclass
class Timeline:
    """Merged activity intervals as run-length-encoded numpy columns.

    Interval ``i`` is state ``ACTIVITY_STATES[states[i]]`` over
    ``[starts[i], ends[i])`` ms.  Intervals are time-ordered and contiguous,
    and neighbouring intervals differ in state.  :meth:`from_ticks` builds
    every timeline.
    """

    states: np.ndarray  # int8 state codes
    starts: np.ndarray  # int64 ms
    ends: np.ndarray    # int64 ms

    def __len__(self) -> int:
        return len(self.starts)

    @classmethod
    def from_ticks(cls, states: np.ndarray, tick_ms: int) -> "Timeline":
        """Run-length encode one ``int8`` state code per tick, starting at t=0."""
        # an interval starts at tick 0 and wherever the state changes, and
        # the last one ends after the last tick
        change = np.ones(states.size + 1, dtype=bool)
        np.not_equal(states[1:], states[:-1], out=change[1:-1])
        # the edges of every interval; starts and ends are views of them
        edges = np.flatnonzero(change).astype(np.int64, copy=False)
        del change
        first_states = states[edges[:-1]]
        edges *= tick_ms
        return cls(first_states, edges[:-1], edges[1:])


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power draw in microwatts plus radio airtime per frame."""

    p_idle_uw: float
    p_active_uw: float
    p_radio_uw: float
    tx_ms_per_frame: int = 2

    def __post_init__(self) -> None:
        for name in ("p_idle_uw", "p_active_uw", "p_radio_uw"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0, got {value}")
        if self.tx_ms_per_frame < 0 or self.tx_ms_per_frame % 1 != 0:
            raise ParameterError(
                f"tx_ms_per_frame must be a whole number >= 0, got {self.tx_ms_per_frame}"
            )
        object.__setattr__(self, "tx_ms_per_frame", int(self.tx_ms_per_frame))

    def state_powers_uw(self) -> np.ndarray:
        """Draw of every state in microwatts, indexed by state code."""
        return np.array([self.p_idle_uw, self.p_active_uw, self.p_radio_uw], dtype=float)


def uniform_profile(p_uw: float, tx_ms_per_frame: int = 2) -> PowerProfile:
    """A profile drawing the same power in every state."""
    return PowerProfile(p_uw, p_uw, p_uw, tx_ms_per_frame)


# The two published whole-device figures; see the audit report for how they
# disagree.  Uniform draw means any activity timeline reproduces the claim.
PRESETS: dict[str, PowerProfile] = {
    "abstract-claim": uniform_profile(400.0),
    "intro-claim": uniform_profile(4900.0),
}


@dataclass(frozen=True)
class EnergyReport:
    duration_s: float
    energy_mwh: float
    average_power_uw: float
    projected_battery_life_h: float
    ms_by_state: dict[str, int]


def battery_life_hours(
    average_power_uw: float,
    capacity_mah: float = 450.0,
    nominal_v: float = 3.7,
) -> float:
    """Hours until empty: capacity_mah * nominal_v / milliwatts of draw."""
    if not average_power_uw > 0:
        raise ParameterError(f"average power must be positive, got {average_power_uw}")
    if not (0 < capacity_mah < math.inf and 0 < nominal_v < math.inf):
        raise ParameterError("capacity_mah and nominal_v must be positive and finite")
    return capacity_mah * nominal_v / (average_power_uw / 1000.0)


def accumulate(
    profile: PowerProfile,
    timeline: Timeline,
    capacity_mah: float = 450.0,
    nominal_v: float = 3.7,
) -> EnergyReport:
    """Integrate a profile over an activity timeline into an energy report."""
    states = timeline.states
    durations = timeline.ends - timeline.starts
    # in place: fewer temporaries of the timeline's length raise peak memory
    interval_mwh = profile.state_powers_uw()[states]
    interval_mwh *= durations
    interval_mwh /= UW_MS_PER_MWH
    # sequential, like adding interval by interval; np.sum would add pairwise
    np.cumsum(interval_mwh, out=interval_mwh)
    energy_mwh = float(interval_mwh[-1]) if durations.size else 0.0
    del interval_mwh
    total_ms = int(durations.sum())
    ms_by_state = {state: int(durations[states == code].sum())
                   for code, state in enumerate(ACTIVITY_STATES)}
    duration_s = total_ms / 1000.0
    if total_ms > 0:
        average_uw = energy_mwh * UW_MS_PER_MWH / total_ms
    else:
        average_uw = 0.0
    if average_uw > 0:
        life_h = battery_life_hours(average_uw, capacity_mah, nominal_v)
    else:
        life_h = float("inf")
    return EnergyReport(
        duration_s=duration_s,
        energy_mwh=energy_mwh,
        average_power_uw=average_uw,
        projected_battery_life_h=life_h,
        ms_by_state=ms_by_state,
    )
