"""Power profiles, energy accumulation, and battery-life projection.

The device's published power figures disagree by an order of magnitude
(400 microwatts in one place, 4.9 milliwatts in another), so both are kept
as named presets — ``abstract-claim`` and ``intro-claim`` — and the audit
report always projects battery life under each so the contradiction stays
visible instead of silently picking a side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .sensor import BatteryState, ParameterError

MS_PER_HOUR = 3_600_000.0
# microwatt-milliseconds per milliwatt-hour: 1 mWh = 1000 uW * 3600 * 1000 ms
UW_MS_PER_MWH = 3.6e9

ACTIVITY_STATES = ("idle", "active", "radio")


class OverlapError(ValueError):
    """Activity intervals overlap or run backwards in time."""


class ZeroPowerError(ValueError):
    """Battery life is undefined at zero or negative average power."""


@dataclass(frozen=True)
class PowerProfile:
    """Per-state power draw in microwatts plus radio airtime per frame."""

    p_idle_uw: float
    p_active_uw: float
    p_radio_uw: float
    tx_ms_per_frame: int = 2

    def __post_init__(self) -> None:
        for name in ("p_idle_uw", "p_active_uw", "p_radio_uw"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        if self.tx_ms_per_frame < 0 or self.tx_ms_per_frame % 1 != 0:
            raise ParameterError("tx_ms_per_frame must be a whole number >= 0")
        object.__setattr__(self, "tx_ms_per_frame", int(self.tx_ms_per_frame))

    def power_uw(self, state: str) -> float:
        if state == "idle":
            return self.p_idle_uw
        if state == "active":
            return self.p_active_uw
        if state == "radio":
            return self.p_radio_uw
        raise ParameterError(f"unknown activity state {state!r}")


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
class ActivityInterval:
    state: str
    start_ms: int
    end_ms: int

    def __post_init__(self) -> None:
        if self.state not in ACTIVITY_STATES:
            raise ParameterError(f"unknown activity state {self.state!r}")
        if self.end_ms <= self.start_ms:
            raise OverlapError(
                f"interval must run forward, got [{self.start_ms}, {self.end_ms})"
            )

    @property
    def duration_ms(self) -> int:
        return self.end_ms - self.start_ms


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
    if average_power_uw <= 0:
        raise ZeroPowerError(f"average power must be positive, got {average_power_uw}")
    if capacity_mah <= 0 or nominal_v <= 0:
        raise ParameterError("capacity_mah and nominal_v must be positive")
    return capacity_mah * nominal_v / (average_power_uw / 1000.0)


def accumulate(
    profile: PowerProfile,
    timeline: Sequence[ActivityInterval] | Iterable[ActivityInterval],
    capacity_mah: float = 450.0,
    nominal_v: float = 3.7,
) -> EnergyReport:
    """Integrate a profile over an activity timeline into an energy report.

    Intervals must be non-overlapping and time-ordered; gaps are allowed
    and count as no draw (they also don't count toward the duration).
    """
    intervals = list(timeline)
    last_end = None
    energy_mwh = 0.0
    total_ms = 0
    ms_by_state = {state: 0 for state in ACTIVITY_STATES}
    for iv in intervals:
        if last_end is not None and iv.start_ms < last_end:
            raise OverlapError(
                f"interval [{iv.start_ms}, {iv.end_ms}) overlaps previous end {last_end}"
            )
        last_end = iv.end_ms
        energy_mwh += profile.power_uw(iv.state) * iv.duration_ms / UW_MS_PER_MWH
        total_ms += iv.duration_ms
        ms_by_state[iv.state] += iv.duration_ms
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


def drain(battery: BatteryState, energy_mwh: float, nominal_v: float = 3.7) -> BatteryState:
    """Withdraw energy from a battery, clamping at empty.

    The state of charge drops by ``energy_mwh / (capacity_mah * nominal_v)``
    — at the default 450 mAh / 3.7 V pack, draining 1665 mWh takes soc from
    1.0 exactly to 0.0 and marks the pack depleted.
    """
    if energy_mwh < 0:
        raise ParameterError(f"energy_mwh must be >= 0, got {energy_mwh}")
    if nominal_v <= 0:
        raise ParameterError(f"nominal_v must be positive, got {nominal_v}")
    soc = battery.soc - energy_mwh / (battery.capacity_mah * nominal_v)
    if soc <= 0.0:
        return replace(battery, soc=0.0, depleted=True)
    return replace(battery, soc=soc)
