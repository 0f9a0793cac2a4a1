"""Session configuration: YAML in, validated dataclasses out.

Everything defaults, so a minimal config is a single line (say
``rate_bpm: 15``) or even an empty file.  Unknown keys are rejected with
the full key path instead of being ignored — a silently misspelled
``batery:`` section has burned enough people.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from dataclasses import dataclass, field

import yaml

from .firmware import DeviceModel, FirmwareConfig
from .pipeline import AnalysisConfig
from .power import PRESETS, PowerProfile
from .sensor import (
    POSTURES, AdcConfig, DividerConfig, FsrModel, OcvCurve, ParameterError, SenseRangeError,
)


class ConfigError(ValueError):
    """Bad configuration file: unknown key, bad type, or invalid value."""


@dataclass(frozen=True)
class BreathSegment:
    start_s: float
    rate_bpm: float

    def __post_init__(self) -> None:
        if not (0 < self.rate_bpm <= 60):
            raise ConfigError(f"rate_bpm must be in (0, 60], got {self.rate_bpm}")


@dataclass(frozen=True)
class PostureSegment:
    start_s: float
    posture: str

    def __post_init__(self) -> None:
        if self.posture not in POSTURES:
            raise ConfigError(f"unknown posture {self.posture!r}, expected one of {POSTURES}")


@dataclass(frozen=True)
class ScenarioConfig:
    """What the wearer is doing: breathing schedule plus posture schedule."""

    breathing: tuple[BreathSegment, ...] = (BreathSegment(0.0, 15.0),)
    posture: tuple[PostureSegment, ...] = (PostureSegment(0.0, "still"),)
    amplitude_n: float = 2.0
    baseline_n: float = 4.0
    noise_sd_n: float = 0.0
    accel_noise_sd_mg: float = 10.0

    def __post_init__(self) -> None:
        for name in ("breathing", "posture"):
            starts = [seg.start_s for seg in getattr(self, name)]
            if not starts:
                raise ConfigError(f"{name}: the schedule is empty, it needs at least one segment")
            if starts[0] != 0:
                raise ConfigError(f"{name}: first segment must start at 0, got {starts[0]}")
            if any(b <= a for a, b in zip(starts, starts[1:])):
                raise ConfigError(f"{name}: segment starts must be strictly increasing")
        if not (0 <= self.amplitude_n <= self.baseline_n):
            raise ConfigError(
                "need 0 <= amplitude_n <= baseline_n, got "
                f"{self.amplitude_n}, {self.baseline_n}"
            )
        for name in ("noise_sd_n", "accel_noise_sd_mg"):
            value = getattr(self, name)
            if not (value >= 0):
                raise ConfigError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class BatteryConfig:
    capacity_mah: float = 450.0
    initial_soc: float = 1.0
    charging: bool = False
    sense_ratio: float = 0.4
    nominal_v: float = 3.7
    ocv_points: tuple[tuple[float, float], ...] = ((0.0, 3.3), (1.0, 4.2))

    def __post_init__(self) -> None:
        if not (0.0 <= self.initial_soc <= 1.0):
            raise ConfigError(f"initial_soc must be in [0, 1], got {self.initial_soc}")


@dataclass(frozen=True)
class PowerConfig:
    preset: str = "abstract-claim"
    p_idle_uw: float | None = None
    p_active_uw: float | None = None
    p_radio_uw: float | None = None
    tx_ms_per_frame: int = 2


@dataclass(frozen=True)
class SessionConfig:
    duration_s: float = 60.0
    seed: int = 0
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    firmware: FirmwareConfig = field(default_factory=FirmwareConfig)
    fsr: FsrModel = field(default_factory=FsrModel)
    divider: DividerConfig = field(default_factory=DividerConfig)
    adc: AdcConfig = field(default_factory=AdcConfig)
    battery: BatteryConfig = field(default_factory=BatteryConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self) -> None:
        if not (self.duration_s >= 0):
            raise ConfigError(f"duration_s must be >= 0, got {self.duration_s}")
        if not (self.seed >= 0 and self.seed % 1 == 0):
            raise ConfigError(f"seed must be a whole number >= 0, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))
        # the chain and the power profile check their own limits when built
        self.device_model()
        self.power_profile()

    def device_model(self) -> DeviceModel:
        try:
            ocv = OcvCurve(self.battery.ocv_points)
        except ParameterError as e:
            raise ConfigError(f"battery.ocv_points: {e}") from e
        try:
            return DeviceModel(
                fsr=self.fsr,
                divider=self.divider,
                adc=self.adc,
                ocv=ocv,
                sense_ratio=self.battery.sense_ratio,
                capacity_mah=self.battery.capacity_mah,
                nominal_v=self.battery.nominal_v,
            )
        except SenseRangeError as e:
            raise ConfigError(f"battery.sense_ratio: {e}") from e

    def power_profile(self) -> PowerProfile:
        p = self.power
        custom = (p.p_idle_uw, p.p_active_uw, p.p_radio_uw)
        if any(v is not None for v in custom):
            if not all(v is not None for v in custom):
                raise ConfigError(
                    "power: custom profiles need all of p_idle_uw, p_active_uw, p_radio_uw"
                )
            return PowerProfile(p.p_idle_uw, p.p_active_uw, p.p_radio_uw, p.tx_ms_per_frame)
        if p.preset not in PRESETS:
            raise ConfigError(
                f"power.preset: unknown preset {p.preset!r}, "
                f"expected one of {sorted(PRESETS)}"
            )
        base = PRESETS[p.preset]
        return PowerProfile(
            base.p_idle_uw, base.p_active_uw, base.p_radio_uw, p.tx_ms_per_frame
        )


@functools.cache
def _field_types(cls) -> dict:
    """Each field of a config dataclass with its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _fits_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _build(hint, value, where: str):
    """Build ``value`` as the annotation ``hint`` asks, naming ``where`` in errors.

    Sections recurse into their fields and tuples into their items.  Bool,
    number and string fields are type-checked here: a field's own checks
    would fail on a wrong type with a TypeError that names no key, and take
    YAML ``true`` for 1.  Numbers must be finite, as in the JSON truth
    sidecar: YAML's ``.inf`` and ``.nan`` pass most range checks, and an
    integer in a float field must not overflow a float.
    Every other rule is checked by the dataclass that owns the field.
    """
    got = type(value).__name__
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{where or 'config'}: expected a mapping, got {got}")
        fields = _field_types(hint)
        kwargs = {}
        for key, item in value.items():
            path = f"{where}.{key}" if where else str(key)
            if key not in fields:
                raise ConfigError(f"unknown config key '{path}'")
            kwargs[key] = _build(fields[key], item, path)
        try:
            return hint(**kwargs)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{where}: {e}" if where else str(e)) from e
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {got}")
        items = args[:1] * len(value) if args[1:] == (...,) else args
        if len(items) != len(value):
            raise ConfigError(f"{where}: expected {len(items)} items, got {len(value)}")
        return tuple(_build(h, v, f"{where}[{i}]") for i, (h, v) in enumerate(zip(items, value)))
    types = set(args or (hint,))
    if value is None and type(None) in types:
        return value
    if bool in types:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {got}")
    elif types & {int, float}:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {got}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {value}")
        if float in types and isinstance(value, int) and not _fits_float(value):
            raise ConfigError(f"{where}: expected a finite number")
    elif str in types and not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {got}")
    return value


def from_dict(data: dict | None) -> SessionConfig:
    """Build a fully defaulted SessionConfig from a parsed mapping."""
    data = dict(data or {})
    # one-line conveniences: top-level rate_bpm / posture
    rate = data.pop("rate_bpm", None)
    posture = data.pop("posture", None)
    if rate is not None or posture is not None:
        scenario = data.get("scenario", {})
        if not isinstance(scenario, dict):
            raise ConfigError("scenario: expected a mapping")
        # a copy: the caller's own nested mapping stays as it was
        scenario = data["scenario"] = dict(scenario)
        if rate is not None:
            if "breathing" in scenario:
                raise ConfigError("give either top-level rate_bpm or scenario.breathing, not both")
            scenario["breathing"] = [{"start_s": 0, "rate_bpm": rate}]
        if posture is not None:
            if "posture" in scenario:
                raise ConfigError("give either top-level posture or scenario.posture, not both")
            scenario["posture"] = [{"start_s": 0, "posture": posture}]
    return _build(SessionConfig, data, "")


def load_config(path: str) -> SessionConfig:
    """Load and validate a YAML (or JSON) session config file."""
    with open(path, "r", encoding="utf-8") as fp:
        try:
            data = yaml.safe_load(fp)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: {e}") from e
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return from_dict(data)


def apply_overrides(
    cfg: SessionConfig,
    seed: int | None = None,
    duration_s: float | None = None,
) -> SessionConfig:
    """Command-line overrides win over file values."""
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    if duration_s is not None:
        cfg = dataclasses.replace(cfg, duration_s=duration_s)
    return cfg
