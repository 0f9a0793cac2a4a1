"""Session configuration: YAML in, validated dataclasses out.

Everything defaults, so a minimal config is a single line (say
``rate_bpm: 15``) or even an empty file.  Unknown keys are rejected with
the full key path instead of being ignored — a silently misspelled
``batery:`` section has burned enough people.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field

import yaml

from .firmware import DeviceModel, FirmwareConfig
from .pipeline import AnalysisConfig
from .power import PRESETS, PowerProfile
from .sensor import POSTURES, AdcConfig, DividerConfig, FsrModel, OcvCurve


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
        # the chain and the power profile check their own limits when built
        self.device_model()
        self.power_profile()

    def device_model(self) -> DeviceModel:
        return DeviceModel(
            fsr=self.fsr,
            divider=self.divider,
            adc=self.adc,
            ocv=OcvCurve(self.battery.ocv_points),
            sense_ratio=self.battery.sense_ratio,
            capacity_mah=self.battery.capacity_mah,
            nominal_v=self.battery.nominal_v,
        )

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
def _number_fields(cls) -> dict[str, bool]:
    """Fields annotated int, float or ``float | None``, each with whether it takes None."""
    fields = {}
    for name, hint in typing.get_type_hints(cls).items():
        types = set(typing.get_args(hint) or (hint,))
        if types - {type(None)} and types <= {int, float, type(None)}:
            fields[name] = type(None) in types
    return fields


def _build(cls, data, path: str, nested=None):
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path.rstrip('.') or 'config'}: expected a mapping, got {type(data).__name__}"
        )
    names = {f.name for f in dataclasses.fields(cls)}
    numbers = _number_fields(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if nested and key in nested:
            kwargs[key] = nested[key](value, f"{path}{key}.")
            continue
        # a number field's own checks compare it, which would fail on a string
        # with a TypeError that names no key
        if key in numbers and not (
            isinstance(value, (int, float)) or (value is None and numbers[key])
        ):
            raise ConfigError(f"{path}{key}: expected a number, got {type(value).__name__}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        where = path.rstrip(".")
        raise ConfigError(f"{where}: {e}" if where else str(e)) from e


def _build_segments(cls, value, path: str) -> tuple:
    where = path.rstrip(".")
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of segments")
    return tuple(_build(cls, seg, f"{where}[{i}].") for i, seg in enumerate(value))


def _build_scenario(value, path: str) -> ScenarioConfig:
    return _build(
        ScenarioConfig, value, path,
        nested={
            "breathing": lambda v, p: _build_segments(BreathSegment, v, p),
            "posture": lambda v, p: _build_segments(PostureSegment, v, p),
        },
    )


def _build_battery(value, path: str) -> BatteryConfig:
    if isinstance(value, dict) and "ocv_points" in value:
        pts = value["ocv_points"]
        if not isinstance(pts, list):
            raise ConfigError(f"{path}ocv_points: expected a list of [soc, volts] pairs")
        value = dict(value, ocv_points=tuple(tuple(p) for p in pts))
    return _build(BatteryConfig, value, path)


def from_dict(data: dict | None) -> SessionConfig:
    """Build a fully defaulted SessionConfig from a parsed mapping."""
    data = dict(data or {})
    # one-line conveniences: top-level rate_bpm / posture
    rate = data.pop("rate_bpm", None)
    posture = data.pop("posture", None)
    if rate is not None or posture is not None:
        scenario = data.setdefault("scenario", {})
        if not isinstance(scenario, dict):
            raise ConfigError("scenario: expected a mapping")
        if rate is not None:
            if "breathing" in scenario:
                raise ConfigError("give either top-level rate_bpm or scenario.breathing, not both")
            scenario["breathing"] = [{"start_s": 0, "rate_bpm": rate}]
        if posture is not None:
            if "posture" in scenario:
                raise ConfigError("give either top-level posture or scenario.posture, not both")
            scenario["posture"] = [{"start_s": 0, "posture": posture}]
    return _build(
        SessionConfig, data, "",
        nested={
            "scenario": _build_scenario,
            "firmware": lambda v, p: _build(FirmwareConfig, v, p),
            "fsr": lambda v, p: _build(FsrModel, v, p),
            "divider": lambda v, p: _build(DividerConfig, v, p),
            "adc": lambda v, p: _build(AdcConfig, v, p),
            "battery": _build_battery,
            "power": lambda v, p: _build(PowerConfig, v, p),
            "analysis": lambda v, p: _build(AnalysisConfig, v, p),
        },
    )


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
