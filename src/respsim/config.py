"""Session configuration: YAML in, validated dataclasses out.

Everything defaults, so a minimal config is a single line (say
``rate_bpm: 15``) or even an empty file.  Unknown keys are rejected with
the full key path instead of being ignored — a silently misspelled
``batery:`` section has burned enough people.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import yaml

from .firmware import DeviceModel, FirmwareConfig, InvalidConfigError
from .pipeline import AnalysisConfig
from .power import PRESETS, PowerProfile
from .sensor import (
    AdcConfig,
    DividerConfig,
    FsrModel,
    OcvCurve,
    ParameterError,
    SenseRangeError,
    battery_sense_voltage,
)


class ConfigError(ValueError):
    """Bad configuration file: unknown key, bad type, or invalid value."""


@dataclass(frozen=True)
class BreathSegment:
    start_s: float
    rate_bpm: float


@dataclass(frozen=True)
class PostureSegment:
    start_s: float
    posture: str


@dataclass(frozen=True)
class ScenarioConfig:
    """What the wearer is doing: breathing schedule plus posture schedule."""

    breathing: tuple[BreathSegment, ...] = (BreathSegment(0.0, 15.0),)
    posture: tuple[PostureSegment, ...] = (PostureSegment(0.0, "still"),)
    amplitude_n: float = 2.0
    baseline_n: float = 4.0
    noise_sd_n: float = 0.0
    accel_noise_sd_mg: float = 10.0


@dataclass(frozen=True)
class BatteryConfig:
    capacity_mah: float = 450.0
    initial_soc: float = 1.0
    charging: bool = False
    sense_ratio: float = 0.4
    nominal_v: float = 3.7
    ocv_points: tuple[tuple[float, float], ...] = ((0.0, 3.3), (1.0, 4.2))


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


def _build(cls, data, path: str, nested=None):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in names:
            raise ConfigError(f"unknown config key '{path}{key}'")
        if nested and key in nested:
            kwargs[key] = nested[key](value, f"{path}{key}.")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ParameterError, InvalidConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"{path.rstrip('.') or 'config'}: {e}") from e


def _build_breathing(value, path: str) -> tuple[BreathSegment, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path.rstrip('.')}: expected a non-empty list of segments")
    segments = tuple(_build(BreathSegment, seg, f"{path}[{i}].") for i, seg in enumerate(value))
    _check_segments(path, [s.start_s for s in segments])
    for i, s in enumerate(segments):
        if not (0 < s.rate_bpm <= 60):
            raise ConfigError(f"{path}[{i}].rate_bpm: must be in (0, 60], got {s.rate_bpm}")
    return segments


def _build_posture(value, path: str) -> tuple[PostureSegment, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path.rstrip('.')}: expected a non-empty list of segments")
    segments = tuple(_build(PostureSegment, seg, f"{path}[{i}].") for i, seg in enumerate(value))
    _check_segments(path, [s.start_s for s in segments])
    from .sensor import POSTURES
    for i, s in enumerate(segments):
        if s.posture not in POSTURES:
            raise ConfigError(
                f"{path}[{i}].posture: unknown posture {s.posture!r}, expected one of {POSTURES}"
            )
    return segments


def _check_segments(path: str, starts: list[float]) -> None:
    if starts[0] != 0:
        raise ConfigError(f"{path.rstrip('.')}: first segment must start at 0, got {starts[0]}")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ConfigError(f"{path.rstrip('.')}: segment starts must be strictly increasing")


def _build_scenario(value, path: str) -> ScenarioConfig:
    return _build(
        ScenarioConfig, value, path,
        nested={"breathing": _build_breathing, "posture": _build_posture},
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
    cfg = _build(
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
    _validate(cfg)
    return cfg


def _validate(cfg: SessionConfig) -> None:
    if cfg.duration_s < 0:
        raise ConfigError(f"duration_s: must be >= 0, got {cfg.duration_s}")
    if not (0 <= cfg.scenario.amplitude_n <= cfg.scenario.baseline_n):
        raise ConfigError(
            "scenario: need 0 <= amplitude_n <= baseline_n, got "
            f"{cfg.scenario.amplitude_n}, {cfg.scenario.baseline_n}"
        )
    for name in ("noise_sd_n", "accel_noise_sd_mg"):
        value = getattr(cfg.scenario, name)
        if value < 0:
            raise ConfigError(f"scenario.{name}: must be >= 0, got {value}")
    if not (0.0 <= cfg.battery.initial_soc <= 1.0):
        raise ConfigError(
            f"battery.initial_soc: must be in [0, 1], got {cfg.battery.initial_soc}"
        )
    try:
        model = cfg.device_model()
        # the full-charge rail must fit the ADC front end
        battery_sense_voltage(model.ocv.v_max, model.sense_ratio, model.adc.v_ref)
        cfg.power_profile()
    except (ParameterError, SenseRangeError) as e:
        raise ConfigError(str(e)) from e


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
        if duration_s < 0:
            raise ConfigError(f"duration must be >= 0, got {duration_s}")
        cfg = dataclasses.replace(cfg, duration_s=duration_s)
    return cfg
