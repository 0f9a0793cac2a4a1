"""Software twin of a wearable respiratory motion sensor.

The package models the whole round trip: FSR/divider/ADC electronics and
battery (:mod:`respsim.sensor`), the firmware sampling schedule and
batching (:mod:`respsim.firmware`), byte-exact telemetry framing
(:mod:`respsim.protocol`), the host pipeline that recovers respiration
rate, motion artifacts and battery status (:mod:`respsim.pipeline`), an
energy/battery-life audit (:mod:`respsim.power`), and a CLI harness
(:mod:`respsim.cli`).
"""

from .sensor import (
    AdcConfig,
    DividerConfig,
    ForceSample,
    FsrModel,
    OcvCurve,
    ParameterError,
    adc_quantize,
    divider_voltage,
    fsr_resistance,
)
from .protocol import (
    FrameKind,
    FrameTable,
    ProtocolError,
    StreamSplitter,
    TelemetryFrame,
    decode,
    encode,
    split_stream,
)
from .firmware import FirmwareConfig, FirmwareEmulator
from .power import EnergyReport, PowerProfile, PRESETS, accumulate, battery_life_hours
from .pipeline import (
    analyze_session,
    battery_percent,
    detect_breaths,
    detect_motion_artifacts,
    estimate_rate,
    reconstruct_force,
)
from .config import ConfigError, SessionConfig, from_dict, load_config
from .session import run_session

__version__ = "0.1.0"

__all__ = [
    "AdcConfig", "ConfigError", "DividerConfig", "EnergyReport",
    "FirmwareConfig", "FirmwareEmulator", "ForceSample", "FrameKind", "FrameTable", "FsrModel",
    "OcvCurve", "ParameterError", "PowerProfile", "PRESETS",
    "ProtocolError", "SessionConfig", "StreamSplitter",
    "TelemetryFrame", "accumulate", "adc_quantize", "analyze_session",
    "battery_life_hours", "battery_percent",
    "decode", "detect_breaths", "detect_motion_artifacts",
    "divider_voltage", "encode", "estimate_rate", "from_dict",
    "fsr_resistance", "load_config",
    "reconstruct_force", "run_session", "split_stream",
]
