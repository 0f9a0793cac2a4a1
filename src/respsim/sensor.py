"""Analog front-end models and the building blocks of synthetic stimulus.

The sensing chain mirrors the wearable's electronics: a force-sensing
resistor (FSR) forming the lower leg of a voltage divider, sampled by a
12-bit ADC, plus a battery whose terminal voltage reaches the same ADC
through a resistive sense divider.  Everything in this module is pure and
deterministic so the firmware emulator layered on top stays
byte-reproducible.

:class:`ParameterError` is the package's one error for a value out of
range.  Each dataclass checks its fields when built, NaN-safe and finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FULL_SCALE_MG = 2000  # accelerometer clamp, milli-g per axis


class ParameterError(ValueError):
    """A value is outside its valid range: a model parameter, a config
    value from a file or from code, a function argument, or a
    configuration the modeled hardware cannot run."""


def _round_half_up(x: float) -> int:
    """Round with ties going up, matching the ADC's quantizer."""
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# sample containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForceSample:
    t_ms: int
    force_n: float


# one accelerometer sample per row, milli-g per axis
ACCEL_DTYPE = np.dtype(
    [("t_ms", np.int64), ("x_mg", np.int64), ("y_mg", np.int64), ("z_mg", np.int64)]
)


# ---------------------------------------------------------------------------
# FSR + divider + ADC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FsrModel:
    """Inverse-law force-to-resistance model with physical clamps.

    ``k_ohm_n`` is the device constant in ohm-newtons: resistance is
    ``k / force`` between the clamp rails.  Below ``f_break_n`` the sensor
    does not conduct and resistance pins at ``r_max_ohm``.
    """

    k_ohm_n: float = 100_000.0
    r_min_ohm: float = 1_000.0
    r_max_ohm: float = 10_000_000.0
    f_break_n: float = 0.01

    def __post_init__(self) -> None:
        if not (0 < self.k_ohm_n < math.inf):
            raise ParameterError(f"k_ohm_n must be positive and finite, got {self.k_ohm_n}")
        if not (0 < self.r_min_ohm < self.r_max_ohm < math.inf):
            raise ParameterError(
                f"need 0 < r_min_ohm < r_max_ohm < inf, got {self.r_min_ohm}, {self.r_max_ohm}"
            )
        if not (0 <= self.f_break_n < math.inf):
            raise ParameterError(f"f_break_n must be finite and >= 0, got {self.f_break_n}")


@dataclass(frozen=True)
class DividerConfig:
    """Fixed-resistor voltage divider feeding the ADC input."""

    r_fixed_ohm: float = 499_000.0
    v_dd: float = 1.8

    def __post_init__(self) -> None:
        for name in ("r_fixed_ohm", "v_dd"):
            value = getattr(self, name)
            if not (0 < value < math.inf):
                raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class AdcConfig:
    bits: int = 12
    v_ref: float = 1.8

    def __post_init__(self) -> None:
        if not (1 <= self.bits <= 16 and self.bits % 1 == 0):
            raise ParameterError(f"bits must be a whole number in 1..16, got {self.bits}")
        object.__setattr__(self, "bits", int(self.bits))
        if not (0 < self.v_ref < math.inf):
            raise ParameterError(f"v_ref must be positive and finite, got {self.v_ref}")

    @property
    def full_scale(self) -> int:
        """Highest representable code (2**bits - 1)."""
        return (1 << self.bits) - 1


def fsr_resistance(force_n: float, model: FsrModel = FsrModel()) -> float:
    """Map an applied force in newtons to FSR resistance in ohms.

    Zero or sub-breakpoint force reads as the open-circuit rail
    ``r_max_ohm``; very large forces clamp at ``r_min_ohm``.
    """
    if not (force_n >= 0):
        raise ParameterError(f"force_n must be >= 0, got {force_n}")
    if force_n <= model.f_break_n:
        return model.r_max_ohm
    r = model.k_ohm_n / force_n
    return min(max(r, model.r_min_ohm), model.r_max_ohm)


def divider_voltage(r_fsr_ohm: float, cfg: DividerConfig = DividerConfig()) -> float:
    """Divider output voltage for a given FSR resistance.

    The fixed resistor is the output leg, so a shorted sensor (0 ohm)
    reads full rail and increasing resistance pulls the output down.
    The evaluation order ``v_dd * r_fixed / (r_fixed + r)`` is deliberate:
    it keeps the algebraic identity ``v_out * (r_fixed + r) == v_dd * r_fixed``
    true to within 1 ulp, which the divider tests rely on.
    """
    if not (r_fsr_ohm >= 0):
        raise ParameterError(f"r_fsr_ohm must be >= 0, got {r_fsr_ohm}")
    return cfg.v_dd * cfg.r_fixed_ohm / (cfg.r_fixed_ohm + r_fsr_ohm)


def adc_quantize(v: float, cfg: AdcConfig = AdcConfig()) -> int:
    """Quantize a voltage to an ADC code, round-half-up, clamped to range."""
    if math.isnan(v):
        raise ParameterError("cannot quantize NaN")
    v = min(max(v, 0.0), cfg.v_ref)
    code = _round_half_up(v / cfg.v_ref * cfg.full_scale)
    return min(max(code, 0), cfg.full_scale)


def fsr_codes(
    forces_n,
    model: FsrModel = FsrModel(),
    divider: DividerConfig = DividerConfig(),
    adc: AdcConfig = AdcConfig(),
) -> np.ndarray:
    """ADC codes for an array of forces through the whole FSR chain.

    Element by element this equals
    ``adc_quantize(divider_voltage(fsr_resistance(f, model), divider), adc)``:
    every float operation runs in the same order as in the scalar chain,
    so the codes are identical, not merely close.
    """
    f = np.asarray(forces_n, dtype=np.float64)
    bad = ~(f >= 0)
    if bad.any():
        raise ParameterError(f"force_n must be >= 0, got {f[bad][0]}")
    conducts = f > model.f_break_n
    with np.errstate(over="ignore"):
        r = model.k_ohm_n / np.where(conducts, f, 1.0)
    r = np.where(conducts, np.minimum(np.maximum(r, model.r_min_ohm), model.r_max_ohm),
                 model.r_max_ohm)
    v = divider.v_dd * divider.r_fixed_ohm / (divider.r_fixed_ohm + r)
    v = np.minimum(np.maximum(v, 0.0), adc.v_ref)
    code = np.floor(v / adc.v_ref * adc.full_scale + 0.5).astype(np.int64)
    return np.minimum(np.maximum(code, 0), adc.full_scale)


def adc_to_voltage(code: int, cfg: AdcConfig = AdcConfig()) -> float:
    """Nominal input voltage for an ADC code (code centers)."""
    if not (0 <= code <= cfg.full_scale):
        raise ParameterError(f"code {code} outside 0..{cfg.full_scale}")
    return code / cfg.full_scale * cfg.v_ref


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OcvCurve:
    """Piecewise-linear open-circuit voltage curve over state of charge.

    Points are (soc, volts), must start at soc 0.0, end at soc 1.0 and be
    strictly increasing in both coordinates, so the curve is invertible,
    with voltages finite and >= 0.
    The default is the linear 3.3 V .. 4.2 V map.
    """

    points: tuple[tuple[float, float], ...] = ((0.0, 3.3), (1.0, 4.2))

    def __post_init__(self) -> None:
        pts = tuple((float(s), float(v)) for s, v in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ParameterError("OcvCurve needs at least two points")
        socs = [s for s, _ in pts]
        volts = [v for _, v in pts]
        if socs[0] != 0.0 or socs[-1] != 1.0:
            raise ParameterError("OcvCurve must span soc 0.0 .. 1.0")
        if not all(a < b for a, b in zip(socs, socs[1:])):
            raise ParameterError("OcvCurve soc values must be strictly increasing")
        if not (0 <= volts[0] and volts[-1] < math.inf
                and all(a < b for a, b in zip(volts, volts[1:]))):
            raise ParameterError("OcvCurve voltages must be finite, >= 0 and strictly increasing")

    @property
    def v_min(self) -> float:
        return self.points[0][1]

    @property
    def v_max(self) -> float:
        return self.points[-1][1]

    def voltage(self, soc: float) -> float:
        if not (0.0 <= soc <= 1.0):
            raise ParameterError(f"soc must be in [0, 1], got {soc}")
        socs = [s for s, _ in self.points]
        volts = [v for _, v in self.points]
        return float(np.interp(soc, socs, volts))


LINEAR_OCV = OcvCurve()


# ---------------------------------------------------------------------------
# synthetic stimulus: posture shapes for respsim.session
# ---------------------------------------------------------------------------

POSTURES = ("still", "walking", "shift")

_WALK_STEP_HZ = 2.0      # cadence of the walking modulation
_WALK_DEPTH_MG = 300     # square-wave depth; holds |magnitude - 1g| at 300 mg
_SHIFT_VECTOR = (600, 0, 800)  # reoriented gravity after a posture shift, |.| = 1000


def _posture_base_mg(posture: str, t_ms: np.ndarray, shift_at_ms: float) -> np.ndarray:
    """Noise-free accelerometer vectors (n, 3) for a posture over a time grid."""
    n = t_ms.size
    base = np.zeros((n, 3), dtype=np.float64)
    if posture == "still":
        base[:, 2] = 1000.0
    elif posture == "walking":
        # Square wave keyed on absolute time; the phase test never lands on a
        # transition sample, so the deviation from 1 g is a constant 300 mg
        # for the whole span (a sine would only exceed the artifact threshold
        # in sub-500 ms bursts and read as clean).
        phase = (t_ms.astype(np.float64) / 1000.0 * _WALK_STEP_HZ) % 1.0
        base[:, 2] = np.where(phase < 0.5, 1000.0 + _WALK_DEPTH_MG, 1000.0 - _WALK_DEPTH_MG)
    else:  # "shift"; PostureSegment admits only POSTURES
        before = t_ms < shift_at_ms
        base[before, 2] = 1000.0
        base[~before, 0] = _SHIFT_VECTOR[0]
        base[~before, 1] = _SHIFT_VECTOR[1]
        base[~before, 2] = _SHIFT_VECTOR[2]
    return base
