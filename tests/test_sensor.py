"""Analog front-end: hand-computed oracles and randomized properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from respsim.config import from_dict

from respsim.sensor import (
    AdcConfig,
    DividerConfig,
    FsrModel,
    LINEAR_OCV,
    OcvCurve,
    ParameterError,
    adc_quantize,
    adc_to_voltage,
    divider_voltage,
    fsr_codes,
    fsr_resistance,
)
from respsim.session import synthesize_accel, synthesize_force


# ---------------------------------------------------------------------------
# FSR resistance
# ---------------------------------------------------------------------------

def test_fsr_zero_force_reads_open_rail():
    assert fsr_resistance(0.0) == 10_000_000.0


def test_fsr_one_newton_default_constant():
    # k = 100 kOhm*N  =>  1 N -> 100 kOhm
    assert fsr_resistance(1.0) == pytest.approx(100_000.0)


def test_fsr_below_breakpoint_pins_at_rail():
    assert fsr_resistance(0.009) == 10_000_000.0
    assert fsr_resistance(0.01) == 10_000_000.0


def test_fsr_huge_force_clamps_at_floor():
    assert fsr_resistance(10_000.0) == 1_000.0


def test_fsr_monotone_non_increasing():
    rng = np.random.default_rng(11)
    forces = np.sort(rng.uniform(0.0, 200.0, 500))
    rs = [fsr_resistance(float(f)) for f in forces]
    assert all(b <= a for a, b in zip(rs, rs[1:]))


def test_fsr_rejects_negative_force():
    with pytest.raises(ParameterError):
        fsr_resistance(-0.1)


def test_fsr_model_validation():
    with pytest.raises(ParameterError):
        FsrModel(k_ohm_n=0.0)
    with pytest.raises(ParameterError):
        FsrModel(r_min_ohm=2e7, r_max_ohm=1e7)


# ---------------------------------------------------------------------------
# divider
# ---------------------------------------------------------------------------

def test_divider_matched_resistance_is_exact_half_rail():
    # 499k over 499k splits the 1.8 V rail exactly
    assert divider_voltage(499_000.0) == 0.9


def test_divider_shorted_sensor_reads_full_rail():
    assert divider_voltage(0.0) == 1.8


def test_divider_three_to_one():
    assert divider_voltage(1_497_000.0) == 0.45


def test_divider_algebra_holds_to_one_ulp():
    # v * (r_fixed + r) must reproduce v_dd * r_fixed to the last bit
    cfg = DividerConfig()
    rng = np.random.default_rng(3)
    rhs = cfg.v_dd * cfg.r_fixed_ohm
    for r in rng.uniform(0.0, 2e7, 5000):
        v = divider_voltage(float(r), cfg)
        assert abs(v * (cfg.r_fixed_ohm + r) - rhs) <= math.ulp(rhs)


def test_divider_monotone_decreasing_in_resistance():
    rs = np.linspace(0, 1e7, 800)
    vs = [divider_voltage(float(r)) for r in rs]
    assert all(b < a for a, b in zip(vs, vs[1:]))


def test_divider_rejects_negative_resistance():
    with pytest.raises(ParameterError):
        divider_voltage(-1.0)


# ---------------------------------------------------------------------------
# ADC
# ---------------------------------------------------------------------------

def test_adc_endpoints_and_midpoint():
    assert adc_quantize(0.0) == 0
    assert adc_quantize(1.8) == 4095
    # 0.9/1.8 * 4095 = 2047.5, ties round up
    assert adc_quantize(0.9) == 2048


def test_adc_clamps_out_of_range_inputs():
    assert adc_quantize(-0.5) == 0
    assert adc_quantize(2.7) == 4095


def test_adc_error_within_half_lsb():
    cfg = AdcConfig()
    rng = np.random.default_rng(5)
    half_lsb = 0.5 * cfg.v_ref / cfg.full_scale
    for v in rng.uniform(0.0, 1.8, 4000):
        code = adc_quantize(float(v), cfg)
        assert abs(adc_to_voltage(code, cfg) - v) <= half_lsb + 1e-12


def test_adc_monotone():
    vs = np.linspace(0.0, 1.8, 3000)
    codes = [adc_quantize(float(v)) for v in vs]
    assert all(b >= a for a, b in zip(codes, codes[1:]))


def test_adc_other_widths():
    cfg = AdcConfig(bits=8, v_ref=3.3)
    assert cfg.full_scale == 255
    assert adc_quantize(3.3, cfg) == 255
    assert adc_quantize(0.0, cfg) == 0


def test_adc_rejects_nan_and_bad_bits():
    with pytest.raises(ParameterError):
        adc_quantize(float("nan"))
    with pytest.raises(ParameterError):
        AdcConfig(bits=0)
    with pytest.raises(ParameterError):
        AdcConfig(bits=17)


# ---------------------------------------------------------------------------
# FSR chain over arrays
# ---------------------------------------------------------------------------

def scalar_codes(forces, model=FsrModel(), adc=AdcConfig()):
    return [adc_quantize(divider_voltage(fsr_resistance(f, model)), adc) for f in forces]


def test_fsr_codes_equal_scalar_chain_at_edges():
    m = FsrModel()
    forces = [
        0.0,
        -0.0,
        m.f_break_n,
        math.nextafter(m.f_break_n, math.inf),
        m.k_ohm_n / m.r_max_ohm,
        m.k_ohm_n / m.r_min_ohm,   # 100 N: resistance reaches the r_min floor
        250.0,
        math.inf,
    ]
    assert fsr_codes(forces).tolist() == scalar_codes(forces)


@settings(max_examples=60, deadline=None)
@given(
    forces=st.lists(st.floats(min_value=0.0, allow_infinity=True), max_size=40),
    f_break=st.sampled_from([0.0, 0.01, 5.0]),
    bits=st.integers(1, 16),
)
def test_fsr_codes_equal_scalar_chain(forces, f_break, bits):
    model, adc = FsrModel(f_break_n=f_break), AdcConfig(bits=bits)
    assert fsr_codes(forces, model, adc=adc).tolist() == scalar_codes(forces, model, adc)


@pytest.mark.parametrize("bad", [-0.1, -math.inf, math.nan])
def test_fsr_codes_reject_negative_and_nan(bad):
    with pytest.raises(ParameterError):
        fsr_codes([4.0, bad, 4.0])


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def test_battery_voltage_linear_endpoints():
    assert LINEAR_OCV.voltage(1.0) == pytest.approx(4.2)
    assert LINEAR_OCV.voltage(0.0) == pytest.approx(3.3)
    assert LINEAR_OCV.voltage(0.5) == pytest.approx(3.75)


def test_battery_voltage_rejects_out_of_range_soc():
    with pytest.raises(ParameterError):
        LINEAR_OCV.voltage(1.2)
    with pytest.raises(ParameterError):
        LINEAR_OCV.voltage(-0.01)


def test_ocv_curve_validation():
    with pytest.raises(ParameterError):
        OcvCurve(((0.0, 3.3),))                       # single point
    with pytest.raises(ParameterError):
        OcvCurve(((0.1, 3.3), (1.0, 4.2)))            # doesn't start at 0
    with pytest.raises(ParameterError):
        OcvCurve(((0.0, 4.2), (1.0, 3.3)))            # voltage not increasing


# ---------------------------------------------------------------------------
# breathing stimulus of a single-segment session
# ---------------------------------------------------------------------------

def single_segment(duration_s, seed=0, rate_bpm=15.0, posture="still", **scenario):
    return from_dict({"duration_s": duration_s, "seed": seed, "rate_bpm": rate_bpm,
                      "posture": posture, "scenario": scenario})


def test_breathing_sample_count_and_grid():
    samples = synthesize_force(single_segment(60.0, seed=1))
    assert len(samples) == 1500
    assert samples[0].t_ms == 0
    assert samples[1].t_ms == 40
    assert samples[-1].t_ms == 59_960


def test_breathing_noiseless_has_exactly_one_peak_per_breath():
    samples = synthesize_force(single_segment(60.0, noise_sd_n=0.0))
    f = [s.force_n for s in samples]
    maxima = [
        i for i in range(1, len(f) - 1) if f[i] > f[i - 1] and f[i] > f[i + 1]
    ]
    assert len(maxima) == 15
    # peaks land on the analytic instants 1 s, 5 s, 9 s, ...
    assert [samples[i].t_ms for i in maxima] == [1000 + 4000 * k for k in range(15)]


def test_breathing_zero_amplitude_is_flat_baseline():
    samples = synthesize_force(single_segment(10.0, rate_bpm=12.0, amplitude_n=0.0))
    assert all(s.force_n == pytest.approx(4.0) for s in samples)


def test_breathing_same_seed_reproduces():
    a = synthesize_force(single_segment(20.0, seed=42, noise_sd_n=0.3))
    b = synthesize_force(single_segment(20.0, seed=42, noise_sd_n=0.3))
    assert a == b


def test_breathing_different_seed_differs():
    a = synthesize_force(single_segment(20.0, seed=1, noise_sd_n=0.3))
    b = synthesize_force(single_segment(20.0, seed=2, noise_sd_n=0.3))
    assert a != b


def test_breathing_noise_never_goes_negative():
    samples = synthesize_force(
        single_segment(30.0, seed=7, amplitude_n=4.0, noise_sd_n=5.0, baseline_n=4.0)
    )
    assert all(s.force_n >= 0.0 for s in samples)


# ---------------------------------------------------------------------------
# accelerometer stimulus of a single-segment session
# ---------------------------------------------------------------------------

def magnitude_mg(row) -> float:
    return math.sqrt(row["x_mg"] ** 2 + row["y_mg"] ** 2 + row["z_mg"] ** 2)


def test_accel_still_noiseless_is_gravity_on_z():
    rows = synthesize_accel(single_segment(2.0, accel_noise_sd_mg=0.0))
    assert len(rows) == 100
    assert all(row[1:] == (0, 0, 1000) for row in rows.tolist())
    assert rows[1]["t_ms"] == 20


def test_accel_walking_deviation_is_sustained():
    rows = synthesize_accel(single_segment(10.0, posture="walking", accel_noise_sd_mg=0.0))
    # every sample sits a full 300 mg away from 1 g: no clean gaps
    for row in rows:
        assert abs(magnitude_mg(row) - 1000.0) == pytest.approx(300.0)


def test_accel_shift_preserves_magnitude():
    rows = synthesize_accel(single_segment(10.0, posture="shift", accel_noise_sd_mg=0.0))
    first, last = rows[0], rows[-1]
    assert first.tolist()[1:] == (0, 0, 1000)
    assert last.tolist()[1:] == (600, 0, 800)
    assert magnitude_mg(last) == pytest.approx(1000.0)


def test_accel_reproducible_and_clamped():
    a = synthesize_accel(single_segment(5.0, seed=3, accel_noise_sd_mg=800.0))
    b = synthesize_accel(single_segment(5.0, seed=3, accel_noise_sd_mg=800.0))
    assert a.tolist() == b.tolist()
    for row in a.tolist():
        for axis in row[1:]:
            assert -2000 <= axis <= 2000
