"""Acceptance suite: the contract this artifact is held to.

Each test is one criterion with its tolerance pinned, and prints a single
PASS/FAIL line (visible with ``pytest tests/test_acceptance.py -v -s``).
Runtime budgets are part of the criteria and are asserted.
"""

import hashlib
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from respsim.cli import main
from respsim.config import from_dict
from respsim.firmware import DeviceModel, FirmwareEmulator
from respsim.pipeline import analyze_session, battery_percent
from respsim.power import battery_life_hours, uniform_profile
from respsim.protocol import (
    FrameKind,
    ProtocolError,
    decode,
    encode,
    split_stream,
)
from respsim.sensor import (
    AdcConfig,
    DividerConfig,
    adc_quantize,
    adc_to_voltage,
    divider_voltage,
    fsr_resistance,
)
from respsim.session import run_session
from tests.test_firmware import ConstantStimulus, run_on_grid
from tests.test_protocol import random_frame


@contextmanager
def criterion(name: str, budget_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL {name}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget_s
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)",
          flush=True)
    assert ok, f"{name}: runtime {elapsed:.2f}s exceeded the {budget_s}s budget"


def test_divider_algebra_to_one_ulp():
    """Divider output satisfies v*(r_fixed+r) = v_dd*r_fixed to 1 ulp."""
    with criterion("divider-algebra-1ulp", budget_s=1.0):
        cfg = DividerConfig()
        rhs = cfg.v_dd * cfg.r_fixed_ohm
        tol = math.ulp(rhs)
        rng = np.random.default_rng(2024)
        for r in rng.uniform(0.0, 2.0e7, 10_000):
            v = divider_voltage(float(r), cfg)
            assert abs(v * (cfg.r_fixed_ohm + r) - rhs) <= tol
        # the matched-resistor case is exactly half rail
        assert divider_voltage(499_000.0, cfg) == 0.9


def test_sampling_cadence_exact():
    """60 s at default rates: exactly 1500 FSR samples, 3000 accel samples,
    30 battery frames."""
    with criterion("sampling-cadence-exact", budget_s=5.0):
        result = run_session(from_dict({"duration_s": 60}))
        fsr = sum(len(f.payload.codes) for f in result.frames
                  if f.kind == FrameKind.FSR_BATCH)
        accel = sum(len(f.payload.samples) for f in result.frames
                    if f.kind == FrameKind.ACCEL_BATCH)
        battery = sum(1 for f in result.frames if f.kind == FrameKind.BATTERY_STATUS)
        assert fsr == 1500
        assert accel == 3000
        assert battery == 30


def test_adc_chain_half_lsb():
    """Force->divider->ADC codes stay in [0, 4095] with quantization error
    of at most half an LSB."""
    with criterion("adc-chain-half-lsb", budget_s=1.0):
        adc = AdcConfig()
        half_lsb = 0.5 * adc.v_ref / adc.full_scale
        rng = np.random.default_rng(77)
        for force in rng.uniform(0.0, 60.0, 10_000):
            v = divider_voltage(fsr_resistance(float(force)))
            code = adc_quantize(v, adc)
            assert 0 <= code <= 4095
            assert abs(adc_to_voltage(code, adc) - v) <= half_lsb + 1e-12


def test_rate_recovery_through_full_chain():
    """Rates 6..40 breaths/min recovered within 1 bpm clean and 2 bpm at
    10 % amplitude noise, through generator -> firmware -> wire -> host."""
    with criterion("rate-recovery-full-chain", budget_s=10.0):
        for rate in (6, 10, 15, 20, 30, 40):
            for noise_sd, tol in ((0.0, 1.0), (0.2, 2.0)):   # 0.2 N = 10 % of 2 N
                cfg = from_dict({
                    "duration_s": 60,
                    "seed": 7,
                    "rate_bpm": rate,
                    "scenario": {"noise_sd_n": noise_sd},
                })
                result = run_session(cfg)
                frames, resyncs, pending = split_stream(result.data)
                assert resyncs == [] and pending == 0
                analysis = analyze_session(frames)
                assert len(analysis.estimates) == 1
                got = analysis.estimates[0].rate_bpm
                assert got == pytest.approx(rate, abs=tol), (
                    f"rate {rate} bpm, noise {noise_sd}: got {got:.2f}"
                )


def test_frame_codec_robustness():
    """1e4 random frames round-trip byte-exactly; any single-bit corruption
    is rejected; garbage between frames costs one coalesced resync."""
    with criterion("frame-codec-robustness", budget_s=5.0):
        rng = random.Random(20240501)
        frames = [random_frame(rng) for _ in range(10_000)]
        for frame in frames:
            raw = encode(frame)
            assert decode(raw) == frame
            # one random bit flip per frame must be rejected
            corrupted = bytearray(raw)
            bit = rng.randrange(len(raw) * 8)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ProtocolError):
                decode(bytes(corrupted))
        # exhaustive single-bit coverage on a subsample
        for frame in frames[:60]:
            raw = encode(frame)
            for byte_idx in range(len(raw)):
                for b in range(8):
                    corrupted = bytearray(raw)
                    corrupted[byte_idx] ^= 1 << b
                    with pytest.raises(ProtocolError):
                        decode(bytes(corrupted))
        # stream recovery: valid | garbage | valid -> both frames, one resync
        stream = encode(frames[0]) + b"\x00\x13\x37" + encode(frames[1])
        out, resyncs, pending = split_stream(stream)
        assert out == frames[:2]
        assert len(resyncs) == 1 and resyncs[0].skipped == 3
        assert pending == 0


def test_power_claims_audit():
    """Projected battery life is 4162.5 h at the 400 uW figure and 339.8 h
    at the 4.9 mW figure (each within 0.1 %), and the audit output surfaces
    both disagreeing figures."""
    with criterion("power-claims-audit", budget_s=5.0):
        assert battery_life_hours(400.0) == pytest.approx(4162.5, rel=1e-3)
        assert battery_life_hours(4900.0) == pytest.approx(1665.0 / 4.9, rel=1e-3)
        assert battery_life_hours(4900.0) == pytest.approx(339.8, abs=0.05)

        import io
        from contextlib import redirect_stdout
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["power", "--duration", "10"]) == 0
        text = buf.getvalue()
        assert "400" in text and "4900" in text
        assert "abstract-claim" in text and "intro-claim" in text
        assert "disagree" in text


def test_byte_determinism():
    """Identical config and seed produce hash-identical capture bytes and
    ground-truth sidecars."""
    with criterion("byte-identical-reruns", budget_s=5.0):
        digests = []
        for _ in range(2):
            result = run_session(from_dict({
                "duration_s": 60, "seed": 11, "scenario": {"noise_sd_n": 0.2},
            }))
            h = hashlib.sha256()
            h.update(result.data)
            import json
            h.update(json.dumps(result.truth, sort_keys=True).encode())
            digests.append(h.hexdigest())
        assert digests[0] == digests[1]


def test_battery_percent_agreement():
    """Device-computed and host-recovered battery percent agree within one
    percentage point across a full discharge, including both endpoints."""
    with criterion("battery-percent-agreement", budget_s=5.0):
        model = DeviceModel()
        # dense sweep of the whole charge range through the measurement path
        for soc in np.linspace(0.0, 1.0, 2001):
            v = model.ocv.voltage(float(soc))
            code = adc_quantize(v * model.sense_ratio, model.adc)
            device = model.device_percent(v)
            host = battery_percent(code)
            assert abs(device - host) <= 1, (soc, device, host)
        # endpoints are exact
        assert model.device_percent(4.2) == battery_percent(3822) == 100
        assert model.device_percent(3.3) == battery_percent(3003) == 0
        # and a real emulated discharge agrees frame by frame
        emu = FirmwareEmulator(power_profile=uniform_profile(1.1e8))
        frames = run_on_grid(emu, ConstantStimulus(), 60.0)
        battery_frames = [f for f in frames if f.kind == FrameKind.BATTERY_STATUS]
        assert len(battery_frames) == 30
        percents = []
        for f in battery_frames:
            host = battery_percent(f.payload.adc_code)
            assert abs(f.payload.percent - host) <= 1
            percents.append(f.payload.percent)
        assert percents[0] == 100 and percents[-1] == 0
