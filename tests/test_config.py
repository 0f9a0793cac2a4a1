"""Config loading: defaults, one-line configs, and unknown-key rejection."""

import dataclasses

import pytest

from respsim.config import (
    ConfigError,
    ScenarioConfig,
    SessionConfig,
    apply_overrides,
    from_dict,
    load_config,
)
from respsim.firmware import DeviceModel, InvalidConfigError
from respsim.sensor import AdcConfig


def write(tmp_path, text):
    p = tmp_path / "session.yaml"
    p.write_text(text)
    return str(p)


def test_empty_config_gets_full_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg.duration_s == 60.0
    assert cfg.seed == 0
    assert cfg.firmware.fsr_rate_hz == 25
    assert cfg.firmware.accel_rate_hz == 50
    assert cfg.firmware.battery_period_ms == 2000
    assert cfg.adc.bits == 12
    assert cfg.divider.r_fixed_ohm == 499_000.0
    assert cfg.battery.capacity_mah == 450.0
    assert cfg.power.preset == "abstract-claim"


def test_one_line_config(tmp_path):
    cfg = load_config(write(tmp_path, "rate_bpm: 22\n"))
    assert cfg.scenario.breathing[0].rate_bpm == 22
    assert len(cfg.scenario.breathing) == 1


def test_json_is_accepted_too(tmp_path):
    cfg = load_config(write(tmp_path, '{"duration_s": 30, "seed": 5}'))
    assert cfg.duration_s == 30
    assert cfg.seed == 5


def test_unknown_top_level_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="batery"):
        load_config(write(tmp_path, "batery: {}\n"))


def test_unknown_nested_key_includes_path(tmp_path):
    with pytest.raises(ConfigError, match=r"firmware\.fsr_hz"):
        load_config(write(tmp_path, "firmware:\n  fsr_hz: 100\n"))


def test_schedule_segments(tmp_path):
    cfg = load_config(write(tmp_path, """
duration_s: 120
scenario:
  breathing:
    - {start_s: 0, rate_bpm: 12}
    - {start_s: 60, rate_bpm: 20}
  posture:
    - {start_s: 0, posture: still}
    - {start_s: 30, posture: walking}
"""))
    assert [s.rate_bpm for s in cfg.scenario.breathing] == [12, 20]
    assert [s.posture for s in cfg.scenario.posture] == ["still", "walking"]


def test_segments_must_start_at_zero(tmp_path):
    with pytest.raises(ConfigError, match="start at 0"):
        load_config(write(tmp_path, """
scenario:
  breathing:
    - {start_s: 10, rate_bpm: 12}
"""))


def test_rate_shorthand_conflicts_with_schedule(tmp_path):
    with pytest.raises(ConfigError, match="rate_bpm"):
        load_config(write(tmp_path, """
rate_bpm: 15
scenario:
  breathing:
    - {start_s: 0, rate_bpm: 12}
"""))


def test_rate_out_of_range(tmp_path):
    for rate in (90, 61, 0):
        with pytest.raises(ConfigError, match="rate_bpm"):
            load_config(write(tmp_path, f"rate_bpm: {rate}\n"))


def test_non_numeric_values_are_named(tmp_path):
    with pytest.raises(ConfigError, match=r"^duration_s: expected a number, got str$"):
        load_config(write(tmp_path, "duration_s: abc\n"))
    with pytest.raises(ConfigError, match=r"^adc\.bits: expected a number, got str$"):
        from_dict({"adc": {"bits": "twelve"}})
    with pytest.raises(ConfigError, match=r"^power\.p_idle_uw: expected a number, got list$"):
        from_dict({"power": {"p_idle_uw": [1], "p_active_uw": 1, "p_radio_uw": 1}})
    with pytest.raises(ConfigError, match=r"^seed: expected a number, got NoneType$"):
        from_dict({"seed": None})
    # a number field that defaults to None takes None
    assert from_dict({"power": {"p_idle_uw": None}}).power.p_idle_uw is None


def test_unknown_posture_named(tmp_path):
    with pytest.raises(ConfigError, match="sprinting"):
        load_config(write(tmp_path, "posture: sprinting\n"))
    with pytest.raises(ConfigError, match="running"):
        from_dict({"scenario": {"posture": [{"start_s": 0, "posture": "running"}]}})


def test_invalid_firmware_batch_rejected_at_load(tmp_path):
    with pytest.raises(ConfigError, match="accel_batch"):
        load_config(write(tmp_path, "firmware:\n  accel_batch: 100\n"))
    # a rate must divide the 1000 ms grid the stimulus is sampled on
    with pytest.raises(ConfigError, match="fsr_rate_hz"):
        load_config(write(tmp_path, "firmware:\n  fsr_rate_hz: 33\n"))


def test_unknown_power_preset(tmp_path):
    with pytest.raises(ConfigError, match="no-such-claim"):
        load_config(write(tmp_path, "power:\n  preset: no-such-claim\n"))


def test_custom_power_profile(tmp_path):
    cfg = load_config(write(tmp_path, """
power:
  p_idle_uw: 10
  p_active_uw: 900
  p_radio_uw: 12000
"""))
    profile = cfg.power_profile()
    assert profile.p_idle_uw == 10
    assert profile.p_radio_uw == 12000


def test_partial_custom_power_profile_rejected(tmp_path):
    with pytest.raises(ConfigError, match="p_idle_uw"):
        load_config(write(tmp_path, "power:\n  p_idle_uw: 10\n")).power_profile()


def test_custom_ocv_points(tmp_path):
    cfg = load_config(write(tmp_path, """
battery:
  ocv_points: [[0.0, 3.2], [0.5, 3.8], [1.0, 4.25]]
"""))
    model = cfg.device_model()
    assert model.ocv.voltage(0.5) == pytest.approx(3.8)


def test_sense_ratio_that_overflows_adc_rejected(tmp_path):
    with pytest.raises(ConfigError):
        cfg = load_config(write(tmp_path, "battery:\n  sense_ratio: 0.6\n"))


def test_bad_initial_soc(tmp_path):
    with pytest.raises(ConfigError, match="initial_soc"):
        load_config(write(tmp_path, "battery:\n  initial_soc: 2.0\n"))


def test_amplitude_above_baseline_rejected(tmp_path):
    with pytest.raises(ConfigError, match="amplitude"):
        load_config(write(tmp_path, "scenario:\n  amplitude_n: 9.0\n"))
    with pytest.raises(ConfigError, match="amplitude"):
        from_dict({"scenario": {"amplitude_n": 5.0, "baseline_n": 4.0}})


@pytest.mark.parametrize("key", ["noise_sd_n", "accel_noise_sd_mg"])
def test_negative_noise_rejected(key):
    with pytest.raises(ConfigError, match=key):
        from_dict({"scenario": {key: -1.0}})


def test_top_level_must_be_mapping(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write(tmp_path, "- just\n- a\n- list\n"))


def test_overrides_win():
    cfg = apply_overrides(SessionConfig(), seed=9, duration_s=12.0)
    assert cfg.seed == 9
    assert cfg.duration_s == 12.0


def test_from_dict_none_is_defaults():
    assert from_dict(None) == SessionConfig()


@pytest.mark.parametrize("build, error, match", [
    (lambda: ScenarioConfig(amplitude_n=9.0), ConfigError, "amplitude_n"),
    (lambda: ScenarioConfig(breathing=()), ConfigError, "breathing: the schedule is empty"),
    (lambda: DeviceModel(adc=AdcConfig(bits=13)), InvalidConfigError, "adc.bits=13"),
    (lambda: SessionConfig(adc=AdcConfig(bits=14)), InvalidConfigError, "adc.bits=14"),
    (lambda: dataclasses.replace(SessionConfig(), duration_s=float("nan")), ConfigError,
     "duration_s"),
], ids=["amplitude", "empty-schedule", "device-adc", "session-adc", "replace-duration"])
def test_invalid_config_is_rejected_at_construction(build, error, match):
    with pytest.raises(error, match=match):
        build()
