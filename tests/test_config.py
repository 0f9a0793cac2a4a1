"""Config loading: defaults, one-line configs, and unknown-key rejection."""

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from respsim.config import (
    BatteryConfig,
    BreathSegment,
    ConfigError,
    PostureSegment,
    PowerConfig,
    ScenarioConfig,
    SessionConfig,
    apply_overrides,
    from_dict,
    load_config,
)
from respsim.firmware import DeviceModel, InvalidConfigError
from respsim.pipeline import AnalysisConfig
from respsim.power import PRESETS
from respsim.sensor import POSTURES, AdcConfig


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


def test_seed_is_a_whole_number_at_least_zero(tmp_path):
    with pytest.raises(ConfigError, match=r"^seed must be a whole number >= 0, got nan$"):
        load_config(write(tmp_path, "seed: .nan\n"))
    cfg = from_dict({"seed": 2.0})
    assert cfg.seed == 2 and type(cfg.seed) is int


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
    # YAML booleans are ints to Python, but not numbers to a config
    with pytest.raises(ConfigError, match=r"^duration_s: expected a number, got bool$"):
        load_config(write(tmp_path, "duration_s: true\n"))
    with pytest.raises(ConfigError, match=r"^seed: expected a number, got bool$"):
        from_dict({"seed": True})
    with pytest.raises(ConfigError,
                       match=r"^scenario\.breathing\[0\]\.rate_bpm: expected a number, got bool$"):
        from_dict({"rate_bpm": True})
    with pytest.raises(ConfigError, match=r"^battery\.charging: expected true or false, got str$"):
        load_config(write(tmp_path, "battery: {charging: x}\n"))
    with pytest.raises(ConfigError, match=r"^battery\.charging: expected true or false, got int$"):
        from_dict({"battery": {"charging": 1}})
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


@st.composite
def session_configs(draw):
    """Valid configs built as dataclasses, not through the builder under test."""
    def schedule(segment, values):
        gaps = draw(st.lists(st.floats(0.001, 600), max_size=4))
        return tuple(segment(start, draw(values))
                     for start in itertools.accumulate(gaps, initial=0.0))

    baseline = draw(st.floats(0, 50))
    scenario = ScenarioConfig(
        breathing=schedule(BreathSegment, st.floats(0.1, 60) | st.integers(1, 60)),
        posture=schedule(PostureSegment, st.sampled_from(POSTURES)),
        amplitude_n=draw(st.floats(0, baseline)),
        baseline_n=baseline,
        noise_sd_n=draw(st.floats(0, 5)),
    )
    socs = [0.0, *sorted(draw(st.lists(st.floats(0.01, 0.99), unique=True, max_size=3))), 1.0]
    volts = sorted(draw(st.lists(st.floats(2.5, 4.4), unique=True,
                                 min_size=len(socs), max_size=len(socs))))
    battery = BatteryConfig(
        initial_soc=draw(st.floats(0, 1)),
        charging=draw(st.booleans()),
        ocv_points=tuple(zip(socs, volts)),
    )
    watts = st.floats(0, 1e4)
    idle, active, radio = draw(st.none() | st.tuples(watts, watts, watts)) or (None,) * 3
    power = PowerConfig(
        preset=draw(st.sampled_from(sorted(PRESETS))),
        p_idle_uw=idle, p_active_uw=active, p_radio_uw=radio,
        tx_ms_per_frame=draw(st.integers(0, 10)),
    )
    analysis = AnalysisConfig(**{
        f.name: draw(st.floats(0.01, 1000)) for f in dataclasses.fields(AnalysisConfig)
    })
    return SessionConfig(
        duration_s=draw(st.floats(0, 3600)),
        seed=draw(st.integers(0, 2**32)),
        scenario=scenario, battery=battery, power=power, analysis=analysis,
    )


@settings(max_examples=100, deadline=None)
@given(cfg=session_configs())
def test_sidecar_config_reloads_to_the_same_config(cfg):
    # the truth sidecar stores dataclasses.asdict(cfg) as JSON
    assert from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg
