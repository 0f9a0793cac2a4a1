"""CLI harness: subcommands, exit codes, and the TCP stream path."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import re
import socket
import subprocess
import sys
import threading
import time
import typing
import warnings
from pathlib import Path

import pytest
import yaml

import respsim
from respsim.cli import EXIT_CORRUPT, EXIT_IO, _parse_endpoint, main
from respsim.config import SessionConfig, apply_overrides, from_dict, load_config
from respsim.firmware import encode_session
from respsim.protocol import FrameKind, FsrBatchPayload
from respsim.session import read_truth, run_session


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.fixture()
def capture_path(tmp_path, capsys):
    out = str(tmp_path / "session.raw")
    code, _, _ = run_cli(capsys, "simulate", "--out", out, "--duration", "60")
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_capture_and_truth(tmp_path, capsys):
    out = str(tmp_path / "s.raw")
    code, stdout, _ = run_cli(capsys, "simulate", "--out", out, "--duration", "60")
    assert code == 0
    assert "630 frames" in stdout
    data = (tmp_path / "s.raw").read_bytes()
    assert len(data) > 0
    truth = json.loads((tmp_path / "s.raw.truth.json").read_text())
    assert truth["counts"]["frames"] == 630
    assert len(truth["breath_times_ms"]) == 15


def test_simulate_is_hash_stable(tmp_path, capsys):
    hashes = []
    for name in ("a.raw", "b.raw"):
        out = str(tmp_path / name)
        assert run_cli(capsys, "simulate", "--out", out, "--seed", "3")[0] == 0
        payload = (tmp_path / name).read_bytes() + (tmp_path / (name + ".truth.json")).read_bytes()
        hashes.append(hashlib.sha256(payload).hexdigest())
    assert hashes[0] == hashes[1]


def test_simulate_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("rate_bpm: 10\nduration_s: 30\n")
    out = str(tmp_path / "s.raw")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", out)
    assert code == 0
    truth = json.loads((tmp_path / "s.raw.truth.json").read_text())
    assert len(truth["breath_times_ms"]) == 5  # 10 bpm for 30 s


def test_simulate_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("firmware:\n  accel_batch: 100\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "s.raw"))
    assert code == 1
    assert "accel_batch" in err


@pytest.mark.parametrize("command", ["simulate", "power", "analyze"])
def test_adc_wider_than_the_wire_is_config_error(tmp_path, capsys, command):
    # code fields on the wire are 12-bit, so 14-bit codes can be neither
    # framed nor inverted against a 14-bit full scale
    cfg = tmp_path / "c.yaml"
    cfg.write_text("duration_s: 4\nadc:\n  bits: 14\n")
    out = tmp_path / "s.raw"
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(out)]
    if command == "analyze":
        capture = tmp_path / "twelve-bit.raw"
        assert main(["simulate", "--duration", "20", "--out", str(capture)]) == 0
        argv += [str(capture), "--out", str(out)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("respsim: config error")
    assert "adc.bits=14" in err
    assert not out.exists()


def test_a_capture_from_a_wider_adc_names_the_reading_and_adc_bits(tmp_path, capsys):
    capture = tmp_path / "twelve-bit.raw"
    assert main(["simulate", "--duration", "20", "--out", str(capture)]) == 0
    capsys.readouterr()
    cfg = tmp_path / "ten-bit.yaml"
    cfg.write_text("adc:\n  bits: 10\n")
    code, out, err = run_cli(capsys, "analyze", str(capture), "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == ("respsim: config error: battery reading at t_ms=0 has code 3822, "
                   "outside 0..1023 of adc.bits=10, so the capture needs a wider adc.bits\n")


def test_simulate_rejects_negative_duration(tmp_path, capsys):
    out = tmp_path / "s.raw"
    code, _, err = run_cli(capsys, "simulate", "--out", str(out), "--duration", "-5")
    assert code == 1
    assert err.startswith("respsim: config error") and "duration" in err
    assert not out.exists()


def test_simulate_and_power_run_the_same_durations(tmp_path, capsys):
    # 1.01 s is whole milliseconds, 1.0005 s is not; neither is whole 25 Hz samples
    capture = str(tmp_path / "s.raw")
    out = ["--out", capture]
    assert run_cli(capsys, "simulate", "--duration", "1.01", *out)[0] == 0
    assert run_cli(capsys, "power", "--duration", "1.01")[0] == 0
    message = "respsim: config error: duration_s=1.0005 is not a whole number of milliseconds\n"
    assert run_cli(capsys, "simulate", "--duration", "1.0005", *out)[::2] == (1, message)
    assert run_cli(capsys, "power", "--duration", "1.0005")[::2] == (1, message)
    # analyze reads no duration, but rejects the ones the others reject
    assert run_cli(capsys, "analyze", capture, "--duration", "1.01")[0] == 0
    assert run_cli(capsys, "analyze", capture, "--duration", "1.0005")[::2] == (1, message)


@pytest.mark.parametrize("duration", ["inf", "1e308"])
@pytest.mark.parametrize("command", ["simulate", "power", "stream"])
def test_unbounded_duration_is_config_error(tmp_path, capsys, command, duration):
    argv = [command, "--duration", duration]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "s.raw")]
    if command == "stream":
        argv += ["--connect", f"127.0.0.1:{free_port()}"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == ("respsim: config error: duration_s must be finite and >= 0, "
                   f"got {float(duration)}\n")


@pytest.mark.parametrize("command", ["simulate", "power", "stream"])
def test_duration_past_the_wire_timestamps_is_config_error(tmp_path, capsys, command):
    argv = [command, "--duration", "1e300"]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "s.raw")]
    if command == "stream":
        argv += ["--connect", f"127.0.0.1:{free_port()}"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == ("respsim: config error: duration_s must be at most 4294967.296 "
                   "(4294967296 ms, the reach of the wire's u32 timestamps), got 1e+300\n")


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("duraton_s: 10\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "s.raw"))
    assert code == 1
    assert "duraton_s" in err


@pytest.mark.parametrize("text, message", [
    ("scenario:\n  breathing:\n    - {start_s: 0, rate_bpm: 90}\n",
     "scenario.breathing[0]: rate_bpm must be in (0, 60], got 90"),
    ("scenario:\n  posture:\n    - {start_s: 0, posture: still}\n    - {start_s: 5, pose: x}\n",
     "unknown config key 'scenario.posture[1].pose'"),
    ("scenario:\n  breathing:\n    - 12\n",
     "scenario.breathing[0]: expected a mapping, got int"),
    ("duration_s: abc\n", "duration_s: expected a number, got str"),
    ("scenario:\n  breathing:\n    - {start_s: 0, rate_bpm: fast}\n",
     "scenario.breathing[0].rate_bpm: expected a number, got str"),
    ("battery:\n  ocv_points: [3, 4]\n", "battery.ocv_points[0]: expected a list, got int"),
    ("battery:\n  ocv_points: [[0, a], [1, 4.2]]\n",
     "battery.ocv_points[0][1]: expected a number, got str"),
    ("adc:\n  bits: 12.5\n", "adc: bits must be a whole number in 1..16, got 12.5"),
    ("battery:\n  ocv_points: [[0, 3.3]]\n",
     "battery.ocv_points: OcvCurve needs at least two points"),
    ("battery:\n  sense_ratio: 0.6\n",
     "sense_ratio=0.6 must be in (0, 1) and scale the full-charge 4.2 V of ocv_points "
     "to at most adc.v_ref=1.8 V"),
    ("adc:\n  v_ref: 1.0\n",
     "sense_ratio=0.4 must be in (0, 1) and scale the full-charge 4.2 V of ocv_points "
     "to at most adc.v_ref=1.0 V"),
    ("battery:\n  ocv_points: [[0, 3.3], [1, 4.6]]\n",
     "sense_ratio=0.4 must be in (0, 1) and scale the full-charge 4.6 V of ocv_points "
     "to at most adc.v_ref=1.8 V"),
    ("power:\n  preset: [1]\n", "power.preset: expected a string, got list"),
    ("battery:\n  capacity_mah: 0\n", "battery.capacity_mah must be positive and finite, got 0"),
    ("power:\n  tx_ms_per_frame: -1\n",
     "power.tx_ms_per_frame must be a whole number >= 0, got -1"),
])
def test_config_errors_name_their_key(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "s.raw"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert err == f"respsim: config error: {message}\n"
    assert not out.exists()


def number_fields(hint, value, path="", types=(int, float)):
    """Key path of every field in ``value``, a config as the builder reads it,
    whose annotation admits one of ``types``."""
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        for f in dataclasses.fields(hint):
            yield from number_fields(hints[f.name], value[f.name],
                                     f"{path}.{f.name}" if path else f.name, types)
    elif typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        for i, item in enumerate(value):
            yield from number_fields(args[0] if args[1:] == (...,) else args[i], item,
                                     f"{path}[{i}]", types)
    elif set(types) & set(typing.get_args(hint) or (hint,)):
        yield path


def set_field(data, path, value):
    *keys, last = re.findall(r"[^.\[\]]+", path)
    for key in keys:
        data = data[int(key) if key.isdigit() else key]
    data[int(last) if last.isdigit() else last] = value


def clean_failures(tmp_path, capsys, base, paths, value):
    """Each run of simulate, power and analyze with ``value`` set at one of
    ``paths`` that neither exits 0 nor exits 1 with a config error naming
    the path; an exception or a warning counts too."""
    capture = tmp_path / "s.raw"
    assert main(["simulate", "--duration", "1", "--out", str(capture)]) == 0
    commands = [["simulate", "--out", str(tmp_path / "o.raw")], ["power"],
                ["analyze", str(capture)]]
    problems = []
    for path in paths:
        data = copy.deepcopy(base)
        set_field(data, path, value)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(data))
        for command in commands:
            capsys.readouterr()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([*command, "--config", str(cfg)])
            except Exception as e:  # collect every failing case, not only the first
                problems.append(f"{path} {command[0]}: {e!r}")
                continue
            err = capsys.readouterr().err
            if code != 0 and not (code == 1 and err.startswith("respsim: config error: ")
                                  and path in err):
                problems.append(f"{path} {command[0]}: exit {code}, {err!r}")
    return problems


def _base_config():
    return json.loads(json.dumps(dataclasses.asdict(SessionConfig(duration_s=1.0))))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, value):
    # every number field, found through the config's annotations, set from YAML
    base = _base_config()
    paths = list(number_fields(SessionConfig, base))
    assert "scenario.breathing[0].rate_bpm" in paths and "battery.ocv_points[1][0]" in paths
    assert clean_failures(tmp_path, capsys, base, paths, value) == []


def test_integers_past_the_float_range_are_config_errors(tmp_path, capsys):
    # int-only fields reject such a value under their own rules, so they stay out
    base = _base_config()
    paths = list(number_fields(SessionConfig, base, types=(float,)))
    assert "duration_s" in paths and "scenario.baseline_n" in paths
    assert "seed" not in paths and "firmware.fsr_rate_hz" not in paths
    assert clean_failures(tmp_path, capsys, base, paths, 10**400) == []


@pytest.mark.parametrize("key, message", [
    ("rate_bpm", "scenario.breathing[0].rate_bpm: expected a number, got NoneType"),
    ("posture", "scenario.posture[0].posture: expected a string, got NoneType"),
], ids=["rate_bpm", "posture"])
def test_a_shorthand_without_a_value_is_config_error(tmp_path, capsys, key, message):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"{key}:\nduration_s: 60\n")
    out = tmp_path / "s.raw"
    code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
    assert code == 1
    assert err == f"respsim: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "power", "analyze"])
def test_an_integer_too_long_to_read_is_config_error(tmp_path, capsys, command):
    # int() refuses more than 4300 digits while the YAML is parsed, before
    # any key path is known, so the error names the file and the line
    cfg = tmp_path / "c.yaml"
    cfg.write_text("seed: 3\nbattery:\n  capacity_mah: " + "9" * 5000 + "\n")
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "s.raw")]
    if command == "analyze":
        capture = tmp_path / "c.raw"
        assert main(["simulate", "--duration", "1", "--out", str(capture)]) == 0
        argv += [str(capture)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith(f"respsim: config error: {cfg}, line 3: ")


def test_a_config_that_is_not_utf8_is_config_error_naming_the_file(tmp_path, capsys):
    good = tmp_path / "good.yaml"
    good.write_text("# 25 µs noise floor\nseed: 4\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "power", "--config", str(good))
    assert (code, err) == (0, "")
    assert load_config(str(good)).seed == 4
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"seed: 4\n# noise \xff floor\n")
    code, _, err = run_cli(capsys, "power", "--config", str(bad))
    assert code == 1
    assert err.startswith(f"respsim: config error: {bad}: ")


@pytest.mark.parametrize("command", ["simulate", "stream"])
@pytest.mark.parametrize("text, flags, seed", [
    ("seed: 1.5\n", [], "1.5"),
    ("", ["--seed", "-3"], "-3"),
], ids=["fraction-in-file", "negative-flag"])
def test_bad_seed_is_config_error(tmp_path, capsys, command, text, flags, seed):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "s.raw"
    argv = [command, "--config", str(cfg), "--duration", "2", *flags]
    if command == "simulate":
        argv += ["--out", str(out)]
    else:
        argv += ["--connect", f"127.0.0.1:{free_port()}", "--speed", "1000"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err == f"respsim: config error: seed must be a whole number >= 0, got {seed}\n"
    assert not out.exists()


def test_sidecar_config_reloads_to_the_config_that_made_it(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "duration_s: 6\n"
        "scenario:\n"
        "  breathing: [{start_s: 0, rate_bpm: 12}, {start_s: 2.5, rate_bpm: 20}]\n"
        "  posture: [{start_s: 0, posture: still}, {start_s: 3, posture: walking}]\n"
        "battery: {charging: true, ocv_points: [[0, 3.0], [0.5, 3.7], [1, 4.1]]}\n"
        "power: {p_idle_uw: 10, p_active_uw: 200.5, p_radio_uw: 5000}\n"
        "analysis: {window_s: 30}\n"
    )
    out = str(tmp_path / "s.raw")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--out", out, "--seed", "7")
    assert code == 0
    made = apply_overrides(load_config(str(cfg)), seed=7)
    assert from_dict(read_truth(out)["config"]) == made


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.yaml"),
                           "--out", str(tmp_path / "s.raw"))
    assert code == 2


def test_usage_error_exits_one(capsys):
    assert run_cli(capsys, "simulate")[0] == 1          # --out is required
    assert run_cli(capsys, "no-such-command")[0] == 1
    assert run_cli(capsys)[0] == 1


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def test_decode_prints_one_line_per_frame(capture_path, capsys):
    code, stdout, err = run_cli(capsys, "decode", capture_path)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 630
    first = json.loads(lines[0])
    # the t=0 battery measurement frames out before any batch fills
    assert first["kind"] == "battery_status"
    assert first["seq"] == 0
    first_fsr = next(
        json.loads(l) for l in lines if json.loads(l)["kind"] == "fsr_batch"
    )
    assert first_fsr["t0_ms"] == 0
    assert len(first_fsr["codes"]) == 5
    assert "630 frames, 0 resyncs" in err


def test_decode_to_file(capture_path, tmp_path, capsys):
    out = str(tmp_path / "frames.jsonl")
    code, stdout, _ = run_cli(capsys, "decode", capture_path, "--out", out)
    assert code == 0
    assert stdout == ""
    assert len((tmp_path / "frames.jsonl").read_text().splitlines()) == 630


def test_decode_missing_input(capsys, tmp_path):
    assert run_cli(capsys, "decode", str(tmp_path / "nope.raw"))[0] == 2


def test_decode_empty_file_is_ok(tmp_path, capsys):
    p = tmp_path / "empty.raw"
    p.write_bytes(b"")
    code, stdout, _ = run_cli(capsys, "decode", str(p))
    assert code == 0
    assert stdout == ""


def test_decode_pure_garbage_is_corrupt(tmp_path, capsys):
    p = tmp_path / "junk.raw"
    p.write_bytes(bytes(range(1, 200)) * 3)
    code, _, err = run_cli(capsys, "decode", str(p))
    assert code == 3
    assert "no decodable frames" in err


def test_decode_survives_mid_stream_corruption(capture_path, tmp_path, capsys):
    raw = bytearray(Path(capture_path).read_bytes())
    for i in range(40, 400, 60):
        raw[i] ^= 0xFF
    p = tmp_path / "dented.raw"
    p.write_bytes(bytes(raw))
    code, stdout, err = run_cli(capsys, "decode", str(p))
    assert code == 0
    decoded = len(stdout.splitlines())
    assert 600 <= decoded < 630
    assert "resyncs" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_summary_and_csv(capture_path, tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code, stdout, _ = run_cli(capsys, "analyze", capture_path, "--out", out)
    assert code == 0
    summary = json.loads(stdout)
    assert summary["fsr_samples"] == 1500
    assert summary["accel_samples"] == 3000
    assert summary["battery_reports"] == 30
    assert summary["median_rate_bpm"] == pytest.approx(15.0, abs=1.0)
    assert summary["export"]["rows"] == summary["fsr_samples"] + \
        summary["accel_samples"] + summary["battery_reports"] + \
        summary["breaths_detected"] + len(summary["alerts"]) + 1
    lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert len(lines) == summary["export"]["rows"] + 1


def test_analyze_jsonl_format(capture_path, tmp_path, capsys):
    out = str(tmp_path / "rows.jsonl")
    code, stdout, _ = run_cli(capsys, "analyze", capture_path,
                              "--out", out, "--format", "jsonl")
    assert code == 0
    rows = [json.loads(l) for l in (tmp_path / "rows.jsonl").read_text().splitlines()]
    assert sum(1 for r in rows if r["record"] == "estimate") == 1


def test_analyze_garbage_only_is_corrupt(tmp_path, capsys):
    p = tmp_path / "junk.raw"
    p.write_bytes(b"\x00\x01\x02" * 100)
    assert run_cli(capsys, "analyze", str(p))[0] == 3


def test_analyze_empty_capture(tmp_path, capsys):
    p = tmp_path / "empty.raw"
    p.write_bytes(b"")
    code, stdout, _ = run_cli(capsys, "analyze", str(p))
    assert code == 0
    assert json.loads(stdout)["fsr_samples"] == 0


def test_analyze_capture_whose_breaths_share_an_instant(tmp_path, capsys):
    # the FSR frames of a 15 s session on the default schedule, at a flat
    # code but for one peak in the batch at 6,000 ms.  That slot's frame
    # arrives three times: twice as sent, then with the peak moved.  Two
    # breaths once landed on one instant and divided the rate by a zero
    # interval; now the first frame received wins at each instant
    sent = [f for f in run_session(from_dict({"duration_s": 15})).frames
            if f.kind == FrameKind.FSR_BATCH]
    flat = [dataclasses.replace(f, payload=FsrBatchPayload(f.payload.t0_ms, (1000,) * 5))
            for f in sent]
    assert flat[30].payload.t0_ms == 6000
    peak, moved = (dataclasses.replace(flat[30], payload=FsrBatchPayload(6000, codes))
                   for codes in ((1000, 1000, 3000, 1000, 1000), (1000, 1000, 1000, 1000, 3000)))
    p = tmp_path / "same_instant.raw"
    p.write_bytes(encode_session(flat[:30] + [peak, peak, moved] + flat[31:]))
    code, stdout, _ = run_cli(capsys, "analyze", str(p), "--out", str(tmp_path / "x.csv"))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["frames"]["fsr_batch"] == 77
    assert summary["misplaced_frames"] == {"fsr_batch": 0, "accel_batch": 0, "battery_status": 0}
    assert (summary["fsr_samples"], summary["breaths_detected"]) == (375, 1)
    assert "breath,6080," in (tmp_path / "x.csv").read_text()


def test_analyze_times_single_batch_channels_by_the_config(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("duration_s: 0.1\nfirmware: {fsr_rate_hz: 50, accel_rate_hz: 100}\n")
    capture = str(tmp_path / "s.raw")
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", capture)[0] == 0
    code, stdout, _ = run_cli(capsys, "analyze", "--config", str(cfg), capture)
    assert code == 0
    assert json.loads(stdout)["span_ms"] == [0, 100]


def test_analyze_warns_when_device_and_host_battery_percent_disagree(tmp_path, capsys):
    # a capture made with another divider and sense ratio, analyzed with the
    # default model: the host reads 0 % where the device sent 50 %
    cfg = tmp_path / "other.yaml"
    cfg.write_text("divider: {r_fixed_ohm: 4700}\n"
                   "battery: {sense_ratio: 0.3, initial_soc: 0.5}\n")
    capture = str(tmp_path / "other.raw")
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--duration", "120",
                   "--out", capture)[0] == 0
    code, stdout, err = run_cli(capsys, "analyze", capture)
    assert code == 0
    assert json.loads(stdout)["battery_percent_mismatches"] == 60
    assert err == ("respsim: warning: device and host battery percent differ by more than "
                   "1 point on 60 of 60 readings; analyze with the --config the capture "
                   "was made with\n")
    code, stdout, err = run_cli(capsys, "analyze", capture, "--config", str(cfg))
    assert (code, err) == (0, "")
    assert json.loads(stdout)["battery_percent_mismatches"] == 0


# a capture made with another firmware schedule, analyzed with the default
# one: more than half of its frames of one kind are off the default schedule
@pytest.mark.parametrize("firmware, misplaced", [
    ("{fsr_rate_hz: 50, fsr_batch: 10}", "300 of 300 fsr_batch frames"),
    ("{fsr_rate_hz: 5}", "59 of 60 fsr_batch frames"),
])
def test_a_capture_from_another_schedule_is_config_error_naming_config(
        tmp_path, capsys, firmware, misplaced):
    cfg = tmp_path / "other.yaml"
    cfg.write_text(f"duration_s: 60\nfirmware: {firmware}\n")
    capture = str(tmp_path / "other.raw")
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", capture)[0] == 0
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(capsys, "analyze", capture, "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == (f"respsim: config error: {misplaced} are off the firmware schedule; "
                   f"analyze with the --config the capture was made with\n")
    assert not out.exists()
    code, stdout, err = run_cli(capsys, "analyze", capture, "--config", str(cfg))
    assert (code, err) == (0, "")
    assert json.loads(stdout)["misplaced_frames"] == {
        "fsr_batch": 0, "accel_batch": 0, "battery_status": 0}


def test_a_capture_from_another_schedule_exits_before_any_detection(tmp_path, capsys, caplog):
    # none of its FSR frames is on the default schedule, so breath detection
    # would find no breath and raise a false apnea alert before the exit
    cfg = tmp_path / "other.yaml"
    cfg.write_text("duration_s: 60\nfirmware: {fsr_rate_hz: 50, fsr_batch: 10}\n")
    capture = str(tmp_path / "other.raw")
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", capture)[0] == 0
    caplog.clear()
    assert run_cli(capsys, "analyze", capture)[0] == 1
    assert [r.getMessage() for r in caplog.records if r.name == "respsim.pipeline"] == []


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def test_stream_round_trip_over_tcp(tmp_path, capsys):
    received = {}
    # listen before the sender starts, so it cannot connect too early
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    server.settimeout(10)
    port = server.getsockname()[1]

    def receiver():
        with server:
            conn, _ = server.accept()
            chunks = []
            with conn:
                while True:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            received["data"] = b"".join(chunks)

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    code = main(["stream", "--connect", f"127.0.0.1:{port}",
                 "--duration", "10", "--speed", "1000"])
    thread.join(timeout=10)
    assert code == 0
    assert not thread.is_alive()

    # the streamed bytes are exactly what simulate would have written
    ref = str(tmp_path / "ref.raw")
    assert main(["simulate", "--out", ref, "--duration", "10"]) == 0
    capsys.readouterr()
    assert received["data"] == Path(ref).read_bytes()


def test_stream_listen_captures_to_file(tmp_path, capsys):
    port = free_port()
    out = str(tmp_path / "captured.raw")
    result = {}

    def listener():
        result["code"] = main(["stream", "--listen", f"127.0.0.1:{port}", "--out", out])

    # daemon: a listener left in accept() must not keep the test run alive
    thread = threading.Thread(target=listener, daemon=True)
    thread.start()
    # stream a short session into the listener, retrying while the
    # connection is refused because the listener is not up yet
    for _ in range(50):
        sender = main(["stream", "--connect", f"127.0.0.1:{port}",
                       "--duration", "4", "--speed", "1000"])
        if sender != EXIT_IO:
            break
        time.sleep(0.1)
    thread.join(timeout=10)
    capsys.readouterr()
    assert sender == 0
    assert result["code"] == 0
    data = Path(out).read_bytes()
    ref = str(tmp_path / "ref.raw")
    assert main(["simulate", "--out", ref, "--duration", "4"]) == 0
    capsys.readouterr()
    assert data == Path(ref).read_bytes()


def test_stream_listen_without_a_frame_is_corruption(tmp_path, capsys):
    port = free_port()
    out = tmp_path / "captured.raw"
    result = {}

    def listener():
        result["code"] = main(["stream", "--listen", f"127.0.0.1:{port}", "--out", str(out)])

    thread = threading.Thread(target=listener, daemon=True)
    thread.start()
    garbage = bytes(range(256)) * 4  # magic bytes in it, but no frame
    for _ in range(50):
        try:
            with socket.create_connection(("127.0.0.1", port)) as sender:
                sender.sendall(garbage)
            break
        except ConnectionRefusedError:  # the listener is not up yet
            time.sleep(0.1)
    thread.join(timeout=10)
    assert result["code"] == EXIT_CORRUPT
    assert "no decodable frames in input" in capsys.readouterr().err
    assert out.read_bytes() == garbage


def test_stream_connection_refused_is_io_error(capsys):
    port = free_port()
    code, _, err = run_cli(capsys, "stream", "--connect", f"127.0.0.1:{port}",
                           "--duration", "2", "--speed", "1000")
    assert code == 2
    assert "i/o error" in err


def test_the_highest_port_is_an_endpoint():
    assert _parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)


def test_stream_bad_endpoint_is_usage_error(capsys):
    assert run_cli(capsys, "stream", "--connect", "nonsense",
                   "--duration", "2")[0] == 1


@pytest.mark.parametrize("mode", ["--connect", "--listen"])
@pytest.mark.parametrize("port", ["70000", "99999", "\u00b2"],
                         ids=["70000", "99999", "superscript-two"])
def test_stream_port_outside_0_to_65535_is_config_error(capsys, mode, port):
    # a socket would take 99999 as 99999 mod 65536 or overflow on 70000; the
    # endpoint is checked before the session is configured, so its bad
    # duration goes unread
    endpoint = f"127.0.0.1:{port}"
    code, out, err = run_cli(capsys, "stream", mode, endpoint, "--duration", "-1")
    assert (code, out) == (1, "")
    assert err == ("respsim: config error: expected HOST:PORT with a decimal port in "
                   f"0..65535, got {endpoint!r}\n")


@pytest.mark.parametrize("speed", ["0", "-1", "nan", "inf"])
def test_stream_rejects_nonpositive_speed(capsys, speed):
    # nan and inf would send every frame unpaced
    assert run_cli(capsys, "stream", "--connect", "127.0.0.1:1",
                   "--speed", speed, "--duration", "2")[0] == 1


# ---------------------------------------------------------------------------
# power
# ---------------------------------------------------------------------------

def test_power_surfaces_both_claims(capsys, tmp_path):
    out = str(tmp_path / "audit.json")
    code, stdout, _ = run_cli(capsys, "power", "--duration", "60", "--out", out)
    assert code == 0
    assert "abstract-claim" in stdout
    assert "intro-claim" in stdout
    assert "400" in stdout and "4900" in stdout
    assert "disagree" in stdout
    assert "12.25x" in stdout
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["reports"]["abstract-claim"]["projected_battery_life_h"] == \
        pytest.approx(4162.5, rel=1e-9)
    assert audit["reports"]["intro-claim"]["projected_battery_life_h"] == \
        pytest.approx(1665.0 / 4.9, rel=1e-9)
    assert audit["claims_disagreement"]["ratio"] == pytest.approx(12.25)


def test_power_preset_flag_headlines_selection(capsys):
    code, stdout, _ = run_cli(capsys, "power", "--duration", "10",
                              "--preset", "intro-claim")
    assert code == 0
    marked = [l for l in stdout.splitlines() if l.endswith("*")]
    assert len(marked) == 1
    assert marked[0].startswith("intro-claim")


def test_power_preset_flag_keeps_the_emulated_activity(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("power:\n  tx_ms_per_frame: 5\n")
    argv = ("power", "--config", str(cfg), "--duration", "10")
    plain = run_cli(capsys, *argv)[1]
    flagged = run_cli(capsys, *argv, "--preset", "abstract-claim")[1]
    activity = [l for l in plain.splitlines() if l.startswith("activity:")]
    assert activity == [l for l in flagged.splitlines() if l.startswith("activity:")]
    assert "radio=525 ms" in activity[0]


def test_power_custom_profile_duty_cycle(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(
        "power:\n  p_idle_uw: 0\n  p_active_uw: 1000\n  p_radio_uw: 5000\n"
    )
    out = str(tmp_path / "audit.json")
    code, stdout, _ = run_cli(capsys, "power", "--config", str(cfg),
                              "--duration", "60", "--out", out)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    selected = audit["selected"]
    report = audit["reports"][selected]
    # the selected report is the profile that drove the emulation, not the
    # preset whose name the config's default power.preset still carries
    ms = audit["ms_by_state"]
    expected = (0 * ms["idle"] + 1000 * ms["active"] + 5000 * ms["radio"]) / 3.6e9
    assert report["energy_mwh"] == pytest.approx(expected, rel=1e-12)
    # mostly idle at 0 uW: the duty-cycled average must sit far below active
    assert 0 < report["average_power_uw"] < 1000
    # the preset rows keep the published figures
    assert audit["reports"]["abstract-claim"]["average_power_uw"] == pytest.approx(400.0)
    assert audit["reports"]["intro-claim"]["average_power_uw"] == pytest.approx(4900.0)


def test_power_zero_duration(capsys, tmp_path):
    out = str(tmp_path / "audit.json")
    code, _, _ = run_cli(capsys, "power", "--duration", "0", "--out", out)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["duration_s"] == 0.0
    assert audit["ms_by_state"] == {"idle": 0, "active": 0, "radio": 0}
    for report in audit["reports"].values():
        assert report["energy_mwh"] == 0.0
        assert report["average_power_uw"] == 0.0
        assert report["projected_battery_life_h"] is None


def test_power_zero_duration_prints_no_battery_life_range(capsys):
    code, stdout, _ = run_cli(capsys, "power", "--duration", "0")
    assert code == 0
    assert "no time was audited" in stdout
    assert "battery life spans" not in stdout and "inf h" not in stdout
    assert "battery life spans" in run_cli(capsys, "power", "--duration", "0.001")[1]


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


@pytest.mark.parametrize("duration, power, unbounded", [
    ("0", "{}", {"abstract-claim", "intro-claim"}),
    ("60", "{p_idle_uw: 0, p_active_uw: 0, p_radio_uw: 0}", {"custom"}),
])
def test_power_audit_is_strict_json(tmp_path, capsys, duration, power, unbounded):
    # a life with no draw to bound it is null in the file and inf in the table
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"power: {power}\n")
    out = tmp_path / "audit.json"
    code, stdout, _ = run_cli(capsys, "power", "--config", str(cfg), "--duration", duration,
                              "--out", str(out))
    assert code == 0
    audit = json.loads(out.read_text(), parse_constant=_not_json)
    lives = {name: r["projected_battery_life_h"] for name, r in audit["reports"].items()}
    assert {name for name, life in lives.items() if life is None} == unbounded
    assert all(life > 0 for life in lives.values() if life is not None)
    claims = audit["claims_disagreement"]
    assert (claims["battery_life_h_low"], claims["battery_life_h_high"]) == (
        lives["intro-claim"], lives["abstract-claim"])
    table = [row for row in map(str.split, stdout.splitlines()) if row and row[0] in lives]
    assert {row[0] for row in table if row[3] == "inf"} == unbounded


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

# scipy, and numpy.ma, which numpy functions such as np.unique and
# np.median import on first use; either raises a command's peak memory
NO_SCIPY = """
import json, sys
import respsim.cli
assert not {"scipy", "numpy.ma"} & set(sys.modules), "import respsim.cli"
for argv in json.loads(sys.argv[1]):
    assert respsim.cli.main(argv) == 0, argv
    assert not {"scipy", "numpy.ma"} & set(sys.modules), argv
"""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter, since this one may hold scipy for other tests
    capture = str(tmp_path / "s.raw")
    commands = [["simulate", "--duration", "30", "--out", capture],
                ["analyze", capture, "--out", str(tmp_path / "a.csv")],
                ["power", "--duration", "30"]]
    env = dict(os.environ, PYTHONPATH=str(Path(respsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

# argv that writes to ``out``, given a short capture as input
WRITERS = {
    "simulate": lambda capture, out: ["simulate", "--duration", "20", "--out", out],
    "analyze-csv": lambda capture, out: ["analyze", capture, "--out", out],
    "analyze-jsonl": lambda capture, out: ["analyze", capture, "--out", out,
                                           "--format", "jsonl"],
    "power": lambda capture, out: ["power", "--duration", "20", "--out", out],
    "decode": lambda capture, out: ["decode", capture, "--out", out],
}


def outputs(command, out):
    """Every file that ``command`` writes for ``--out out``."""
    return [out, out + ".truth.json"] if command == "simulate" else [out]


@pytest.fixture()
def short_capture(tmp_path, capsys):
    capture = str(tmp_path / "input.raw")
    assert main(["simulate", "--duration", "20", "--out", capture]) == 0
    capsys.readouterr()
    return capture


def write_output(capsys, command, capture, out):
    code = main(WRITERS[command](capture, out))
    capsys.readouterr()
    return code


def fresh_bytes(tmp_path, capsys, command, capture):
    out = str(tmp_path / "fresh.out")
    assert write_output(capsys, command, capture, out) == 0
    return [Path(p).read_bytes() for p in outputs(command, out)]


@pytest.mark.parametrize("command", WRITERS)
def test_overwriting_an_output_gives_the_bytes_of_a_fresh_write(
        tmp_path, capsys, short_capture, command):
    fresh = fresh_bytes(tmp_path, capsys, command, short_capture)
    out = str(tmp_path / "reused.out")
    for path, data in zip(outputs(command, out), fresh):
        Path(path).write_bytes(b"stale\n" + data)  # longer than the new output
    assert write_output(capsys, command, short_capture, out) == 0
    assert [Path(p).read_bytes() for p in outputs(command, out)] == fresh


@pytest.mark.parametrize("command", WRITERS)
def test_a_regular_output_is_replaced_by_a_new_file(tmp_path, capsys, short_capture, command):
    paths = outputs(command, str(tmp_path / "o.out"))
    for path in paths:
        Path(path).write_bytes(b"old bytes\n")
    inodes = [os.stat(p).st_ino for p in paths]
    readers = [open(p, "rb") for p in paths]
    try:
        assert write_output(capsys, command, short_capture, paths[0]) == 0
        assert all(os.stat(p).st_ino != inode for p, inode in zip(paths, inodes))
        # the old file lives on for whoever has it open
        assert [fp.read() for fp in readers] == [b"old bytes\n"] * len(paths)
    finally:
        for fp in readers:
            fp.close()
    assert all(Path(p).read_bytes() != b"old bytes\n" for p in paths)


@pytest.mark.parametrize("command", WRITERS)
def test_a_replaced_output_keeps_its_permission_bits(tmp_path, capsys, short_capture, command):
    paths = outputs(command, str(tmp_path / "private.out"))
    for path in paths:
        Path(path).write_bytes(b"old bytes\n")
        os.chmod(path, 0o600)
    assert write_output(capsys, command, short_capture, paths[0]) == 0
    assert [os.stat(p).st_mode & 0o777 for p in paths] == [0o600] * len(paths)


@pytest.mark.parametrize("command", WRITERS)
def test_a_symlinked_output_is_written_through_the_link(tmp_path, capsys, short_capture, command):
    fresh = fresh_bytes(tmp_path, capsys, command, short_capture)
    target, link = tmp_path / "target.out", tmp_path / "link.out"
    target.write_bytes(b"old bytes\n")
    link.symlink_to(target)
    assert write_output(capsys, command, short_capture, str(link)) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == fresh[0]
    assert [Path(p).read_bytes() for p in outputs(command, str(link))] == fresh


@pytest.mark.parametrize("command", WRITERS)
def test_a_hard_linked_output_shows_the_new_bytes_under_both_names(
        tmp_path, capsys, short_capture, command):
    fresh = fresh_bytes(tmp_path, capsys, command, short_capture)
    out, other = tmp_path / "o.out", tmp_path / "other-name.out"
    out.write_bytes(b"old bytes\n")
    os.link(out, other)
    assert write_output(capsys, command, short_capture, str(out)) == 0
    assert os.path.samefile(out, other)
    assert out.read_bytes() == other.read_bytes() == fresh[0]


@pytest.mark.parametrize("command", WRITERS)
def test_a_directory_output_is_io_error(tmp_path, capsys, short_capture, command):
    out = tmp_path / "a-directory"
    out.mkdir()
    assert write_output(capsys, command, short_capture, str(out)) == EXIT_IO
    assert out.is_dir()


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
@pytest.mark.parametrize("command", WRITERS)
def test_a_read_only_output_is_io_error(tmp_path, capsys, short_capture, command):
    out = tmp_path / "read-only.out"
    out.write_bytes(b"old bytes\n")
    out.chmod(0o444)
    assert write_output(capsys, command, short_capture, str(out)) == EXIT_IO
    assert out.read_bytes() == b"old bytes\n"


FILE_SIZE_LIMITED = """
import resource, signal, sys
import respsim.cli
# a write past the limit fails with EFBIG, as one on a full disk fails with ENOSPC
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))
sys.exit(respsim.cli.main(["simulate", "--duration", "20", "--out", sys.argv[1]]))
"""


def test_a_failed_capture_write_leaves_no_old_truth_beside_it(tmp_path, short_capture):
    sidecar = Path(short_capture + ".truth.json")
    assert sidecar.stat().st_size > 1000 and Path(short_capture).stat().st_size > 1000
    env = dict(os.environ, PYTHONPATH=str(Path(respsim.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", FILE_SIZE_LIMITED, short_capture],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_IO, done.stderr
    assert "File too large" in done.stderr
    assert Path(short_capture).stat().st_size == 1000
    assert sidecar.read_bytes() == b""
