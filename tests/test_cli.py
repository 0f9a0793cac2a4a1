"""CLI harness: subcommands, exit codes, and the TCP stream path."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import socket
import threading
import time
import typing
import warnings
from pathlib import Path

import pytest
import yaml

from respsim.cli import EXIT_IO, main
from respsim.config import SessionConfig, apply_overrides, from_dict, load_config
from respsim.session import read_truth


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


def test_simulate_rejects_negative_duration(tmp_path, capsys):
    out = tmp_path / "s.raw"
    code, _, err = run_cli(capsys, "simulate", "--out", str(out), "--duration", "-5")
    assert code == 1
    assert err.startswith("respsim: config error") and "duration" in err
    assert not out.exists()


def test_simulate_and_power_run_the_same_durations(tmp_path, capsys):
    # 1.01 s is whole milliseconds, 1.0005 s is not; neither is whole 25 Hz samples
    out = ["--out", str(tmp_path / "s.raw")]
    assert run_cli(capsys, "simulate", "--duration", "1.01", *out)[0] == 0
    assert run_cli(capsys, "power", "--duration", "1.01")[0] == 0
    message = "respsim: config error: duration_s=1.0005 is not a whole number of milliseconds\n"
    assert run_cli(capsys, "simulate", "--duration", "1.0005", *out)[::2] == (1, message)
    assert run_cli(capsys, "power", "--duration", "1.0005")[::2] == (1, message)


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
     "battery.sense_ratio: sense output 2.5200 V exceeds ADC reference 1.8 V "
     "(v_batt=4.2, ratio=0.6)"),
    ("power:\n  preset: [1]\n", "power.preset: expected a string, got list"),
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


def test_analyze_times_single_batch_channels_by_the_config(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text("duration_s: 0.1\nfirmware: {fsr_rate_hz: 50, accel_rate_hz: 100}\n")
    capture = str(tmp_path / "s.raw")
    assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", capture)[0] == 0
    code, stdout, _ = run_cli(capsys, "analyze", "--config", str(cfg), capture)
    assert code == 0
    assert json.loads(stdout)["span_ms"] == [0, 100]


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


def test_stream_connection_refused_is_io_error(capsys):
    port = free_port()
    code, _, err = run_cli(capsys, "stream", "--connect", f"127.0.0.1:{port}",
                           "--duration", "2", "--speed", "1000")
    assert code == 2
    assert "i/o error" in err


def test_stream_bad_endpoint_is_usage_error(capsys):
    assert run_cli(capsys, "stream", "--connect", "nonsense",
                   "--duration", "2")[0] == 1


def test_stream_rejects_nonpositive_speed(capsys):
    assert run_cli(capsys, "stream", "--connect", "127.0.0.1:1",
                   "--speed", "0", "--duration", "2")[0] == 1


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
        assert report["projected_battery_life_h"] == float("inf")
