"""Command-line harness: simulate, stream, decode, analyze, power.

Exit codes: 0 success, 1 usage or configuration error, 2 I/O error
(missing file, refused connection), 3 protocol corruption beyond recovery
(the input had bytes but not a single decodable frame).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import socket
import sys
import time
from contextlib import nullcontext

from . import pipeline
from ._output import open_output
from .config import ConfigError, SessionConfig, apply_overrides, load_config
from .firmware import schedule_timeline
from .power import PRESETS, accumulate
from .protocol import StreamSplitter, split_stream
from .sensor import ParameterError
from .session import run_session, write_capture

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CORRUPT = 3


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit is 2; keep that for I/O and use 1 here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="session config file (YAML)")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--duration", type=float, default=None, metavar="SECONDS",
                        help="override the session duration")

    parser = _Parser(
        prog="respsim",
        description="Software twin of a wearable respiratory motion sensor.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a session and write raw frames + truth sidecar")
    p.add_argument("--out", required=True, metavar="PATH", help="capture file to write")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stream", parents=[common],
                       help="replay a session over TCP, or capture one")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="HOST:PORT",
                      help="simulate and send frames to a receiver")
    mode.add_argument("--listen", metavar="HOST:PORT",
                      help="accept one sender and capture its bytes")
    p.add_argument("--speed", type=float, default=1.0,
                   help="realtime multiplier for --connect (default 1.0)")
    p.add_argument("--out", metavar="PATH", help="capture file for --listen")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser("decode", help="print frames from a capture as JSON lines")
    p.add_argument("input", metavar="CAPTURE", help="raw frame byte stream")
    p.add_argument("--out", metavar="PATH", help="write JSON lines here instead of stdout")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("analyze", parents=[common],
                       help="run the host pipeline over a capture")
    p.add_argument("input", metavar="CAPTURE", help="raw frame byte stream")
    p.add_argument("--out", metavar="PATH", help="export per-sample rows here")
    p.add_argument("--format", choices=tuple(pipeline.EXPORTERS), default="csv",
                   help="export format for --out (default csv)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", parents=[common],
                       help="energy audit and battery-life projection")
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="headline the projection under this power preset")
    p.add_argument("--out", metavar="PATH", help="also write the audit as JSON")
    p.set_defaults(func=cmd_power)
    return parser


def _load_session_config(args) -> SessionConfig:
    cfg = load_config(args.config) if args.config else SessionConfig()
    return apply_overrides(cfg, seed=args.seed, duration_s=args.duration)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_session_config(args)
    result = run_session(cfg)
    sidecar = write_capture(args.out, result)
    print(f"wrote {args.out}: {len(result.frames)} frames, {len(result.data)} bytes")
    print(f"truth sidecar: {sidecar}")
    return EXIT_OK


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not (sep and port.isascii() and port.isdigit() and int(port) <= 0xFFFF):
        raise ConfigError(f"expected HOST:PORT with a decimal port in 0..65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_stream(args) -> int:
    if not 0 < args.speed < math.inf:
        raise ParameterError(f"--speed must be a positive finite number, got {args.speed}")
    if args.connect:
        return _stream_connect(args)
    return _stream_listen(args)


def _stream_connect(args) -> int:
    host, port = _parse_endpoint(args.connect)
    cfg = _load_session_config(args)
    result = run_session(cfg)
    # each frame's bytes go out at its send instant in FirmwareConfig.sends,
    # which lists the frames in the order run_session returned them
    send_ms, _, _ = cfg.firmware.sends(cfg.firmware.session_ms(cfg.duration_s))
    data = memoryview(result.data)
    start = time.monotonic()
    sent = offset = 0
    with socket.create_connection((host, port)) as sock:
        for size, t_ms in zip(result.frames.sizes().tolist(), send_ms.tolist(), strict=True):
            due_s = t_ms / 1000.0 / args.speed
            delay = due_s - (time.monotonic() - start)
            if delay > 0:
                time.sleep(delay)
            sock.sendall(data[offset:offset + size])
            offset += size
            sent += 1
    print(f"streamed {sent} frames ({len(result.data)} bytes) to {host}:{port}")
    return EXIT_OK


def _stream_listen(args) -> int:
    host, port = _parse_endpoint(args.listen)
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as server:
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen(1)
        bound = server.getsockname()
        print(f"listening on {bound[0]}:{bound[1]}", file=sys.stderr, flush=True)
        conn, peer = server.accept()
    splitter, received = StreamSplitter(), 0  # frames are cut out as bytes arrive
    with conn, (open_output(args.out, "wb") if args.out else nullcontext()) as out:
        while chunk := conn.recv(65536):
            received += len(chunk)
            splitter.feed(chunk)
            if out is not None:
                out.write(chunk)
    splitter.finish()
    print(f"received {received} bytes from {peer[0]}:{peer[1]}: {splitter.frames_out} frames, "
          f"{splitter.resync_count} resyncs, {splitter.pending_bytes} pending bytes")
    if received and not splitter.frames_out:
        print("no decodable frames in input", file=sys.stderr)
        return EXIT_CORRUPT
    return EXIT_OK


def _frame_to_dict(frame) -> dict:
    return {
        "kind": frame.kind.name.lower(),
        "seq": frame.seq,
        "flags": frame.flags,
        "final_flush": frame.final_flush,
        "charging": frame.charging,
        **dataclasses.asdict(frame.payload),
    }


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fp:
        data = fp.read()
    frames, resyncs, pending = split_stream(data)
    with (open_output(args.out, "w", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as out:
        for frame in frames:
            out.write(json.dumps(_frame_to_dict(frame), sort_keys=True) + "\n")
    skipped = sum(ev.skipped for ev in resyncs)
    print(f"{len(frames)} frames, {len(resyncs)} resyncs "
          f"({skipped} bytes skipped), {pending} pending bytes",
          file=sys.stderr)
    if data and not frames:
        print("no decodable frames in input", file=sys.stderr)
        return EXIT_CORRUPT
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_session_config(args)
    with open(args.input, "rb") as fp:
        data = fp.read()
    frames, resyncs, pending = split_stream(data)
    if data and not frames:
        print("no decodable frames in input", file=sys.stderr)
        return EXIT_CORRUPT
    del data  # the frame table holds copies of all the analysis reads
    series = pipeline.extract_series(frames, cfg.device_model(), cfg.firmware)
    # a capture from another schedule is refused before any detector runs
    for kind, misplaced in series.misplaced_frames.items():
        if 2 * misplaced > series.frame_counts[kind]:
            raise ParameterError(
                f"{misplaced} of {series.frame_counts[kind]} {kind} frames are off the firmware "
                f"schedule; analyze with the --config the capture was made with")
    result = pipeline.analyze_session(series, cfg.analysis, firmware=cfg.firmware)
    summary = pipeline.summarize(result)
    if summary["battery_percent_mismatches"]:
        print(f"respsim: warning: device and host battery percent differ by more than "
              f"1 point on {summary['battery_percent_mismatches']} of "
              f"{summary['battery_reports']} readings; analyze with the --config the "
              f"capture was made with", file=sys.stderr)
    summary["resyncs"] = len(resyncs)
    summary["skipped_bytes"] = sum(ev.skipped for ev in resyncs)
    summary["pending_bytes"] = pending
    if args.out:
        rows = pipeline.export(result, args.out, args.format)
        summary["export"] = {"path": args.out, "format": args.format, "rows": rows}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_power(args) -> int:
    cfg = _load_session_config(args)
    # the config's profile sets the airtime that shapes the activity
    # schedule; --preset only picks which report headlines the table
    own_name, profile = cfg.power.preset, cfg.power_profile()
    # custom draws keep power.preset's default name; reporting them under
    # it would show the preset's published figure instead
    if cfg.power.p_idle_uw is not None and own_name in PRESETS:
        own_name = "custom"
    selected_name = args.preset or own_name

    timeline = schedule_timeline(cfg.firmware, profile.tx_ms_per_frame, cfg.duration_s)

    profiles = dict(PRESETS)
    profiles.setdefault(own_name, profile)
    reports = {
        name: accumulate(p, timeline, capacity_mah=cfg.battery.capacity_mah,
                         nominal_v=cfg.battery.nominal_v)
        for name, p in profiles.items()
    }
    selected = reports[selected_name]

    ms_by_state = selected.ms_by_state
    print(f"power audit over {selected.duration_s:.1f} s "
          f"(battery {cfg.battery.capacity_mah} mAh @ {cfg.battery.nominal_v} V)")
    print("activity: " + ", ".join(f"{k}={v} ms" for k, v in ms_by_state.items()))
    print()
    print(f"{'profile':<16} {'avg uW':>10} {'energy mWh':>12} {'battery life h':>15}")
    for name in sorted(reports):
        r = reports[name]
        marker = " *" if name == selected_name else ""
        print(f"{name:<16} {r.average_power_uw:>10.1f} {r.energy_mwh:>12.6f} "
              f"{r.projected_battery_life_h:>15.1f}{marker}")
    print()
    lo = PRESETS["abstract-claim"].p_active_uw
    hi = PRESETS["intro-claim"].p_active_uw
    life_lo = reports["intro-claim"].projected_battery_life_h
    life_hi = reports["abstract-claim"].projected_battery_life_h
    print(f"note: the device's two published power figures disagree by {hi / lo:g}x: "
          f"{lo:.0f} uW (abstract-claim) vs {hi:.0f} uW (intro-claim).")
    if selected.duration_s:
        print(f"      battery life spans {life_lo:.0f} h to {life_hi:.0f} h depending on "
              f"which figure you believe.")
    else:  # no time, no energy: neither figure bounds a life
        print("      no time was audited, so neither figure gives a battery life.")

    if args.out:
        # JSON has no infinity: a life with no draw to bound it is null
        lives = {name: r.projected_battery_life_h if math.isfinite(r.projected_battery_life_h)
                 else None for name, r in reports.items()}
        payload = {
            "duration_s": selected.duration_s,
            "ms_by_state": ms_by_state,
            "selected": selected_name,
            "reports": {
                name: {
                    "average_power_uw": r.average_power_uw,
                    "energy_mwh": r.energy_mwh,
                    "projected_battery_life_h": lives[name],
                }
                for name, r in reports.items()
            },
            "claims_disagreement": {
                "low_uw": lo, "high_uw": hi, "ratio": hi / lo,
                "battery_life_h_low": lives["intro-claim"],
                "battery_life_h_high": lives["abstract-claim"],
            },
        }
        with open_output(args.out, "w", encoding="utf-8") as fp:
            json.dump(payload, fp, indent=2, sort_keys=True, allow_nan=False)
            fp.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as e:
        print(f"respsim: config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"respsim: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"respsim: i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
