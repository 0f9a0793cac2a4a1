"""The benchmark's workloads: seeded inputs, the command each runs, and its checks.

Every workload is a closed-loop batch job: the benchmark runs one
``respsim`` command in process through ``respsim.cli.main``, waits for it to
finish, checks what it wrote, and only then starts the next.  Inputs come
from the workload seed alone; the program sees only the files written here.

A workload's first operation is its reference: every later operation in the
same run must write byte-identical outputs (the determinism contract), and
at :data:`DEFAULT_SEED` the reference itself must match the digests pinned
in ``golden/digests.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from respsim import cli
from respsim.config import from_dict
from respsim.firmware import ArrayStimulus, FirmwareEmulator, encode_session
from respsim.protocol import FrameKind, StreamSplitter, encode, split_stream
from respsim.sensor import ForceSample
from respsim.session import synthesize_accel, synthesize_force, true_breath_times_ms, truth_path

import score

DEFAULT_SEED = 1
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Every workload covers 600 s of session, the shorter of the two lengths
# ROADMAP's benchmark plan names; README.md says what that leaves out.
SESSION_S = 600

# Load generator for the analyze capture.  No real captures exist to take
# rates from, so each figure is a choice, anchored where noted.
TUGS = 3                        # the count a first prototype tried (over 1800 s)
TUG_FORCE_N = (110.0, 250.0)    # above k / r_min = 100 N, so a tug pins the FSR at r_min
TUG_MS = (400, 1200)            # around the 1 s tug of ROADMAP defect 4(a)
CORRUPT_FRAME_SHARE = 0.01      # ROADMAP's "1 % corrupted" capture, read as 1 % of frames
CHUNK_BYTES = 20                # one default-MTU BLE notification


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden() -> dict:
    return json.loads((GOLDEN_DIR / "digests.json").read_text())


def write_config(path: Path, data: dict) -> Path:
    # JSON is valid YAML, and load_config accepts both
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return path


def scripted_scenario(rng: np.random.Generator, duration_s: int) -> dict:
    """Piecewise breathing rates, four short walking bouts, one posture shift.

    Walking bouts last at most 20 s and the slowest rate is 8 bpm, so no
    stretch without clean breaths reaches the 30 s apnea timeout: the
    scenario has no true apnea.
    """
    cuts = sorted(int(c) for c in rng.choice(np.arange(60, duration_s - 60, 10), 3,
                                             replace=False))
    rates = [round(float(r), 1) for r in rng.uniform(8.0, 24.0, 4)]
    breathing = [{"start_s": s, "rate_bpm": r} for s, r in zip([0] + cuts, rates)]
    slot = duration_s / 6
    posture = [{"start_s": 0, "posture": "still"}]
    for k, kind in enumerate(rng.permutation(["walking"] * 4 + ["shift"]), start=1):
        length = int(slot // 2) if kind == "shift" else int(rng.integers(5, 21))
        start = int(k * slot + rng.uniform(5, slot - length - 5))
        posture += [{"start_s": start, "posture": str(kind)},
                    {"start_s": start + length, "posture": "still"}]
    return {
        "breathing": breathing,
        "posture": posture,
        "noise_sd_n": round(float(rng.uniform(0.05, 0.2)), 3),
    }


class Workload:
    """Base: subclasses set ``name``/``sim_seconds`` and write inputs in ``prepare``."""

    name = ""
    sim_seconds = 0.0   # simulated or captured seconds one operation covers
    load: dict | None = None   # what the load generator did to the input, if anything

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        # one random stream per (seed, workload)
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.reference: dict[str, str] | None = None

    def prepare(self) -> None:
        raise NotImplementedError

    def argv(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> dict[str, Path]:
        raise NotImplementedError

    def check_reference(self, stdout: str) -> list[str]:
        """Checks made once, on the first operation's outputs."""
        return []

    def check(self, code: int, stdout: str) -> list[str]:
        """Problems with one operation's outputs; empty when it is correct."""
        if code != cli.EXIT_OK:
            return [f"{self.name}: exit code {code}"]
        digests = {key: sha256(path) for key, path in self.outputs().items()}
        if self.reference is None:
            self.reference = digests
            problems = self.check_reference(stdout)
            pinned = golden()["workloads"].get(self.name)
            if self.seed == DEFAULT_SEED and digests != pinned:
                problems.append(f"{self.name}: outputs differ from the pinned digests")
            return problems
        if digests != self.reference:
            return [f"{self.name}: rerun wrote different bytes"]
        return []

    def extra_checks(self, trace: bool) -> list[tuple[str, object]]:
        """Operations beyond the timed command: (metric name or "", callable)."""
        return []

    def quality(self) -> dict[str, float]:
        return {}

    def describe(self) -> str:
        return ""


class Simulate(Workload):
    """``respsim simulate`` on a long scripted session."""

    name = "simulate"
    sim_seconds = float(SESSION_S)

    def prepare(self) -> None:
        self.config = write_config(self.work / "simulate.json", {
            "duration_s": SESSION_S,
            "seed": self.seed,
            "scenario": scripted_scenario(self.rng, SESSION_S),
        })
        self.capture = self.work / "simulate.bin"

    def argv(self) -> list[str]:
        return ["simulate", "--config", str(self.config), "--out", str(self.capture)]

    def outputs(self) -> dict[str, Path]:
        return {"capture": self.capture, "truth": Path(truth_path(str(self.capture)))}

    def check_reference(self, stdout: str) -> list[str]:
        return clean_round_trip(self.capture)

    def extra_checks(self, trace: bool) -> list[tuple[str, object]]:
        if trace:
            return []
        return [("", lambda name=name: check_golden_config(name, self.work))
                for name in sorted(golden()["configs"])]


def clean_round_trip(capture: Path) -> list[str]:
    """A clean capture splits back into exactly the frames the device emitted."""
    data = capture.read_bytes()
    truth = json.loads(Path(truth_path(str(capture))).read_text())
    frames, resyncs, pending = split_stream(data)
    problems = []
    if resyncs or pending:
        problems.append(f"clean capture: {len(resyncs)} resyncs, {pending} pending bytes")
    if encode_session(frames) != data:
        problems.append("clean capture: re-encoded frames differ from the capture")
    if (len(frames), len(data)) != (truth["counts"]["frames"], truth["counts"]["bytes"]):
        problems.append("clean capture: frame or byte count differs from the truth sidecar")
    return problems


def check_golden_config(name: str, work: Path) -> list[str]:
    """Simulate a pinned config and compare capture and sidecar digests."""
    capture = work / f"golden-{name}.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(GOLDEN_DIR / f"{name}.yaml"),
                         "--out", str(capture)])
    if code != cli.EXIT_OK:
        return [f"golden {name}: exit code {code}"]
    digests = {"capture": sha256(capture), "truth": sha256(Path(truth_path(str(capture))))}
    if digests != golden()["configs"][name]:
        return [f"golden {name}: digests differ from the pinned ones"]
    return []


class Analyze(Workload):
    """``respsim analyze --out CSV`` over a damaged capture with strap tugs."""

    name = "analyze"
    sim_seconds = float(SESSION_S)

    def prepare(self) -> None:
        cfg_dict = {
            "duration_s": SESSION_S,
            "seed": self.seed,
            "scenario": scripted_scenario(self.rng, SESSION_S),
        }
        self.config = write_config(self.work / "analyze.json", cfg_dict)
        cfg = from_dict(cfg_dict)
        force = synthesize_force(cfg)
        tugs = self._tug(force)
        emulator = FirmwareEmulator(
            config=cfg.firmware,
            model=cfg.device_model(),
            power_profile=cfg.power_profile(),
            initial_soc=cfg.battery.initial_soc,
            charging=cfg.battery.charging,
        )
        self.sent = emulator.run(ArrayStimulus(force, synthesize_accel(cfg)), cfg.duration_s)
        clean = encode_session(self.sent)
        self.damaged, self.load = self._damage(clean)
        self.load["tugs"] = tugs
        self.capture = self.work / "analyze.bin"
        self.capture.write_bytes(self.damaged)
        truth = {
            "config": cfg_dict,
            "duration_s": SESSION_S,
            "seed": self.seed,
            "breath_times_ms": true_breath_times_ms(cfg.scenario, cfg.duration_s),
            "load": self.load,
        }
        Path(truth_path(str(self.capture))).write_text(
            json.dumps(truth, indent=1, sort_keys=True) + "\n")
        self.split = split_stream(self.damaged)
        self.csv = self.work / "analyze.csv"

    def _tug(self, force: list[ForceSample]) -> list[dict]:
        """Pin the FSR at r_min for a moment in each third of the session."""
        period_ms = force[1].t_ms - force[0].t_ms
        tugs = []
        third = len(force) // TUGS
        for k in range(TUGS):
            width = int(self.rng.integers(TUG_MS[0], TUG_MS[1] + 1)) // period_ms
            first = k * third + int(self.rng.integers(0, third - width))
            newtons = round(float(self.rng.uniform(*TUG_FORCE_N)), 1)
            for i in range(first, first + width):
                force[i] = ForceSample(force[i].t_ms, force[i].force_n + newtons)
            tugs.append({"start_ms": force[first].t_ms, "duration_ms": width * period_ms,
                         "force_n": newtons})
        return tugs

    def _damage(self, clean: bytes) -> tuple[bytes, dict]:
        """Damage 1 % of the sent frames: alternately a bit flip or a dropped span.

        Each damage stays inside one frame, so exactly ``frames_touched``
        frames are damaged.  Returns the bytes and a log of what was done.
        """
        sizes = [len(encode(f)) for f in self.sent]
        starts = np.cumsum([0] + sizes[:-1])
        hit = self.rng.choice(len(sizes), math.ceil(len(sizes) * CORRUPT_FRAME_SHARE),
                              replace=False)
        buf = np.frombuffer(clean, dtype=np.uint8).copy()
        keep = np.ones(len(clean), dtype=bool)
        flips, drops = [], []
        for k, frame in enumerate(hit):
            start, size = int(starts[frame]), sizes[frame]
            if k % 2 == 0:
                offset = start + int(self.rng.integers(0, size))
                bit = int(self.rng.integers(0, 8))
                buf[offset] ^= 1 << bit
                flips.append([offset, bit])
            else:
                length = int(self.rng.integers(1, size + 1))
                first = start + int(self.rng.integers(0, size - length + 1))
                keep[first:first + length] = False
                drops.append([first, length])
        return bytes(buf[keep]), {
            "bit_flips": sorted(flips),
            "dropped_spans": sorted(drops),
            "bytes_sent": len(clean),
            "bytes_received": int(keep.sum()),
            "frames_sent": len(sizes),
            "frames_touched": len(hit),
        }

    def describe(self) -> str:
        load = self.load
        return (f"load: {len(load['tugs'])} tugs, {len(load['bit_flips'])} bit flips, "
                f"{len(load['dropped_spans'])} dropped spans "
                f"({load['bytes_sent'] - load['bytes_received']} bytes); "
                f"{load['frames_touched']} of {load['frames_sent']} frames sent were damaged")

    def argv(self) -> list[str]:
        return ["analyze", "--config", str(self.config), str(self.capture),
                "--out", str(self.csv)]

    def outputs(self) -> dict[str, Path]:
        return {"csv": self.csv}

    def check_reference(self, stdout: str) -> list[str]:
        """The summary agrees with an independent split of the same bytes."""
        summary = json.loads(stdout)
        frames, resyncs, pending = self.split
        kinds = {k.name.lower(): 0 for k in FrameKind}
        for f in frames:
            kinds[f.kind.name.lower()] += 1
        fsr = sum(len(f.payload.codes) for f in frames if f.kind == FrameKind.FSR_BATCH)
        accel = sum(len(f.payload.samples) for f in frames if f.kind == FrameKind.ACCEL_BATCH)
        with open(self.csv, newline="", encoding="utf-8") as fp:
            rows = sum(1 for _ in csv.DictReader(fp))
        expected = {
            "frames": kinds, "resyncs": len(resyncs), "pending_bytes": pending,
            "skipped_bytes": sum(ev.skipped for ev in resyncs),
            "fsr_samples": fsr, "accel_samples": accel,
        }
        got = {key: summary.get(key) for key in expected}
        problems = []
        if got != expected:
            problems.append(f"analyze: summary {got} differs from the split {expected}")
        if summary.get("export", {}).get("rows") != rows:
            problems.append("analyze: exported row count differs from the CSV")
        return problems

    def extra_checks(self, trace: bool) -> list[tuple[str, object]]:
        return [("protocol.feed_chunked.s", self.check_chunked)] if trace else []

    def check_chunked(self) -> list[str]:
        """Feeding the bytes in small chunks gives exactly the one-shot result."""
        splitter = StreamSplitter()
        frames = []
        for i in range(0, len(self.damaged), CHUNK_BYTES):
            frames.extend(splitter.feed(self.damaged[i:i + CHUNK_BYTES]))
        if (frames, splitter.resyncs, splitter.pending_bytes) != self.split:
            return [f"analyze: {CHUNK_BYTES}-byte chunks split differently from one shot"]
        return []

    def quality(self) -> dict[str, float]:
        return score.score(truth_path(str(self.capture)), self.csv, self.sent, self.split[0])


class PowerAudit(Workload):
    """``respsim power --out JSON`` with a non-default schedule and a 3-level profile."""

    name = "power-audit"
    sim_seconds = float(SESSION_S)

    def prepare(self) -> None:
        r = self.rng
        # Active and radio bracket the paper's two whole-device figures
        # (400 and 4900 uW, power.PRESETS); idle, a decade below active,
        # and the schedule are choices, not measurements.
        self.profile = {
            "p_idle_uw": round(float(r.uniform(20.0, 60.0)), 2),
            "p_active_uw": round(float(r.uniform(300.0, 900.0)), 2),
            "p_radio_uw": round(float(r.uniform(3000.0, 9000.0)), 2),
        }
        self.config = write_config(self.work / "power.json", {
            "duration_s": SESSION_S,
            "seed": self.seed,
            "firmware": {"fsr_batch": 8, "accel_batch": 16, "battery_period_ms": 5000},
            "battery": {"initial_soc": round(float(r.uniform(0.6, 1.0)), 3)},
            "power": {"preset": "three-level", "tx_ms_per_frame": 3, **self.profile},
        })
        self.audit = self.work / "power.json.out"

    def argv(self) -> list[str]:
        return ["power", "--config", str(self.config), "--out", str(self.audit)]

    def outputs(self) -> dict[str, Path]:
        return {"audit": self.audit}

    def check_reference(self, stdout: str) -> list[str]:
        """The selected report's energy equals the profile times time in each state."""
        audit = json.loads(self.audit.read_text())
        ms = audit["ms_by_state"]
        problems = []
        if audit["selected"] != "three-level" or sum(ms.values()) != SESSION_S * 1000:
            problems.append("power-audit: wrong profile selected or timeline length")
        expected = sum(self.profile[f"p_{state}_uw"] * ms[state] for state in ms) / 3.6e9
        got = audit["reports"]["three-level"]["energy_mwh"]
        if not math.isclose(got, expected, rel_tol=1e-9):
            problems.append(f"power-audit: energy {got} mWh, expected {expected} mWh")
        return problems


WORKLOADS = {w.name: w for w in (Simulate, Analyze, PowerAudit)}
