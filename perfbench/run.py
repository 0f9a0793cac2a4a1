"""respsim benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

Workloads are ``simulate``, ``analyze`` and ``power-audit`` (see README.md).
``--trace 0`` times the workload with nothing patched and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics.  The metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Times are reported in reference-host seconds (see :class:`HostClock`).
Everything runs in this one process except the set-up and memory probes,
which need a fresh interpreter.  Scratch files go under ``.bench_work/`` and
are removed on exit; the spans of a traced run are written under
``.bench_out/``.
"""

from __future__ import annotations

import os
import sys

# String hashing is randomised per interpreter, and the dict and set layouts
# that follow move run time by a few percent from one process to the next.
# Fix it, so that runs differ only in their seeded inputs.  The exec replaces
# this process; it starts no other.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

# One process, no extra threads: keep BLAS pools at one thread.  This must
# happen before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import logging
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
MIN_OPS = 3
KERNEL_REPEATS = 3   # kernel timings taken after each measurement
# Nominal time of the HostClock kernel; close to what it takes on the 2-vCPU
# x86-64 host the benchmark was written on, so reference-host seconds read
# close to wall seconds there.
CAL_REF_S = 0.05

UNVALIDATED = (
    "model: unvalidated. respsim has no reference measurements from real hardware; "
    "quality metrics score the host pipeline against the simulator's own analytic truth."
)


def load_respsim():
    """Import respsim from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "respsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no respsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import respsim
    if Path(respsim.__file__).resolve().parent != SRC / "respsim":
        sys.exit(f"perfbench: imported respsim from {respsim.__file__}, not {SRC}")


def environment() -> dict:
    import scipy
    return {
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


class HostClock:
    """Converts wall time into reference-host seconds.

    The benchmark runs on shared hosts whose speed drifts by a third or
    more over minutes.  A fixed kernel of interpreter and numpy work,
    independent of respsim, is timed before the first measurement and after
    each one.  Wall times are scaled by ``CAL_REF_S`` over the median of
    the run's kernel times, so they read as the time the work would take on
    a host that runs the kernel in ``CAL_REF_S``.  The median of the whole
    run, rather than the kernels next to each measurement, keeps a stray
    slow kernel from skewing one operation.  The kernel runs after a full
    collection with the collector off, so the garbage or live objects
    respsim leaves behind do not change its time, and a change to
    respsim's code shows in full.
    """

    def __init__(self) -> None:
        self._data = np.arange(20_000, dtype=np.float64)
        self.samples: list[float] = []
        self.sample()

    def _kernel(self) -> float:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            acc, table = 0, {}
            for i in range(180_000):
                acc += i * i
                table[i & 1023] = (acc, i)
            for _ in range(90):
                self._data.cumsum().sum()
            return time.perf_counter() - start
        finally:
            gc.enable()

    def sample(self) -> None:
        """Time the kernel; call after each measurement."""
        self.samples.extend(self._kernel() for _ in range(KERNEL_REPEATS))

    def scale(self) -> float:
        """Reference-host seconds per wall second, from the kernel times so far."""
        return CAL_REF_S / statistics.median(self.samples)


def probe(workload, clock: HostClock) -> tuple[float, float, list[str]]:
    """Set-up time (median of fresh interpreters) and one command's peak memory.

    The last probe also runs the workload's command once, apart from the
    timed operations, and reports how far it raised the peak resident set.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setups, results = [], []
    for i in range(SETUP_RUNS):
        argv = workload.argv() if i == SETUP_RUNS - 1 else []
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), str(workload.config),
                              *argv], env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=150, check=True)
        results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        clock.sample()
    last = results[-1]
    problems = [] if last["exit_code"] == 0 else [f"probe: exit code {last['exit_code']}"]
    setups = [r["setup_s"] for r in results]
    print("  set-up s, raw: " + " ".join(f"{t:.3f}" for t in setups))
    return statistics.median(setups) * clock.scale(), last["peak_mem_mb"], problems


def run_op(argv: list[str]) -> tuple[int, float, str]:
    """One closed-loop operation: the respsim command, timed input to result."""
    from respsim import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return code, wall, out.getvalue()


class Run:
    """Tallies operations and their problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: FAILED {p}", file=sys.stderr)


def layer_metrics(op, tracer_mod, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced operation; ``scale`` converts its times."""
    m = {f"{name}.s": op.self_s.get(name, 0.0) * scale for name in tracer_mod.TARGET_NAMES}
    m.update({name: op.counts.get(name, 0) for name in tracer_mod.COUNT_NAMES})
    for layer in ("config", "sensor", "session", "firmware", "protocol", "power",
                  "pipeline", "cli"):
        m[f"{layer}.self_s"] = sum(m[f"{n}.s"] for n in tracer_mod.TARGET_NAMES
                                   if n.startswith(layer + "."))
    ticks = m["firmware.ticks"]
    m["firmware.run.us_per_tick"] = m["firmware.run.s"] / ticks * 1e6 if ticks else 0.0
    samples = op.calls.get("sensor.fsr_resistance", 0)
    chain = sum(m[f"sensor.{fn}.s"] for fn in ("fsr_resistance", "divider_voltage",
                                               "adc_quantize"))
    m["sensor.fsr_chain.us_per_sample"] = chain / samples * 1e6 if samples else 0.0
    split_s = m["protocol.split_stream.s"]
    m["protocol.split_stream.mb_per_s"] = (
        m["protocol.bytes_in"] / split_s / 1e6 if split_s else 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_respsim()
    sys.path.insert(0, str(HERE))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    # The CLI configures logging on its first call; format its warnings (apnea
    # alerts) as it would, but into memory instead of the benchmark's stderr.
    logging.basicConfig(level=logging.WARNING, format="%(name)s: %(message)s",
                        stream=io.StringIO())
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        env = environment()
        print("env: " + json.dumps(env, sort_keys=True))
        print(UNVALIDATED)
        workload = workloads.WORKLOADS[args.workload](seed, work)
        workload.prepare()
        description = workload.describe()
        if description:
            print(description)
        run = Run()
        clock = HostClock()
        if args.trace:
            metrics, trace_doc = traced_run(workload, args.seconds, run, clock, tracer)
            trace_doc.update(env=env, workload=args.workload, seed=seed)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"trace-{args.workload}-seed{seed}.json").write_text(
                json.dumps(trace_doc) + "\n")
            wanted = spec["per_layer"]
        else:
            metrics = timed_run(workload, args.seconds, run, clock)
            wanted = spec["end_to_end"]
        for name, check in workload.extra_checks(bool(args.trace)):
            start = time.perf_counter()
            problems = check()
            elapsed = time.perf_counter() - start
            clock.sample()
            run.record(problems)
            if name:
                metrics[name] = elapsed * clock.scale()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {}
    for m in wanted:
        value = metrics[m["name"]]
        print(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    print(f"  operations: {run.attempted} attempted, {run.failed} failed")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0 if run.failed == 0 else 1


def timed_run(workload, seconds: float, run: Run, clock: HostClock) -> dict[str, float]:
    """End-to-end metrics: set-up and memory probes, then the timed loop.

    Throughput is simulated time over the median reference-host time of an
    operation.
    """
    setup_s, peak_mem_mb, problems = probe(workload, clock)
    run.record(problems)
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_OPS or time.perf_counter() < deadline:
        code, wall, stdout = run_op(workload.argv())
        clock.sample()
        walls.append(wall)
        run.record(workload.check(code, stdout))
    op_s = statistics.median(walls) * clock.scale()
    print(f"  {len(walls)} timed operations, raw wall s: min {min(walls):.3f} "
          f"median {statistics.median(walls):.3f} max {max(walls):.3f}; "
          f"reference-host s per operation: {op_s:.3f}")
    return {
        "sim_s_per_s": workload.sim_seconds / op_s,
        "setup_s": setup_s,
        "peak_mem_mb": peak_mem_mb,
    }


def traced_run(workload, seconds: float, run: Run, clock: HostClock,
               tracer_mod) -> tuple[dict, dict]:
    """Per-layer metrics from traced operations, alternated with untraced ones."""
    tracer = tracer_mod.Tracer()
    plain, traced, ops = [], [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < MIN_OPS or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            code, wall, stdout = run_op(workload.argv())
            plain.append(wall)
        else:
            ops.append(tracer.begin())
            with tracer:
                code, wall, stdout = run_op(workload.argv())
            traced.append(wall)
        clock.sample()
        run.record(workload.check(code, stdout))

    scale = clock.scale()
    plain, traced = [t * scale for t in plain], [t * scale for t in traced]
    per_op = [layer_metrics(op, tracer_mod, scale) for op in ops]
    counts = [{k: m[k] for k in tracer_mod.COUNT_NAMES} for m in per_op]
    run.record([] if all(c == counts[0] for c in counts)
               else ["traced operations disagree on simulated counts"])
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    untraced, with_trace = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_s"] = with_trace - untraced
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - untraced) / untraced
    # Only the analyze workload scores its output and feeds bytes in chunks;
    # elsewhere these layers do not run and read 0.
    metrics.update({"pipeline.breath_sensitivity": 0.0, "pipeline.breath_ppv": 0.0,
                    "pipeline.rate_err_bpm": 0.0, "pipeline.false_apnea_alerts": 0,
                    "protocol.frames_recovered": 0.0, "protocol.false_frames": 0,
                    "protocol.feed_chunked.s": 0.0})
    metrics.update(workload.quality())
    print(f"  {len(plain)} untraced / {len(traced)} traced operations, "
          f"median reference-host s {untraced:.3f} / {with_trace:.3f}")
    doc = {
        "span_fields": ["id", "parent", "op", "name", "start_s", "end_s"],
        "spans": tracer.spans,
        "ops": per_op,
        "untraced_s": plain,
        "traced_s": traced,
        "load": workload.load,
    }
    return metrics, doc


if __name__ == "__main__":
    sys.exit(main())
