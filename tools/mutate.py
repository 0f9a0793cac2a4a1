"""Mutation check of the tier-1 tests: does some test fail when src/ is wrong?

Usage, from the root of a checkout:

    python3 tools/mutate.py                 # every mutant
    python3 tools/mutate.py NAME [NAME...]  # only these
    python3 tools/mutate.py --list          # the table, nothing run

Each mutant in ``MUTANTS`` is one small edit of a file under ``src/``: its
old text, which must occur exactly once in the file, is replaced by its new
text.  Per mutant the checkout is copied to a fresh scratch directory (under
``--work``, a temporary directory by default), the edit is made there, and
tier-1 runs in the copy with ``pytest -x``, less ``tests/test_mutate.py``:
that test checks this table against ``src/``, which every mutant's edit
fails.  A mutant is *killed* when a test fails and *survives* when every
test passes.  One line is printed per
mutant, then the counts.  The standard library is all this needs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".bench_work", ".bench_out")

P, PL, FW, CLI, SES = ("src/respsim/protocol.py", "src/respsim/pipeline.py",
                       "src/respsim/firmware.py", "src/respsim/cli.py", "src/respsim/session.py")

# (name, file, old text, new text)
MUTANTS = [
    # boundaries the docstrings state
    ("apnea-gap-at-timeout", PL,
     "(gap - np.diff(mask.masked_ms(marks)) > timeout_ms)",
     "(gap - np.diff(mask.masked_ms(marks)) >= timeout_ms)"),
    ("artifact-run-at-minimum", PL,
     "keep = end_t - start_t >= min_duration_ms",
     "keep = end_t - start_t > min_duration_ms"),
    ("device-percent-round-half-even", FW,
     "return _round_half_up(min(max(pct, 0.0), 100.0))",
     "return round(min(max(pct, 0.0), 100.0))"),
    ("endpoint-port-65535", CLI,
     "int(port) <= 0xFFFF",
     "int(port) < 0xFFFF"),
    ("finish-scan-from-offset-2", P,
     "    pos = buf.find(MAGIC, pos + 1)\n    while pos >= 0:\n        if _verdict(",
     "    pos = buf.find(MAGIC, pos + 2)\n    while pos >= 0:\n        if _verdict("),
    ("breath-peak-on-segment-start", SES,
     "if t >= start - 1e-9:",
     "if t > start:"),
    # equivalent mutants: no test can tell them apart
    ("masked-ms-left-side", PL,
     "(ends - starts)  # masked time before each start\n"
     "        i = np.searchsorted(starts, t, side=\"right\") - 1",
     "(ends - starts)  # masked time before each start\n"
     "        i = np.searchsorted(starts, t, side=\"left\") - 1"),
    ("seq-gap-half-range", PL,
     "+ 0x8000) % 0x10000 - 0x8000",
     "+ 0x7FFF) % 0x10000 - 0x7FFF"),
    # the rest of the first table
    ("force-rail-off-by-one", PL,
     "resolved = (code > 0) & (code < adc.full_scale)",
     "resolved = (code > 0) & (code < adc.full_scale - 1)"),
    ("batch-rows-dedup-gate", PL,
     "if (t[1:] > t[:-1]).all():",
     "if (t[1:] >= t[:-1]).all():"),
    ("airtime-rounded-down", FW,
     "radio = min(-(-tx // tick), k + 1 - pos)",
     "radio = min(tx // tick, k + 1 - pos)"),
    ("session-length-cap", FW,
     "if total_ms > MAX_SESSION_MS:",
     "if total_ms >= MAX_SESSION_MS:"),
    ("battery-percent-101-encodes", P,
     "if payload.percent > 100:",
     "if payload.percent > 101:"),
    ("moving-average-window", PL,
     "hi = np.minimum(np.arange(n) + half + 1, n)",
     "hi = np.minimum(np.arange(n) + half, n)"),
    ("peak-height-strict", PL,
     "peaks = peaks[x[peaks] >= height]",
     "peaks = peaks[x[peaks] > height]"),
    ("resync-runs-never-join", P,
     "if last is not None and last.offset + last.skipped == offset:",
     "if last is not None and last.offset + last.skipped == offset + 1:"),
    # the column-wise validity pass and the frame table
    ("scan-no-version-test", P,
     "c = c[b[at[c] + 1] == VERSION]",
     "c = c[b[at[c] + 1] >= 0]"),
    ("scan-count-zero-fits", P,
     "fits[batch] = (count >= 1) &",
     "fits[batch] = (count >= 0) &"),
    ("scan-fsr-code-below-max", P,
     "ok[fsr] &= (codes <= MAX_CODE).all(axis=1)",
     "ok[fsr] &= (codes < MAX_CODE).all(axis=1)"),
    ("scan-battery-code-below-max", P,
     "ok[battery] &= (adc_code <= MAX_CODE)",
     "ok[battery] &= (adc_code < MAX_CODE)"),
    ("scan-percent-below-100", P,
     "(payload[battery, 6] <= 100)",
     "(payload[battery, 6] < 100)"),
    ("scan-crc-columns-from-magic", P,
     "np.ascontiguousarray(rows.T)[1:frame_len - 1]",
     "np.ascontiguousarray(rows.T)[0:frame_len - 1]"),
    ("scan-crc-columns-past-crc", P,
     "np.ascontiguousarray(rows.T)[1:frame_len - 1]",
     "np.ascontiguousarray(rows.T)[1:frame_len]"),
    ("scan-held-at-exact-end", P,
     "held = at + size > n",
     "held = at + size >= n"),
    ("table-count-byte", P,
     "count[batch] = b[at[batch] + HEADER_LEN + 4]",
     "count[batch] = b[at[batch] + HEADER_LEN + 3]"),
    ("feed-waits-one-byte-more", P,
     "if len(self._buf) < self._held_len:",
     "if len(self._buf) <= self._held_len:"),
    # the schedule check on received frames
    ("slot-tie-lower-kind-or-same", FW,
     "(send_ms + (k < kind) + p - 1)",
     "(send_ms + (k <= kind) + p - 1)"),
    ("schedule-flush-exemption-dropped", FW,
     "& (flush | (seq == slot % 2 ** 16))",
     "& (seq == slot % 2 ** 16)"),
    ("schedule-count-rule-dropped", FW,
     "(t_ms % (period * batch) == 0) & ((count == batch) | flush & (count < batch))",
     "(t_ms % (period * batch) == 0)"),
    ("schedule-grid-is-the-period", FW,
     "(t_ms % (period * batch) == 0)",
     "(t_ms % period == 0)"),
    # the send order and the activity it implies
    ("sends-flush-test-dropped", FW,
     "            if samples % batch:\n",
     "            if True:\n"),
    ("sends-in-channel-order", FW,
     "at = self.slot(k, t)",
     "at = sum(len(f) for _, f, _ in whole[:k - 1]) + np.arange(len(t))"),
    ("sends-flush-first-sample", FW,
     "flush.append((kind, samples - samples % batch))",
     "flush.append((kind, samples - batch))"),
    ("activity-flush-adds-airtime", FW,
     "sent = send_ms[send_ms < total_ms]",
     "sent = send_ms[send_ms <= total_ms]"),
    ("activity-first-run-at-0-dropped", FW,
     "np.diff(sent, prepend=-1)",
     "np.diff(sent, prepend=0)"),
    # the frame table run() builds and the column writer of encode_session
    ("run-seq-unwrapped", FW,
     "np.arange(kind.size).astype(np.uint16)",
     "np.arange(kind.size)"),
    ("run-final-flush-flag-on-every-frame", FW,
     "flags[send_ms == total_ms] |= protocol.FLAG_FINAL_FLUSH",
     "flags |= protocol.FLAG_FINAL_FLUSH"),
    ("write-crc-from-kind-byte", P,
     "for column in columns[1:-1]:  # version .. payload",
     "for column in columns[2:-1]:  # version .. payload"),
    ("write-percent-101-encodes", P,
     "FrameKind.BATTERY_STATUS: ((0, 0), (MAX_CODE, 100))}",
     "FrameKind.BATTERY_STATUS: ((0, 0), (MAX_CODE, 101))}"),
    ("write-fsr-code-past-max-encodes", P,
     "_BOUNDS = {FrameKind.FSR_BATCH: (0, MAX_CODE),",
     "_BOUNDS = {FrameKind.FSR_BATCH: (0, MAX_CODE + 1),"),
    ("write-zero-count-encodes", P,
     "& (table.count >= 1)",
     "& (table.count >= 0)"),
    ("from-frames-takes-floats", P,
     "np.fromiter(map(index, head), dtype=np.int64,",
     "np.fromiter(head, dtype=np.int64,"),
    # the byte-column export writer
    ("export-near-tie-fallback-dropped", PL,
     "exact &= np.abs(y - np.floor(y) - 0.5) > np.abs(y) * 2.0 ** -52",
     "exact &= np.abs(y) >= 0"),
    ("export-json-strip-keeps-no-digit", PL,
     "_blank_zero_run(fraction[:0:-1])",
     "_blank_zero_run(fraction[::-1])"),
    ("export-stamp-hours-to-100", PL,
     "(t_ms < 100 * _HOUR_MS)",
     "(t_ms < 101 * _HOUR_MS)"),
    ("export-stamp-before-0-inside", PL,
     "inside = (t_ms >= 0) &",
     "inside = (t_ms >= -1000) &"),
    ("export-int-sign-dropped", PL,
     "return np.concatenate([_sign(negative), digits]) if negative.any() else digits",
     "return digits"),
    ("export-nonfinite-fallback-dropped", PL,
     "exact = np.abs(x) < 1e9",
     "exact = (np.abs(x) < 1e9) | np.isinf(x)"),
    ("export-json-exponent-fallback-dropped", PL,
     "exact &= (r == 0) | (np.abs(r) >= 10.0 ** (digits - 4))",
     "exact &= (r == 0) | (np.abs(r) >= 0)"),
    # the lines derived from the one record table
    ("export-json-keys-unsorted", PL,
     "for i, key in enumerate(sorted(fields)):",
     "for i, key in enumerate(fields):"),
    ("export-json-nan-key-kept", PL,
     "np.isnan(rows[column]), name, b\"\")",
     "np.isnan(rows[column]), name, name)"),
    ("export-csv-columns-out-of-order", PL,
     "for i, column in enumerate(CSV_COLUMNS):",
     "for i, column in enumerate(sorted(CSV_COLUMNS)):"),
    # the schedule check before detection, and the strict audit JSON
    ("analyze-detects-before-schedule-check", CLI,
     "series = pipeline.extract_series(frames, cfg.device_model(), cfg.firmware)",
     "series = pipeline.analyze_session(frames, firmware=cfg.firmware).series"),
    ("power-json-life-infinity", CLI,
     "r.projected_battery_life_h if math.isfinite(r.projected_battery_life_h)",
     "r.projected_battery_life_h if True"),
]


def check_table() -> None:
    """Every old text occurs exactly once in its file; names are distinct."""
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names), "mutant names must be distinct"
    for name, path, old, new in MUTANTS:
        found = (ROOT / path).read_text(encoding="utf-8").count(old)
        assert found == 1, f"{name}: old text occurs {found} times in {path}"
        assert old != new, f"{name}: old and new text are the same"


def run(name: str, path: str, old: str, new: str, work: Path) -> tuple[str, float]:
    """Copy the checkout, apply one mutant, run tier-1; 'killed', 'survived' or 'error'."""
    copy = work / name
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    try:
        target = copy / path
        target.write_text(target.read_text(encoding="utf-8").replace(old, new, 1),
                          encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore", "tests/test_mutate.py"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    # pytest exits 0 when every test passes and 1 when some test failed
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})"), elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print the table and stop")
    parser.add_argument("--work", type=Path, default=None,
                        help="scratch directory for the copies (default: a temporary one)")
    args = parser.parse_args(argv)

    check_table()
    unknown = set(args.names) - {name for name, *_ in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    if args.list:
        for name, path, old, new in chosen:
            print(f"{name}: {path}: {old!r} -> {new!r}")
        return 0

    work = Path(tempfile.mkdtemp(prefix="mutate-", dir=args.work))
    tally: dict[str, int] = {}
    try:
        for name, path, old, new in chosen:
            outcome, elapsed = run(name, path, old, new, work)
            tally[outcome] = tally.get(outcome, 0) + 1
            print(f"{outcome:<9} {name} ({elapsed:.0f} s)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(", ".join(f"{n} {outcome}" for outcome, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
