"""Score an ``analyze`` export against the capture's ``.truth.json`` sidecar.

The truth is the simulator's own: analytic breath instants and the
scheduled breathing rates, plus the load generator's log of what it did to
the link.  No reference measurements from real hardware exist, so these
scores say how well the host pipeline recovers the simulated signal, not
how well the model matches a real strap.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path

from respsim.protocol import encode

MATCH_TOLERANCE_MS = 500.0


def match_breaths(truth_ms: list[float], detected_ms: list[int],
                  tolerance_ms: float = MATCH_TOLERANCE_MS) -> int:
    """Count one-to-one matches, in time order, within the tolerance."""
    matched, j = 0, 0
    for t in truth_ms:
        while j < len(detected_ms) and detected_ms[j] < t - tolerance_ms:
            j += 1
        if j < len(detected_ms) and detected_ms[j] <= t + tolerance_ms:
            matched += 1
            j += 1
    return matched


def scheduled_rate(breathing: list[dict], start_ms: float, end_ms: float) -> float:
    """Time-weighted mean of the scheduled breathing rate over a window."""
    total = 0.0
    for i, seg in enumerate(breathing):
        lo = seg["start_s"] * 1000.0
        hi = breathing[i + 1]["start_s"] * 1000.0 if i + 1 < len(breathing) else end_ms
        overlap = min(hi, end_ms) - max(lo, start_ms)
        if overlap > 0:
            total += seg["rate_bpm"] * overlap
    return total / (end_ms - start_ms)


def score(truth_file: str, csv_file: Path, sent_frames: list, recovered_frames: list) -> dict:
    """Quality metrics of one analysis; see README.md for their definitions."""
    truth = json.loads(Path(truth_file).read_text())
    breaths, rate_errors, alerts = [], [], 0
    breathing = truth["config"]["scenario"]["breathing"]
    with open(csv_file, newline="", encoding="utf-8") as fp:
        for row in csv.DictReader(fp):
            record = row["record"]
            if record == "breath":
                breaths.append(int(row["t_ms"]))
            elif record == "estimate":
                lo, hi = int(row["t_ms"]), int(row["end_ms"])
                rate_errors.append(abs(float(row["rate_bpm"]) - scheduled_rate(breathing, lo, hi)))
            elif record == "alert":
                alerts += 1
    truth_ms = truth["breath_times_ms"]
    matched = match_breaths(truth_ms, sorted(breaths))
    sent = {encode(f) for f in sent_frames}
    intact = sum(1 for f in recovered_frames if encode(f) in sent)
    return {
        "pipeline.breath_sensitivity": matched / len(truth_ms),
        "pipeline.breath_ppv": matched / len(breaths) if breaths else 0.0,
        "pipeline.rate_err_bpm": statistics.median(rate_errors) if rate_errors else 0.0,
        "pipeline.false_apnea_alerts": alerts,
        "protocol.frames_recovered": intact / len(sent_frames),
        "protocol.false_frames": len(recovered_frames) - intact,
    }
