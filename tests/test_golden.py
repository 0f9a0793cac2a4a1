"""Golden digests: pinned configs must keep producing the same bytes.

The determinism tests elsewhere compare one run with a rerun, so a change
that altered the output consistently would pass them.  These compare the
capture and its truth sidecar with the sha256 digests pinned in
``perfbench/golden/digests.json``, which the benchmark checks as well,
and pin the bytes ``analyze`` exports from one of those captures.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from respsim import cli
from respsim.session import truth_path

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
PINNED = json.loads((GOLDEN_DIR / "digests.json").read_text())["configs"]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_simulate_matches_pinned_digests(name, tmp_path):
    capture = tmp_path / f"{name}.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(GOLDEN_DIR / f"{name}.yaml"),
                         "--out", str(capture)])
    assert code == cli.EXIT_OK
    digests = {"capture": sha256(capture), "truth": sha256(truth_path(str(capture)))}
    assert digests == PINNED[name]


# sha256 of `respsim analyze --out` on the multi-segment capture, per format
EXPORT_DIGESTS = {
    "csv": "a236f7200b85f4843daac4b14f1058df3400344d049d0a38f2233fa8552b1dde",
    "jsonl": "0d1b0d691bca2bf0d7e9a53c16d42ef618e6afce423881eafa0ec797d8415b40",
}


def test_analyze_exports_match_pinned_digests(tmp_path):
    config = str(GOLDEN_DIR / "multi-segment.yaml")
    capture = tmp_path / "multi-segment.bin"
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", config, "--out", str(capture)]) == cli.EXIT_OK
        for fmt in EXPORT_DIGESTS:
            out = tmp_path / f"x.{fmt}"
            code = cli.main(["analyze", str(capture), "--config", config,
                             "--out", str(out), "--format", fmt])
            assert code == cli.EXIT_OK
            digests[fmt] = sha256(out)
    assert digests == EXPORT_DIGESTS
