"""Golden digests: pinned configs must keep producing the same bytes.

The determinism tests elsewhere compare one run with a rerun, so a change
that altered the output consistently would pass them.  These compare the
capture and its truth sidecar with the sha256 digests pinned in
``perfbench/golden/digests.json``, which the benchmark checks as well.
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
