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
import os
import subprocess
import sys
from pathlib import Path

import pytest

from respsim import cli
from respsim.session import truth_path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "perfbench" / "golden"
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


def cpu_feature_levels() -> list[str]:
    """``NPY_DISABLE_CPU_FEATURES`` values that step numpy down its SIMD levels.

    Each switches off one feature that numpy dispatches at run time and this
    host has, and every feature dispatched after it, so the last runs
    numpy's compiled baseline.  A host without such features gives none.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    dispatched = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [" ".join(dispatched[i:]) for i in reversed(range(len(dispatched)))]


# run in a child with some SIMD features off: prints the features it sees
# switched off, and each golden config's digests
SIMULATE_GOLDEN = """
import contextlib, hashlib, io, json, os, sys
from pathlib import Path
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
from respsim import cli
from respsim.session import truth_path
golden, work = Path(sys.argv[1]), Path(sys.argv[2])
digests = {}
for name in sys.argv[3:]:
    capture = work / (name + ".bin")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(golden / (name + ".yaml")),
                         "--out", str(capture)]) == 0
    digests[name] = {key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                     for key, path in (("capture", capture), ("truth", truth_path(str(capture))))}
off = [f for f in os.environ["NPY_DISABLE_CPU_FEATURES"].split() if not umath.__cpu_features__[f]]
print(json.dumps({"off": off, "digests": digests}))
"""


@pytest.mark.parametrize("disabled", cpu_feature_levels(), ids=lambda d: d.split()[0] + "-off")
def test_simulate_matches_pinned_digests_at_each_simd_level(disabled, tmp_path):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", SIMULATE_GOLDEN, str(GOLDEN_DIR), str(tmp_path), *sorted(PINNED)],
        env=env, capture_output=True, text=True, check=True)
    result = json.loads(child.stdout)
    assert result["off"] == disabled.split()
    assert result["digests"] == PINNED


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
