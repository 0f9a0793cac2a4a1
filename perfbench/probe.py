"""Fresh-interpreter probe for set-up time and, optionally, peak memory.

    python3 perfbench/probe.py CONFIG [respsim arguments...]

Prints one JSON object.  ``setup_s`` is the time to import ``respsim.cli``
and load CONFIG.  When respsim arguments follow, the probe then runs that
command once and adds ``peak_mem_mb``: how far the command raised the
process's peak resident set (``VmHWM`` in ``/proc/self/status``, Linux)
above its level after set-up.  Reading the peak costs nothing while the
command runs, unlike tracing every allocation.  The caller puts the
checkout's ``src/`` on ``PYTHONPATH``.
"""

import contextlib
import io
import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


start = time.perf_counter()
import respsim.cli  # noqa: E402
from respsim.config import load_config  # noqa: E402

load_config(sys.argv[1])
result = {"setup_s": time.perf_counter() - start}
if len(sys.argv) > 2:
    before = peak_rss_kb()
    with contextlib.redirect_stdout(io.StringIO()):
        code = respsim.cli.main(sys.argv[2:])
    result.update(exit_code=code, peak_mem_mb=(peak_rss_kb() - before) / 1e3)
print(json.dumps(result))
