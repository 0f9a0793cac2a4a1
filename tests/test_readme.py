"""The README's library quick start runs and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), str(README), "exec"), {})
    rate, forces, percent = capsys.readouterr().out.splitlines()
    assert abs(float(rate) - 12.0) < 0.5
    assert len([float(force) for force in forces.strip("[]").split()]) == 2
    assert percent == "100"
