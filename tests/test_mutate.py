"""The mutation table of ``tools/mutate.py`` still fits the code it mutates.

Each mutant names text that must occur exactly once in its file under
``src/``.  A refactor that removes that text would otherwise show only at
the next mutation run.
"""

import importlib.util
from pathlib import Path

MUTATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def test_every_mutant_names_text_that_occurs_once():
    spec = importlib.util.spec_from_file_location("mutate", MUTATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.check_table()
