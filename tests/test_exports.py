"""The package's public names: every export resolves and is listed once."""

import respsim


def test_all_names_resolve_once():
    names = respsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(respsim, name)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from respsim import *", namespace)
    assert set(respsim.__all__) <= set(namespace)
