"""The package's public names and its error classes."""

import importlib
import pkgutil
import sys

import respsim
from respsim.config import ConfigError
from respsim.protocol import ProtocolError
from respsim.sensor import ParameterError


def test_all_names_resolve_once():
    names = respsim.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(respsim, name)]
    assert missing == []


def test_star_import_binds_every_export():
    namespace = {}
    exec("from respsim import *", namespace)
    assert set(respsim.__all__) <= set(namespace)


def test_the_errors_a_caller_catches_are_exported():
    for error in (ConfigError, ParameterError, ProtocolError):
        assert error.__name__ in respsim.__all__
        assert getattr(respsim, error.__name__) is error


def test_a_bad_value_has_one_error_class():
    """A value out of range raises ParameterError, a config of the wrong form
    ConfigError, and too little signal InsufficientDataError; no module
    defines a further ValueError for one kind of value."""
    for info in pkgutil.walk_packages(respsim.__path__, "respsim."):
        if info.name != "respsim.__main__":
            importlib.import_module(info.name)
    value_errors = {
        f"{name}.{key}"
        for name, module in list(sys.modules.items())
        if name == "respsim" or name.startswith("respsim.")
        for key, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, ValueError)
        and value.__module__ == name
    }
    assert value_errors == {"respsim.sensor.ParameterError", "respsim.config.ConfigError",
                            "respsim.pipeline.InsufficientDataError"}
