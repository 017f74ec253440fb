"""Every exported name resolves, so a deleted function cannot leave its
name behind in an ``__all__``."""

import importlib
import pkgutil

import pytest

import icleq

MODULES = ["icleq"] + [f"icleq.{m.name}" for m in pkgutil.iter_modules(icleq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [e for e in getattr(module, "__all__", ()) if not hasattr(module, e)]
    assert not missing, f"{name}.__all__ names what {name} lacks: {missing}"
