"""Every exported name resolves, so a deletion cannot leave a stale export."""
import importlib
import pkgutil

import pytest

import qcorr

MODULES = ["qcorr"] + [f"qcorr.{m.name}" for m in pkgutil.iter_modules(qcorr.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
