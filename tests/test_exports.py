"""Every exported name resolves, so a deletion cannot leave a stale export,
and each public name has one home: the package republishes its modules'
__all__ without a list of its own."""
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcorr

MODULES = ["qcorr"] + [f"qcorr.{m.name}" for m in pkgutil.iter_modules(qcorr.__path__)]
# the modules the package republishes, in import order; cli stays out
REPUBLISHED = ["states", "linalg", "channels", "measures", "dynamics"]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def test_the_package_exports_each_modules_names_once():
    modules = [importlib.import_module(f"qcorr.{name}") for name in REPUBLISHED]
    assert qcorr.__all__ == ["__version__"] + [n for mod in modules for n in mod.__all__]
    assert len(set(qcorr.__all__)) == len(qcorr.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(qcorr, name) is getattr(mod, name), name


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    # a fresh interpreter started next to the package, so it imports this copy
    code = "import sys, qcorr; print(sorted({'qcorr.cli', 'argparse'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(qcorr.__file__).parents[1])
    assert out.stdout == "[]\n"
