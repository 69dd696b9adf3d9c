"""The package namespace: each public name is declared once, in its module's ``__all__``."""

import os
import subprocess
import sys
from pathlib import Path

import pinkhorn
from pinkhorn import checks, kernel, oracle, otx, penalty, projection, solvers

MODULES = (kernel, projection, penalty, otx, solvers, oracle, checks)


def test_all_is_version_then_each_module_all():
    names = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert pinkhorn.__all__ == names
    assert len(set(names)) == len(names)


def test_every_name_is_its_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(pinkhorn, name) is obj, name
            # a module lists only what it defines, not what it imports
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pinkhorn import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pinkhorn.__all__)


def test_import_leaves_the_cli_unloaded():
    # the CLI, with its argparse, json and re, loads only on demand
    env = {**os.environ, "PYTHONPATH": str(Path(pinkhorn.__file__).resolve().parents[1])}
    code = "import sys, pinkhorn; print('pinkhorn.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.strip() == "False"
