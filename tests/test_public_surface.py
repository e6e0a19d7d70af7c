"""The package's public surface is the explicit list ``ahft.__all__``.

Its names and the submodules load on first use, so the checks that
depend on what is already imported run in a fresh interpreter.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import ahft


def _fresh(code):
    """The stdout of ``code`` run by a new interpreter that imports this ``ahft``."""
    env = dict(os.environ, PYTHONPATH=str(Path(ahft.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


def test_every_exported_name_resolves():
    assert len(set(ahft.__all__)) == len(ahft.__all__)
    for name in ahft.__all__:
        assert hasattr(ahft, name), name


def test_star_import_binds_no_submodule_but_errors():
    namespace = {}
    exec("from ahft import *", namespace)
    modules = {name for name, value in namespace.items() if isinstance(value, types.ModuleType)}
    assert modules == {"errors"}


def test_bare_import_loads_no_submodule_and_reaches_them_as_attributes():
    assert _fresh("import sys, ahft\n"
                  "print(sorted(m for m in sys.modules if m.startswith('ahft.')))\n"
                  "print(ahft.alt.GRADIENT_TOL)\n") == "[]\n1e-08\n"


def test_every_name_is_its_home_modules_object():
    assert _fresh("import importlib, ahft\n"
                  "for name in ahft.__all__:\n"
                  "    home = 'errors' if name == 'errors' else ahft._HOME[name]\n"
                  "    module = importlib.import_module('ahft.' + home)\n"
                  "    value = getattr(ahft, name)\n"
                  "    assert value is (module if name == 'errors' else getattr(module, name)), name\n"
                  "    assert getattr(value, '__module__', module.__name__) == module.__name__, name\n"
                  "print('ok')\n") == "ok\n"


def test_dir_lists_every_export_and_unknown_names_are_absent():
    assert _fresh("import ahft\n"
                  "print(set(ahft.__all__) <= set(dir(ahft)), hasattr(ahft, 'nosuch'))\n"
                  ) == "True False\n"


def test_from_import_of_submodules():
    assert _fresh("from ahft import alt, dataset\n"
                  "print(alt.__name__, dataset.__name__)\n") == "ahft.alt ahft.dataset\n"
