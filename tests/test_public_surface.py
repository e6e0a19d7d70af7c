"""The package's public surface is the explicit list ``ahft.__all__``."""

import types

import ahft


def test_every_exported_name_resolves():
    assert len(set(ahft.__all__)) == len(ahft.__all__)
    for name in ahft.__all__:
        assert hasattr(ahft, name), name


def test_star_import_binds_no_submodule_but_errors():
    namespace = {}
    exec("from ahft import *", namespace)
    modules = {name for name, value in namespace.items() if isinstance(value, types.ModuleType)}
    assert modules == {"errors"}
