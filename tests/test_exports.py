"""Every exported name resolves, so a deletion leaves no stale export."""
import importlib
import pkgutil

import pytest

import ramanpa

MODULES = sorted(m.name for m in pkgutil.iter_modules(ramanpa.__path__, "ramanpa."))


def test_modules_are_found():
    assert {"ramanpa.cli", "ramanpa.config", "ramanpa.spectra"} <= set(MODULES)


@pytest.mark.parametrize("name", ["ramanpa"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    assert [n for n in exported if not hasattr(module, n)] == []
