"""Every exported name resolves: a deleted function must leave ``__all__`` too."""

import importlib
import pkgutil

import pytest

import coverify

MODULES = ["coverify"] + [
    f"coverify.{info.name}"
    for info in pkgutil.iter_modules(coverify.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
