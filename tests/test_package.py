"""The package's top level exports exactly its modules' public names."""

import importlib

import ensynth

MODULES = ("ts", "regions", "properties", "unions", "linear2", "synthesis", "reductions")


def test_package_exports_every_module_name_once():
    """The package used to keep its own list, which had dropped six names."""
    modules = [importlib.import_module(f"ensynth.{name}") for name in MODULES]
    assert ensynth.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(ensynth.__all__)) == len(ensynth.__all__)
    for name, module in zip(MODULES, modules):
        assert getattr(ensynth, name) is module
        assert all(getattr(ensynth, n) is getattr(module, n) for n in module.__all__)
