"""Every name a module exports resolves."""

import importlib
import pkgutil

import entrank


def test_every_exported_name_resolves():
    modules = [entrank] + [
        importlib.import_module(f"entrank.{info.name}")
        for info in pkgutil.iter_modules(entrank.__path__)
    ]
    missing = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert not missing
