import importlib
import pkgutil

import popmatch


def test_every_exported_name_resolves():
    """Each name in ``popmatch.__all__`` and in each module's ``__all__`` exists."""
    modules = [popmatch] + [
        importlib.import_module(f"popmatch.{info.name}")
        for info in pkgutil.iter_modules(popmatch.__path__)
    ]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked
