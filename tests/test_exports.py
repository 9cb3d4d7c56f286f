"""Export lists name only what exists, once each."""

import importlib
import pkgutil

import sendwhen

MODULES = [sendwhen] + [
    importlib.import_module(f"sendwhen.{m.name}")
    for m in pkgutil.iter_modules(sendwhen.__path__)
]


def test_every_export_resolves_and_none_repeats():
    for module in MODULES:
        names = getattr(module, "__all__", ())  # errors.py declares none
        missing = [n for n in names if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)
        assert len(names) == len(set(names)), module.__name__
