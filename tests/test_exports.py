"""Every name a boxchrom module exports must exist in that module.

The benchmark's span tracer looks up each ``__all__`` entry with ``getattr``,
so a stale export left behind by a deletion would break every traced run.
"""

import importlib
import pkgutil

import pytest

import boxchrom

MODULES = sorted(info.name for info in pkgutil.iter_modules(boxchrom.__path__))


def test_package_has_modules():
    assert "transfer" in MODULES and "solvers" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"boxchrom.{name}")
    exported = mod.__all__
    assert [attr for attr in exported if not hasattr(mod, attr)] == []
    assert len(set(exported)) == len(exported)
