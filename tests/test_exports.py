"""Every name a module exports in ``__all__`` must exist.

A function deleted or moved without its ``__all__`` entry would
otherwise only surface at ``from impactfield.x import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import impactfield

MODULES = ["impactfield"] + [
    f"impactfield.{info.name}" for info in pkgutil.iter_modules(impactfield.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name) -> None:
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
