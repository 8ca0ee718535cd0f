"""Every name the packages export through ``__all__`` resolves.

A deleted or renamed name left behind in an ``__all__`` list fails only
on ``from repro import *``, which nothing else in the suite runs.
"""

import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.core", "repro.analysis"])
def test_every_exported_name_resolves(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert missing == []
    assert len(set(package.__all__)) == len(package.__all__)
