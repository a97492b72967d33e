import os
import random

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("GROUPCUT_STRETCH") == "1":
        return
    skip = pytest.mark.skip(reason="stretch-scale run; set GROUPCUT_STRETCH=1")
    for item in items:
        if "stretch" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    """Deterministic RNG so property tests are reproducible bug reports."""
    return random.Random(90817)


@pytest.fixture
def pivot_count(monkeypatch):
    """A one-element list counting LpState._pivot calls from here on.

    An unchanged count pins the pivot rules: any change to them moves it.
    """
    from groupcut.simplex import LpState

    count = [0]
    real = LpState._pivot

    def counted(self, *args):
        count[0] += 1
        return real(self, *args)

    monkeypatch.setattr(LpState, "_pivot", counted)
    return count
