import importlib.util
import json
import os
import sys

import pytest

# the checkout's own package, unless PYTHONPATH already names another copy of it
if importlib.util.find_spec("delsarte") is None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import settings  # noqa: E402

from delsarte.deformation import data_from_json  # noqa: E402

# derandomized, so every run of the suite draws the same examples
settings.register_profile("delsarte", derandomize=True, database=None, deadline=None)
settings.load_profile("delsarte")


def quintic(name):
    """A quintic pencil of tests/quintics with deformation x0*x1*x2*x3*x4, in the labels of Doran, Greene and Judes (2008)."""
    with open(os.path.join(os.path.dirname(__file__), "quintics", f"{name}.json"), encoding="utf-8") as handle:
        return data_from_json(json.load(handle))


def clear_package_caches():
    """Empty every memoized derivation (every `cache_clear`) of the package's modules."""
    for name, module in list(sys.modules.items()):
        if name == "delsarte" or name.startswith("delsarte."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.fixture(autouse=True)
def fresh_caches():
    """Empty every memoized derivation of the package before each test.

    A derivation cached by an earlier test would otherwise hide what a
    test monkeypatches, such as `symbolic._REGISTRY` or a helper whose
    calls a test counts, and make a result depend on the order of tests.
    """
    clear_package_caches()
