import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypothesis import settings  # noqa: E402

# derandomized, so every run of the suite draws the same examples
settings.register_profile("delsarte", derandomize=True, database=None, deadline=None)
settings.load_profile("delsarte")
