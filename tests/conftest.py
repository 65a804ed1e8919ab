import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# every property test draws the same examples on every run
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
