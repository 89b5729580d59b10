import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # Fixed example sequence, no example database: the suite stays deterministic.
    settings.register_profile("deterministic", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("deterministic")
