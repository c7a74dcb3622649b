"""Settings shared by every test module."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized and with no example database: every run draws the same
# examples, so the pass/fail set is reproducible.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# Hypothesis also caches the literals it finds in local source files.  That
# cache goes to a temporary directory removed after the run, not to
# ./.hypothesis.
_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_storage.name)


def pytest_unconfigure(config):
    _storage.cleanup()
