"""Settings shared by every test module."""

import tempfile
import warnings
from contextlib import suppress

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

# When a @given test fails, Hypothesis's pytest plugin imports its patch
# writer, and the libcst it imports raises a DeprecationWarning.  Under
# filterwarnings = error that aborts the whole test run, so the writer is
# imported here once, with that warning ignored for this import alone.  The
# plugin writes no patch when libcst is missing, and neither does this.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def pytest_unconfigure(config):
    _storage.cleanup()
