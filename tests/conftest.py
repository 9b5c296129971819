"""Shared test configuration.

Property tests draw their examples deterministically and keep no example
database, so two runs of the suite execute the same examples.  Per-test
``max_examples`` still apply.  Hypothesis also caches the constants it
reads from source files; that cache goes to a temporary directory removed
at exit, so a run leaves no ``.hypothesis/`` directory behind.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("agmds", derandomize=True, database=None)
settings.load_profile("agmds")

_STORAGE = tempfile.TemporaryDirectory(prefix="agmds-hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
