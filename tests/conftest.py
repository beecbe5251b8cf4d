"""Shared test settings.

Hypothesis runs under one registered profile: examples are derived from each
test's name (derandomize) rather than a random seed, no example database is
kept, and no per-example deadline applies on a slow shared machine.  Hypothesis
also caches literals it reads from local source files; that cache goes to a
temporary directory removed at exit, so a run leaves no .hypothesis/ behind.
"""
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only tests/test_properties.py needs it
    pass
else:
    _storage = tempfile.TemporaryDirectory(prefix="qcorr-hypothesis-")
    set_hypothesis_home_dir(_storage.name)
    settings.register_profile(
        "qcorr", derandomize=True, deadline=None, database=None, max_examples=100
    )
    settings.load_profile("qcorr")
