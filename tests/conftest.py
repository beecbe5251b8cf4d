"""Shared test settings.

Hypothesis runs under one registered profile: examples are derived from each
test's name (derandomize) rather than a random seed, no example database is
kept, and no per-example deadline applies on a slow shared machine.  Hypothesis
also caches literals it reads from local source files; that cache goes to a
temporary directory removed at exit, so a run leaves no .hypothesis/ behind.

Every test runs under a hang guard: on POSIX, a SIGALRM armed for
HANG_SECONDS fails a test whose call is still running then, so a search that
never ends fails its own test instead of holding up the run.  Where SIGALRM
is missing there is no guard.  The alarm is the ITIMER_REAL timer, so a test
that set that timer itself would replace it; none does.
"""
import signal
import tempfile

import pytest

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

# about 50 times the slowest test, which takes 1.3-1.9 s on a 2-core VM
HANG_SECONDS = 90


class Hang(BaseException):
    """A test ran past HANG_SECONDS.  It is not an Exception, so neither the
    code under test nor hypothesis catches it: hypothesis does not shrink
    on it, which would run the hang again with no alarm left to end it."""


def _hung(signum, frame):
    raise Hang(f"test still running after {HANG_SECONDS} s")


if hasattr(signal, "SIGALRM"):
    # the alarm covers the test call alone and is off again before pytest
    # formats a failure, which an alarm must not interrupt
    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        previous = signal.signal(signal.SIGALRM, _hung)
        signal.alarm(HANG_SECONDS)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
