"""Machine-speed reference for the qcorr benchmark.

On a shared machine the same pass can take 1.5x longer for minutes at a
time.  The reference unit is a fixed mix of the kinds of work qcorr does
(argument parsing, small complex matrix algebra, a batched einsum and
eigensolve, scalar float math, number formatting) and never changes with the
program under test.  The machine's speed drifts within seconds, so the unit
has to run close in time to the work it scales: ``Sampler`` runs one unit
from a 20 ms interval timer, inside the queries, for about a tenth of their
time, and each query's time is scaled by the units run during and right
around it.  The benchmark reports its times scaled to the nominal speed, so
a slow spell of the machine does not read as a slower program.  NumPy is
imported lazily, after the BLAS thread settings.
"""
from __future__ import annotations

import argparse
import bisect
import math
import signal
import statistics
import time

# Seconds of one reference unit at nominal speed: about the fastest this
# unit runs on a quiet 2-core Xeon VM with Python 3.11 and NumPy 2.4.
NOMINAL_UNIT_S = 1.5e-3
INTERVAL_S = 0.02  # sampler period: one unit (~2 ms) every 20 ms, about a tenth
NEAREST = 9  # least units a query's scale is taken from

_DATA = None


def _data():
    global _DATA
    if _DATA is None:
        import numpy as np

        rng = np.random.default_rng(20261017)
        m = rng.standard_normal((256, 4, 4)) + 1j * rng.standard_normal((256, 4, 4))
        _DATA = (np, (m + m.conj().transpose(0, 2, 1)) / 2, rng.standard_normal(200))
    return _DATA


def reference_unit() -> float:
    np, mats, floats = _data()
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c"):
        p = sub.add_parser(name)
        for k in range(6):
            p.add_argument(f"--option{k}", type=float, default=0.0)
    parser.parse_args(["b", "--option3", "0.5"])
    total = 0.0
    for k in range(6):
        w, v = np.linalg.eigh(mats[k])
        total += float(np.abs(v @ mats[k] @ v.conj().T).max()) + math.sqrt(abs(w[0]))
    total += float(np.einsum("nab,nba->n", mats, mats).real.sum())
    total += float(np.linalg.eigvalsh(mats[:64]).sum())
    for i in range(600):
        total += math.sin(i * 0.01) * math.exp(-i * 1e-3)
    text = ",".join("%.17g" % x for x in floats)
    return total + len(text)


def burst(budget_s: float) -> list[float]:
    """Seconds of each reference unit run back to back for about budget_s
    (at least one unit)."""
    times: list[float] = []
    while not times or sum(times) < budget_s:
        start = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - start)
    return times


def factor(unit_times: list[float]) -> float:
    """Multiply a measured time by this to get the time at nominal speed."""
    return NOMINAL_UNIT_S / statistics.median(unit_times)


class Sampler:
    """Runs one reference unit from a SIGALRM interval timer while active.

    Python runs the handler in the main thread between bytecodes, so the
    unit lands inside the queries being timed.  ``busy`` and ``factor`` then
    take out the handler's own time and give each query its local scale.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_unit()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "Sampler":
        reference_unit()  # builds the data outside the timed queries
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Seconds the handler ran between start and end."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return sum(self.durations[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between start and end: the nominal unit time
        over the median of the units run in that span, widened to the
        NEAREST units around it when it holds fewer."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            if lo > 0:
                lo -= 1
            if hi < len(self.starts):
                hi += 1
        return factor(self.durations[lo:hi])
