"""Host-speed calibration: scale measured times to a fixed reference speed.

The benchmark runs on shared hosts whose speed for pure-Python work drifts
by up to 2x within a minute, as other tenants come and go; the process's
CPU time drifts with its wall time, so neither clock is steady.  A fixed
unit of pure-Python work of the same kind as the package's (dict, set,
tuple and sort churn of color refinement) is timed every ``INTERVAL_S``
seconds between queries.  A query's time is multiplied by ``REFERENCE_S``
divided by the median of the unit times measured from ``MARGIN_S`` before
it to ``MARGIN_S`` after it, which gives its time on a host where one unit
takes ``REFERENCE_S``.
Both sides of a comparison use the same unit and constant, and the unit
shares no code with the package.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_S = 0.004   # one calibration unit on the reference host
INTERVAL_S = 0.25     # time between calibration units during a run
MAX_UNITS = 8         # units taken at once after a long query
MARGIN_S = 2.5        # a query's speed comes from the units within this margin
MIN_UNITS = 6         # ... or from at least this many nearest units


def _unit():
    adj = {i: frozenset((i * 7 + j * 13) % 97 for j in range(1, 6)) for i in range(97)}
    acc = 0
    for _ in range(6):
        colors = {v: len(adj[v]) for v in adj}
        for _ in range(5):
            sig = {v: (colors[v], tuple(sorted(colors[w] for w in adj[v]))) for v in adj}
            palette = {s: c for c, s in enumerate(sorted(set(sig.values())))}
            colors = {v: palette[sig[v]] for v in adj}
        acc += sum(colors.values())
    return acc


def unit_seconds():
    """Wall time of one calibration unit, now."""
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


class SpeedTrack:
    """Calibration units timed during a run, and the speed factor they imply."""

    def __init__(self):
        self.times = []
        self.units = []

    def sample(self):
        """Time one unit per ``INTERVAL_S`` gone by since the last one (at
        most ``MAX_UNITS``), so that a long query is bracketed by several."""
        now = time.perf_counter()
        gap = now - self.times[-1] if self.times else INTERVAL_S
        for _ in range(min(MAX_UNITS, int(gap / INTERVAL_S))):
            self.units.append(unit_seconds())
            self.times.append(now)

    def factor(self, start, elapsed=0.0):
        """REFERENCE_S over the median unit time around [start, start + elapsed]."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, start + elapsed + MARGIN_S)
        if hi - lo < MIN_UNITS:
            i = bisect.bisect(self.times, start)
            lo, hi = max(0, i - MIN_UNITS // 2), i + MIN_UNITS // 2
        return REFERENCE_S / statistics.median(self.units[lo:hi])

    def unit_median(self):
        return statistics.median(self.units)
