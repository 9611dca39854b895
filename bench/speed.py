"""The machine's speed during a run, sampled by timing a fixed computation.

The benchmark's machine may share its cores: its speed drifts by tens of
percent over seconds and minutes.  ``Speed.tick()`` is called between
instances, outside the measured time.  It times ``reference()`` once for
every ``GAP_S`` of work since the previous tick, so that the samples are
spread evenly over the run's time.  A speed
factor is the median of the samples taken around a stretch of the run,
divided by ``NOMINAL_S``: above 1 when the machine ran slower than the one
the constant was measured on.  Dividing a time measured in that stretch by it
gives the time on that machine at its usual speed.

``reference()`` does the kinds of work homeofind does (bitmask loops, dict
lookups by tuple over a few megabytes, building sets and dicts of tuples),
which a busy machine slows down by different amounts, but it runs none of
homeofind's code, so that a change to the program never moves it.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

clock = time.perf_counter

# Median time of reference() on a 2-core x86-64 machine, Python 3.11.
NOMINAL_S = 0.0055
GAP_S = 0.15  # one sample per this much work
MAX_BURST = 30  # samples at most per tick
WINDOW_S = 0.5  # a stretch's speed comes from the samples this close to it
NEAREST = 7  # or from this many nearest samples, where fewer are that close

_rng = random.Random(2004_02657)
_MASKS = [_rng.getrandbits(60) for _ in range(40)]
_TABLE = {(i, j): _MASKS[i] ^ _MASKS[j] for i in range(40) for j in range(40)}
_SETS = [frozenset(_rng.sample(range(400), 60)) for _ in range(24)]
_KEYS = [(_rng.randrange(64), _rng.randrange(64), _rng.randrange(64)) for _ in range(1 << 14)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}
_LOOKUPS = _rng.sample(_KEYS, 3000)
_FACES = [(x, y, z) for x in range(20) for y in range(20) for z in range(20) if _rng.random() < 0.45]


def reference() -> int:
    """Three kinds of work, as in the program: small bitmask loops, lookups
    spread over a table of a few megabytes, and building a set and a dict."""
    total = 0
    for i, m1 in enumerate(_MASKS):
        for j in range(i + 1, len(_MASKS)):
            common = m1 & _MASKS[j]
            if common.bit_count() >= 14:
                total += (_TABLE[i, j] & common).bit_count()
    for a in _SETS:
        for b in _SETS:
            total += len(a & b)
    for key in _LOOKUPS:
        total += _INDEX[key]
    masks: dict[tuple[int, int], int] = {}
    for x, y, z in frozenset(_FACES):
        masks[x, y] = masks.get((x, y), 0) | (1 << z)
    for (x, y), m in masks.items():
        total += (m & masks.get((y, x), 0)).bit_count()
    return total


class Speed:
    """Reference timings taken between the instances of one run."""

    def __init__(self):
        self.at: list[float] = []  # midpoint of each sample
        self.samples: list[float] = []
        self._owed = 0.0
        self._last = clock()

    def tick(self) -> None:
        now = clock()
        self._owed += now - self._last
        n = min(MAX_BURST, int(self._owed / GAP_S))
        self._owed -= n * GAP_S
        for _ in range(n):
            self._sample()
        self._last = clock()

    def _sample(self) -> None:
        # With the cyclic collector off, reference() neither runs a
        # collection of the program's garbage nor, as it frees all it
        # allocates, moves the point where the program's next one runs.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference()
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.samples.append(t1 - t0)

    def factor(self) -> float:
        """The speed factor over the whole run."""
        if not self.samples:
            self._sample()
        return statistics.median(self.samples) / NOMINAL_S

    def factor_during(self, t0: float, t1: float) -> float:
        """The speed factor around the interval [t0, t1]: from the samples
        taken within WINDOW_S of it, or from the NEAREST samples closest to
        it when there are fewer."""
        if not self.samples:
            self._sample()
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        near = self.samples[lo:hi]
        if len(near) < NEAREST:
            by_distance = sorted(
                range(len(self.at)), key=lambda i: max(t0 - self.at[i], self.at[i] - t1, 0.0)
            )
            near = [self.samples[i] for i in by_distance[:NEAREST]]
        return statistics.median(near) / NOMINAL_S


class NoSpeed:
    """Stands in for Speed in the traced pass: samples nothing."""

    def tick(self) -> None:
        pass
