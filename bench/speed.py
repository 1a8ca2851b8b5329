"""Speed checkpoints taken next to the timed work.

On a shared VM the speed of a core drifts by tens of percent over a few
seconds, and by more between minutes. A fixed piece of pure-Python work
timed within a fraction of a second of a stretch of program work slows
and speeds up with it, while the same work timed a second away does
not. So the untimed passes run a short reference chunk every 50 ms or
so: before a victim or an artifact write when one is due, around the
snapshot load, and from a timer signal during a generate pass. Each
timing is then scaled by the chunks next to it.

The chunk mixes what the program spends its time on: set intersections
and membership tests over a dict of sets, sorting, building small dicts
and strings, and plain integer arithmetic. Each kind alone slowed by a
different share than the program did under the same load; the mix
tracked it best. It runs twice and only the second, warm run is timed,
because the time of a cold run also depends on what the program left
in the caches.

Chunk time lies outside every span and is subtracted from the walls.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time

INTERVAL_NS = 50_000_000
WINDOW_NS = 100_000_000  # chunks this close to a span scale it


class SpeedProbe:
    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        rng = random.Random(0)
        users = range(400)
        self._adjacency = {u: frozenset(rng.sample(users, 14)) for u in users}
        self._order = list(users)[:40]
        self.starts: list[int] = []  # perf_counter_ns at each checkpoint start
        self.ends: list[int] = []
        self.durations: list[float] = []  # of the timed, warm run
        self.total_s = 0.0  # of both runs, to subtract from walls
        self._busy = False

    def _chunk(self) -> int:
        # No tuples: freeing a tuple does not take it off the collector's
        # count, and the chunk must leave that count as it found it.
        adjacency = self._adjacency
        shared = {}
        for u in self._order:
            friends = adjacency[u]
            for v in friends:
                common = friends & adjacency[v]
                shared[u * 1000 + v] = len(common) + (u in adjacency[v])
        ranked = sorted(shared, key=lambda pair: pair - 1_000_000 * shared[pair])
        records = [
            {"id": f"u{pair // 1000}", "peer": f"u{pair % 1000}",
             "shared": [shared[pair]], "tags": {pair % 5, pair % 7}}
            for pair in ranked
        ]
        total = 0
        for i in range(8_000):
            total += i * i % 7
        return len(records) + total

    def checkpoint(self) -> None:
        if self._busy:  # a timer signal arrived during a checkpoint
            return
        self._busy = True
        # The chunk frees all it allocates, so with the collector off it
        # leaves the collector's counts as it found them, and garbage
        # collections fall on the same program calls in every pass.
        collecting = gc.isenabled()
        gc.disable()
        warm = time.perf_counter_ns()
        self._chunk()
        start = time.perf_counter_ns()
        self._chunk()
        end = time.perf_counter_ns()
        if collecting:
            gc.enable()
        self.starts.append(warm)
        self.ends.append(end)
        self.durations.append((end - start) / 1e9)
        self.total_s += (end - warm) / 1e9
        self._busy = False

    def maybe_checkpoint(self) -> None:
        if not self.ends or time.perf_counter_ns() - self.ends[-1] >= INTERVAL_NS:
            self.checkpoint()

    def scale_near(self, start_ns: int, end_ns: int) -> float:
        """Nominal over the median chunk that overlaps the span widened by
        WINDOW_NS on each side. A checkpoint ends at most INTERVAL_NS
        before every wrapped call, so there is always one."""
        first = bisect.bisect_left(self.ends, start_ns - WINDOW_NS)
        last = bisect.bisect_right(self.starts, end_ns + WINDOW_NS)
        return self.nominal_s / statistics.median(self.durations[first:last])

    def scale_over(self, start_ns: int, end_ns: int) -> float:
        """Nominal over the median chunk from the one before ``start_ns`` to
        the one after ``end_ns``."""
        first = max(bisect.bisect_right(self.ends, start_ns) - 1, 0)
        last = bisect.bisect_left(self.starts, end_ns)
        return self.nominal_s / statistics.median(self.durations[first : last + 1])

    def wrap(self, owner, attr: str, every_call: bool) -> None:
        """Checkpoint around every call of ``owner.attr``, or before a call
        when one is due."""
        fn = getattr(owner, attr)
        probe = self

        def wrapper(*args, **kwargs):
            if not every_call:
                probe.maybe_checkpoint()
                return fn(*args, **kwargs)
            probe.checkpoint()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.checkpoint()

        setattr(owner, attr, wrapper)

    @contextlib.contextmanager
    def on_timer(self):
        """Checkpoint every INTERVAL_NS of wall time, whatever runs."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.checkpoint())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_NS / 1e9, INTERVAL_NS / 1e9)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
