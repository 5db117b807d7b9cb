"""Fork-join worker pool with per-worker instrumentation records.

The pool mirrors a shared-memory parallel-loop runtime: the calling thread is
worker 0, and every parallel region is a dispatch-execute-join cycle.  The
helpers, workers 1 and up, are the threads of one `ThreadPoolExecutor`: they
start on the first dispatch and are reused until `shutdown`.  A one-worker
pool starts no thread and does not import `concurrent.futures`.  A schedule
is a `claim(w)` generator of (lo, hi, claims) blocks, and every worker,
worker 0 included, runs the same claim loop over it.  Two schedules are
provided:

* static  -- contiguous even split of the iteration space, remainder items
  going to the lowest-indexed workers, so the analytic chunk model of the
  metrics module applies exactly; each item counts as one claim;
* dynamic -- workers claim the next grain-sized block from a shared cursor
  until the space is exhausted; each block counts as one claim and is logged
  as (lo, worker) in the record's `claim_log`.

Either way a region's claims sum to its schedulable chunks.  Every dispatch
gets fresh per-worker `WorkerStats`; a worker writes only its own, so records
need no locks.  The dynamic cursor is the single shared word.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass


def static_ranges(n_items: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) per worker; sizes differ by at most one item."""
    base, rem = divmod(n_items, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + base + (1 if w < rem else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


@dataclass
class WorkerStats:
    busy: float = 0.0
    iterations: int = 0
    claims: int = 0
    alloc_events: int = 0

    def add(self, other: WorkerStats) -> None:
        self.busy += other.busy
        self.iterations += other.iterations
        self.claims += other.claims
        self.alloc_events += other.alloc_events


@dataclass
class RegionRecord:
    """Per-worker stats of one parallel dispatch, or, summed with `add`, of a
    region over one step or a whole run."""

    elapsed: float
    workers: list[WorkerStats]
    claim_log: list | None = None

    @classmethod
    def empty(cls, workers: int) -> RegionRecord:
        return cls(elapsed=0.0, workers=[WorkerStats() for _ in range(workers)])

    def add(self, other: RegionRecord) -> None:
        """Sum the per-worker stats; `elapsed` is the caller's."""
        for mine, theirs in zip(self.workers, other.workers, strict=True):
            mine.add(theirs)

    @property
    def total_alloc_events(self) -> int:
        return sum(w.alloc_events for w in self.workers)

    @property
    def total_claims(self) -> int:
        return sum(w.claims for w in self.workers)


class WorkerCtx:
    """What a body sees of its worker: the index and this dispatch's stats."""

    __slots__ = ("index", "stats")

    def __init__(self, index: int, stats: WorkerStats):
        self.index = index
        self.stats = stats


class WorkerPool:
    """Persistent fork-join pool; the caller participates as worker 0.

    Helper threads start on the first dispatch and live until `shutdown`,
    after which a dispatch of more than one worker raises `RuntimeError`.
    One worker starts no thread: every dispatch runs inline.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        self._helpers = None
        if workers > 1:
            # imported here: concurrent.futures loads logging, a cost that
            # one-worker runs need not pay
            from concurrent.futures import ThreadPoolExecutor
            self._helpers = ThreadPoolExecutor(workers - 1)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def shutdown(self) -> None:
        if self._helpers is not None:
            self._helpers.shutdown()

    # -- dispatch ----------------------------------------------------------

    def run_static(self, n_items: int, body) -> RegionRecord:
        """body(lo, hi, ctx) once per worker over its contiguous item range."""
        ranges = static_ranges(n_items, self.workers)

        def claim(w):
            lo, hi = ranges[w]
            if hi > lo:
                yield lo, hi, hi - lo

        return self._dispatch(body, claim)

    def run_dynamic(self, n_items: int, grain: int, body) -> RegionRecord:
        """body(lo, hi, ctx) per claimed block of at most `grain` items."""
        if grain < 1:
            raise ValueError("grain must be >= 1")
        lock = threading.Lock()
        claim_log: list[tuple[int, int]] = []

        def claim(w):
            while True:
                with lock:  # the log is the cursor: block k starts at k * grain
                    lo = len(claim_log) * grain
                    if lo >= n_items:
                        return
                    claim_log.append((lo, w))
                yield lo, min(lo + grain, n_items), 1

        return self._dispatch(body, claim, claim_log)

    def _dispatch(self, body, claim, claim_log: list | None = None) -> RegionRecord:
        stats = [WorkerStats() for _ in range(self.workers)]
        t0 = time.perf_counter()
        helpers = [self._helpers.submit(self._execute, body, claim(w), WorkerCtx(w, stats[w]))
                   for w in range(1, self.workers)]
        try:
            self._execute(body, claim(0), WorkerCtx(0, stats[0]))
        finally:
            errors = [helper.exception() for helper in helpers]  # the join
        elapsed = time.perf_counter() - t0
        for err in errors:
            if err is not None:
                raise err
        return RegionRecord(elapsed=elapsed, workers=stats, claim_log=claim_log)

    @staticmethod
    def _execute(body, claims, ctx: WorkerCtx) -> None:
        """The claim loop: run and account every block this worker claims."""
        stats = ctx.stats
        clock = time.perf_counter
        for lo, hi, n_claims in claims:
            t0 = clock()
            body(lo, hi, ctx)
            stats.busy += clock() - t0
            stats.iterations += hi - lo
            stats.claims += n_claims
