"""Fork-join worker pool with per-worker instrumentation records.

The pool mirrors a shared-memory parallel-loop runtime: the calling thread is
worker 0, helper threads are spawned once and reused, and every parallel
region is a dispatch-execute-join cycle.  Two schedules are provided:

* static  -- contiguous even split of the iteration space, remainder items
  going to the lowest-indexed workers, so the analytic chunk model of the
  metrics module applies exactly;
* dynamic -- workers claim the next grain-sized block from a shared cursor
  until the space is exhausted.

Workers mutate only their own stats slots and their own chunk of the problem,
so records need no locks; the dynamic cursor is the single shared word.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields

from .smallvec import AllocationCounter


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
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class RegionRecord:
    """Items, schedulable chunks and per-worker stats of one parallel dispatch,
    or, summed with `add`, of a region over one step or a whole run."""

    items: int
    schedulable_chunks: int
    elapsed: float
    workers: list[WorkerStats]
    claim_log: list | None = None

    @classmethod
    def empty(cls, workers: int) -> RegionRecord:
        return cls(items=0, schedulable_chunks=0, elapsed=0.0,
                   workers=[WorkerStats() for _ in range(workers)])

    def add(self, other: RegionRecord) -> None:
        """Sum items, chunks and per-worker stats; `elapsed` is the caller's."""
        self.items += other.items
        self.schedulable_chunks += other.schedulable_chunks
        for mine, theirs in zip(self.workers, other.workers, strict=True):
            mine.add(theirs)

    @property
    def total_alloc_events(self) -> int:
        return sum(w.alloc_events for w in self.workers)

    @property
    def total_iterations(self) -> int:
        return sum(w.iterations for w in self.workers)

    @property
    def total_claims(self) -> int:
        return sum(w.claims for w in self.workers)


class WorkerCtx:
    """Per-worker context: identity, allocation counter, persistent scratch."""

    __slots__ = ("index", "counter", "scratch")

    def __init__(self, index: int):
        self.index = index
        self.counter = AllocationCounter()
        self.scratch: dict = {}


class _Cursor:
    __slots__ = ("lock", "value")

    def __init__(self):
        self.lock = threading.Lock()
        self.value = 0


class WorkerPool:
    """Persistent fork-join pool; the caller participates as worker 0."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = workers
        self.contexts = [WorkerCtx(w) for w in range(workers)]
        self._job = None
        self._stats: list[WorkerStats] = []
        self._errors: list = [None] * workers
        self._claim_logs: list = [None] * workers
        self._shutdown = False
        self._threads: list[threading.Thread] = []
        if workers > 1:
            self._start = threading.Barrier(workers)
            self._done = threading.Barrier(workers)
            for w in range(1, workers):
                t = threading.Thread(target=self._helper_loop, args=(w,), daemon=True)
                t.start()
                self._threads.append(t)

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False

    def shutdown(self) -> None:
        if self.workers > 1 and not self._shutdown:
            self._shutdown = True
            self._job = None
            self._start.wait()
            for t in self._threads:
                t.join(timeout=10.0)

    def _helper_loop(self, w: int) -> None:
        while True:
            self._start.wait()
            job = self._job
            if job is None:
                return
            try:
                self._execute(w, job)
            except BaseException as exc:  # propagate after the join barrier
                self._errors[w] = exc
            self._done.wait()

    # -- dispatch ----------------------------------------------------------

    def run_static(self, n_items: int, body) -> RegionRecord:
        """body(lo, hi, ctx) once per worker over its contiguous item range."""
        job = ("static", body, n_items, 0, None, static_ranges(n_items, self.workers), False)
        return self._dispatch(job, schedulable=n_items)

    def run_dynamic(self, n_items: int, grain: int, body, record_claims: bool = False) -> RegionRecord:
        """body(lo, hi, ctx) per claimed block of at most `grain` items."""
        if grain < 1:
            raise ValueError("grain must be >= 1")
        job = ("dynamic", body, n_items, grain, _Cursor(), None, record_claims)
        chunks = -(-n_items // grain)
        return self._dispatch(job, schedulable=chunks)

    def _dispatch(self, job, schedulable: int) -> RegionRecord:
        n_items = job[2]
        self._stats = [WorkerStats() for _ in range(self.workers)]
        self._errors = [None] * self.workers
        self._claim_logs = [[] if job[6] else None for _ in range(self.workers)]
        t0 = time.perf_counter()
        if self.workers == 1:
            self._execute(0, job)
        else:
            self._job = job
            self._start.wait()
            try:
                self._execute(0, job)
            except BaseException as exc:
                self._errors[0] = exc
            self._done.wait()
        elapsed = time.perf_counter() - t0
        for err in self._errors:
            if err is not None:
                raise err
        claim_log = None
        if job[6]:
            claim_log = [entry for log in self._claim_logs for entry in log]
        return RegionRecord(
            items=n_items,
            schedulable_chunks=schedulable,
            elapsed=elapsed,
            workers=self._stats,
            claim_log=claim_log,
        )

    def _execute(self, w: int, job) -> None:
        kind, body, n_items, grain, cursor, ranges, record_claims = job
        ctx = self.contexts[w]
        ctx.counter.reset()
        stats = self._stats[w]
        clock = time.perf_counter
        if kind == "static":
            lo, hi = ranges[w]
            if hi > lo:
                t0 = clock()
                body(lo, hi, ctx)
                stats.busy += clock() - t0
                stats.iterations += hi - lo
                stats.claims += hi - lo
        else:
            log = self._claim_logs[w]
            while True:
                with cursor.lock:
                    lo = cursor.value
                    cursor.value = lo + grain
                if lo >= n_items:
                    break
                hi = min(lo + grain, n_items)
                if log is not None:
                    log.append((lo, w))
                t0 = clock()
                body(lo, hi, ctx)
                stats.busy += clock() - t0
                stats.iterations += hi - lo
                stats.claims += 1
        stats.alloc_events = ctx.counter.alloc_events
