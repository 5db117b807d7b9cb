"""Partitioning, claim accounting, and instrumentation of the worker pool."""

import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellbench import (
    AllocationMode,
    RegionRecord,
    WorkerPool,
    WorkerStats,
    static_ranges,
    vector_ops,
)

from conftest import run_python, total_iterations


# ---------------------------------------------------------------- splits

@given(st.integers(0, 500), st.integers(1, 64))
def test_static_ranges_partition_the_space(n, workers):
    ranges = static_ranges(n, workers)
    assert len(ranges) == workers
    lo = 0
    for a, b in ranges:
        assert a == lo and b >= a
        lo = b
    assert lo == n
    sizes = [b - a for a, b in ranges]
    assert max(sizes) - min(sizes) <= 1
    # remainder goes to the lowest-indexed workers
    assert sizes == sorted(sizes, reverse=True)
    assert max(sizes) == -(-n // workers) if n else True


def test_static_ranges_example():
    assert static_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]


# ---------------------------------------------------------------- static

def test_run_static_covers_each_item_once():
    with WorkerPool(4) as pool:
        seen = [[] for _ in range(4)]

        def body(lo, hi, ctx):
            seen[ctx.index].append((lo, hi))

        record = pool.run_static(11, body)
    assert [r for rs in seen for r in rs] == static_ranges(11, 4)
    assert total_iterations(record) == 11
    # static claims count items, so claims sum to the schedulable total
    assert record.total_claims == 11
    assert record.claim_log is None
    assert [w.iterations for w in record.workers] == [3, 3, 3, 2]


def test_run_static_skips_idle_workers():
    with WorkerPool(4) as pool:
        calls = []

        def body(lo, hi, ctx):
            calls.append(ctx.index)

        record = pool.run_static(2, body)
    assert sorted(calls) == [0, 1]
    assert [w.iterations for w in record.workers] == [1, 1, 0, 0]
    assert record.workers[3].busy == 0.0


# ---------------------------------------------------------------- dynamic

@given(st.integers(1, 200), st.integers(1, 32), st.integers(1, 4))
def test_run_dynamic_covers_each_item_once(n, grain, workers):
    pool = WorkerPool(workers)
    try:
        seen = [[] for _ in range(workers)]

        def body(lo, hi, ctx):
            seen[ctx.index].extend(range(lo, hi))

        record = pool.run_dynamic(n, grain, body)
    finally:
        pool.shutdown()
    flat = sorted(x for s in seen for x in s)
    assert flat == list(range(n))
    assert record.total_claims == -(-n // grain)
    assert total_iterations(record) == n


def test_run_dynamic_claim_log():
    with WorkerPool(2) as pool:
        record = pool.run_dynamic(10, 3, lambda lo, hi, ctx: None)
    assert record.total_claims == 4
    assert len(record.claim_log) == 4
    assert sorted(lo for lo, _ in record.claim_log) == [0, 3, 6, 9]
    assert all(w in (0, 1) for _, w in record.claim_log)


def test_dynamic_claims_survive_forced_thread_switches():
    # more workers than cores, switching threads as often as the interpreter
    # allows: every block is still handed out, run and logged exactly once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(6) as pool:
            seen = [[] for _ in range(6)]
            record = pool.run_dynamic(3000, 1, lambda lo, hi, ctx: seen[ctx.index].append(lo))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(x for s in seen for x in s) == list(range(3000))
    assert sorted(lo for lo, _ in record.claim_log) == list(range(3000))
    assert [w.claims for w in record.workers] == [len(s) for s in seen]


def test_run_dynamic_rejects_bad_grain():
    with WorkerPool(1) as pool:
        with pytest.raises(ValueError):
            pool.run_dynamic(10, 0, lambda lo, hi, ctx: None)


# ---------------------------------------------------------------- timing

def test_elapsed_bounds_busy():
    with WorkerPool(2) as pool:
        record = pool.run_static(2, lambda lo, hi, ctx: time.sleep(0.01))
    busiest = max(w.busy for w in record.workers)
    assert busiest >= 0.01
    assert record.elapsed >= busiest


def test_single_worker_runs_inline():
    with WorkerPool(1) as pool:
        idents = []
        pool.run_static(3, lambda lo, hi, ctx: idents.append(threading.get_ident()))
    assert idents == [threading.get_ident()]


# ---------------------------------------------------------------- counters

def test_allocation_events_are_harvested_per_worker():
    with WorkerPool(2) as pool:

        def body(lo, hi, ctx):
            ops = vector_ops(AllocationMode.TEMPORARY_ALLOCATING, ctx.stats)
            for _ in range(lo, hi):
                ops.sub([1.0] * 3, [0.0] * 3)

        record = pool.run_static(6, body)
        assert [w.alloc_events for w in record.workers] == [3, 3]
        assert record.total_alloc_events == 6

        # stats are fresh at every dispatch: an allocation-free body reads zero
        record = pool.run_static(6, lambda lo, hi, ctx: None)
        assert record.total_alloc_events == 0


def test_records_sum_every_worker_field_but_not_elapsed():
    a = RegionRecord(elapsed=1.0,
                     workers=[WorkerStats(0.5, 3, 1, 7), WorkerStats(0.25, 1, 1, 0)])
    b = RegionRecord(elapsed=2.0,
                     workers=[WorkerStats(0.125, 2, 2, 1), WorkerStats(1.0, 4, 1, 2)])
    total = RegionRecord.empty(2)
    total.add(a)
    total.add(b)
    assert total.elapsed == 0.0
    assert total.workers == [WorkerStats(0.625, 5, 3, 8), WorkerStats(1.25, 5, 2, 2)]
    assert a.workers[0] == WorkerStats(0.5, 3, 1, 7)  # the summands are unchanged
    with pytest.raises(ValueError):
        total.add(RegionRecord.empty(3))  # worker counts must match


# ---------------------------------------------------------------- errors

@pytest.mark.parametrize("workers", [1, 3])
def test_body_exceptions_propagate(workers):
    pool = WorkerPool(workers)
    try:
        def body(lo, hi, ctx):
            raise RuntimeError(f"boom in {ctx.index}")

        with pytest.raises(RuntimeError, match="boom in 0"):  # worker 0's error first
            pool.run_static(workers * 2, body)

        # the pool survives a failed region and can dispatch again
        record = pool.run_static(4, lambda lo, hi, ctx: None)
        assert total_iterations(record) == 4
    finally:
        pool.shutdown()


def test_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_shutdown_is_idempotent():
    pool = WorkerPool(2)
    pool.shutdown()
    pool.shutdown()


def test_a_pool_keeps_its_helpers_until_shutdown():
    before = set(threading.enumerate())
    pool = WorkerPool(4)
    helpers = set()
    try:
        assert set(threading.enumerate()) == before  # none before the first dispatch
        for _ in range(100):
            pool.run_static(8, lambda lo, hi, ctx: None)
            helpers |= set(threading.enumerate()) - before
    finally:
        pool.shutdown()
    assert 1 <= len(helpers) <= 3  # reused, never replaced
    assert not any(t.is_alive() for t in helpers)


def test_dispatch_after_shutdown_raises():
    # a pool that waited here for its helpers would hang the suite, so the
    # dispatch runs in a child process with a timeout
    code = ("import cellbench as cb\n"
            "pool = cb.WorkerPool(2)\n"
            "pool.shutdown()\n"
            "try:\n"
            "    pool.run_static(2, lambda lo, hi, ctx: None)\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n")
    proc = run_python(code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "shutdown" in proc.stdout
