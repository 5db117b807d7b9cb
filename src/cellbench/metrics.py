"""Hierarchical parallel-efficiency metrics over per-worker region timings.

The model is multiplicative: parallel efficiency splits into load balance
(mean busy over max busy) and communication efficiency (max busy over region
wall time, absorbing fork/join and scheduling overhead).  Against a base-case
run, computation scalability is the base's total busy time over the current
one's.  The finer instruction, IPC and frequency terms of the hierarchy need
hardware counters, which no run records, so they are not computed.

`chunk_lb_model` is the closed-form load balance of statically even-split
uniform chunks: N/(T*ceil(N/T)).  It predicts the staircase scalability of
coarse-grained loops (75 chunks over tens of workers) and the near-flat
profile after collapsing to thousands of chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InconsistentTraceError, UndefinedMetricError


@dataclass(frozen=True)
class RegionTiming:
    """One instrumented region: per-worker busy seconds inside one wall-time span."""

    region: str
    busy: tuple[float, ...]
    elapsed: float

    def __post_init__(self):
        if len(self.busy) < 1:
            raise InconsistentTraceError("region timing needs at least one worker")
        if any(b < 0.0 for b in self.busy):
            raise InconsistentTraceError("negative busy time in region %r" % self.region)
        if self.elapsed < max(self.busy):
            raise InconsistentTraceError(
                "region %r elapsed %.9f below max busy %.9f"
                % (self.region, self.elapsed, max(self.busy))
            )

    @property
    def workers(self) -> int:
        return len(self.busy)

    @property
    def total_busy(self) -> float:
        return sum(self.busy)


def timing_from_record(region: str, record) -> RegionTiming:
    """Lift a pool RegionRecord into a RegionTiming."""
    return RegionTiming(region=region, busy=tuple(w.busy for w in record.workers),
                        elapsed=record.elapsed)


def aggregate_timings(timings: Sequence[RegionTiming], region: str = "all") -> RegionTiming:
    """Time-weighted aggregate: per-worker busy and elapsed sum over regions."""
    if not timings:
        raise UndefinedMetricError("cannot aggregate zero regions")
    workers = timings[0].workers
    if any(t.workers != workers for t in timings):
        raise InconsistentTraceError("aggregation requires a fixed worker count")
    busy = tuple(sum(t.busy[w] for t in timings) for w in range(workers))
    elapsed = sum(t.elapsed for t in timings)
    return RegionTiming(region=region, busy=busy, elapsed=elapsed)


# -- the efficiency hierarchy ------------------------------------------------


def load_balance(t: RegionTiming) -> float:
    peak = max(t.busy)
    if peak == 0.0:
        raise UndefinedMetricError("load balance undefined for all-zero busy times")
    # summation rounding can push mean a hair past max when all workers tie
    return min(1.0, (t.total_busy / t.workers) / peak)


def communication_efficiency(t: RegionTiming) -> float:
    if t.elapsed <= 0.0:
        raise UndefinedMetricError("communication efficiency needs elapsed > 0")
    return max(t.busy) / t.elapsed


def parallel_efficiency(t: RegionTiming) -> float:
    return load_balance(t) * communication_efficiency(t)


def computation_scalability(base: RegionTiming, cur: RegionTiming) -> float:
    """Base-case total busy time over the current total: above 1 when the work shrank."""
    if cur.total_busy == 0.0 or base.total_busy == 0.0:
        raise UndefinedMetricError("computation scalability undefined for zero busy time")
    return base.total_busy / cur.total_busy


# -- analytic chunk-granularity model ----------------------------------------


def chunk_lb_model(n_chunks: int, workers: int) -> float:
    """Load balance of N uniform chunks statically even-split over T workers."""
    if n_chunks < 1 or workers < 1:
        raise DomainError("chunk model needs N >= 1 and T >= 1")
    per_worker = -(-n_chunks // workers)
    return n_chunks / (workers * per_worker)


def chunk_speedup_model(n_chunks: int, workers: int) -> float:
    """Modeled speedup T*LB = N/ceil(N/T) of the same schedule.

    Computed in the N/ceil form so worker counts sharing a ceiling land on the
    same plateau value bit-for-bit.
    """
    if n_chunks < 1 or workers < 1:
        raise DomainError("chunk model needs N >= 1 and T >= 1")
    per_worker = -(-n_chunks // workers)
    return n_chunks / per_worker

