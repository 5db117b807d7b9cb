"""Efficiency hierarchy, computation scalability, and the chunk model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellbench as cb
from cellbench import (
    DomainError,
    InconsistentTraceError,
    RegionTiming,
    UndefinedMetricError,
    aggregate_timings,
    chunk_lb_model,
    chunk_speedup_model,
    communication_efficiency,
    computation_scalability,
    load_balance,
    parallel_efficiency,
)

busy_times = st.lists(st.floats(0.001, 100.0), min_size=1, max_size=16)


@st.composite
def traces(draw):
    busy = tuple(draw(busy_times))
    slack = draw(st.floats(0.0, 10.0))
    return RegionTiming(region="r", busy=busy, elapsed=max(busy) + slack)


# ---------------------------------------------------------------- hierarchy

def test_reference_trace_values():
    t = RegionTiming("solver", busy=(10.0, 10.0, 20.0), elapsed=25.0)
    assert load_balance(t) == pytest.approx(0.6667, abs=5e-5)
    assert load_balance(t) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert communication_efficiency(t) == pytest.approx(0.8, rel=1e-12)
    assert parallel_efficiency(t) == pytest.approx(0.5333, abs=5e-5)


@given(traces())
def test_parallel_efficiency_factorizes_exactly(t):
    # identical float product, not merely close
    assert parallel_efficiency(t) == load_balance(t) * communication_efficiency(t)


def test_single_worker_balance_is_exactly_one():
    t = RegionTiming("r", busy=(3.7,), elapsed=4.0)
    assert load_balance(t) == 1.0


@given(st.floats(0.001, 100.0), st.integers(2, 8), st.floats(0.0, 5.0))
def test_equal_busy_times_give_perfect_balance(b, workers, slack):
    # mean-of-ties can land one ulp under the peak; never over (clamped)
    t = RegionTiming("r", busy=(b,) * workers, elapsed=b + slack)
    assert load_balance(t) == pytest.approx(1.0, rel=1e-12)
    assert load_balance(t) <= 1.0


def test_zero_overhead_gives_perfect_communication():
    t = RegionTiming("r", busy=(2.0, 1.0), elapsed=2.0)
    assert communication_efficiency(t) == 1.0


@given(traces())
def test_metrics_stay_in_unit_interval(t):
    assert 0.0 < load_balance(t) <= 1.0
    assert 0.0 < communication_efficiency(t) <= 1.0


# ---------------------------------------------------------------- validation

def test_trace_validation():
    with pytest.raises(InconsistentTraceError):
        RegionTiming("r", busy=(), elapsed=1.0)
    with pytest.raises(InconsistentTraceError):
        RegionTiming("r", busy=(-0.1, 1.0), elapsed=1.0)
    with pytest.raises(InconsistentTraceError):
        RegionTiming("r", busy=(2.0,), elapsed=1.0)  # elapsed < max busy


def test_undefined_metrics_raise():
    idle = RegionTiming("r", busy=(0.0, 0.0), elapsed=0.0)
    with pytest.raises(UndefinedMetricError):
        load_balance(idle)
    with pytest.raises(UndefinedMetricError):
        communication_efficiency(idle)
    live = RegionTiming("r", busy=(1.0,), elapsed=1.0)
    with pytest.raises(UndefinedMetricError):
        computation_scalability(idle, live)
    with pytest.raises(UndefinedMetricError):
        computation_scalability(live, idle)


# ---------------------------------------------------------------- scalability

def test_base_case_scores_one_against_itself():
    base = RegionTiming("r", busy=(5.0, 5.0), elapsed=5.5)
    assert computation_scalability(base, base) == 1.0


@given(traces(), traces())
def test_computation_scalability_is_the_busy_time_ratio(base, cur):
    assert computation_scalability(base, cur) == base.total_busy / cur.total_busy


# ---------------------------------------------------------------- aggregation

def test_aggregate_sums_busy_and_elapsed():
    a = RegionTiming("x", busy=(1.0, 2.0), elapsed=2.5)
    b = RegionTiming("y", busy=(3.0, 1.0), elapsed=3.5)
    agg = aggregate_timings([a, b])
    assert agg.region == "all"
    assert agg.busy == (4.0, 3.0)
    assert agg.elapsed == 6.0


def test_aggregate_rejects_mixed_worker_counts():
    a = RegionTiming("x", busy=(1.0,), elapsed=1.0)
    b = RegionTiming("y", busy=(1.0, 1.0), elapsed=1.0)
    with pytest.raises(InconsistentTraceError):
        aggregate_timings([a, b])
    with pytest.raises(UndefinedMetricError):
        aggregate_timings([])


def test_timing_from_record_lifts_pool_output():
    with cb.WorkerPool(2) as pool:
        record = pool.run_static(10, lambda lo, hi, ctx: None)
    t = cb.timing_from_record("demo", record)
    assert t.workers == 2
    assert t.busy == tuple(w.busy for w in record.workers)
    assert t.elapsed == record.elapsed
    assert t.region == "demo"


# ---------------------------------------------------------------- chunk model

def test_chunk_model_frozen_values():
    assert chunk_lb_model(75, 48) == 0.78125
    assert chunk_lb_model(5625, 48) == pytest.approx(5625.0 / 5664.0, rel=1e-12)
    assert chunk_lb_model(5625, 48) == pytest.approx(0.993114, abs=5e-7)


@given(st.integers(1, 64))
def test_chunk_model_perfect_when_divisible(k):
    assert chunk_lb_model(75 * k, 75) == 1.0
    assert chunk_lb_model(8 * k, 8) == 1.0


@given(st.integers(1, 10000), st.integers(1, 128))
def test_chunk_model_analytic_form(n, t):
    per = math.ceil(n / t)
    assert chunk_lb_model(n, t) == pytest.approx(n / (t * per), rel=1e-12)
    assert 0.0 < chunk_lb_model(n, t) <= 1.0
    assert chunk_speedup_model(n, t) == pytest.approx(
        t * chunk_lb_model(n, t), rel=1e-12)


def test_chunk_model_is_not_monotone_in_workers():
    # 75 chunks: 8 workers round up to 10 chunks each, 11 workers to 7;
    # adding workers can IMPROVE balance.
    assert chunk_lb_model(75, 8) == 0.9375
    assert chunk_lb_model(75, 11) == pytest.approx(75.0 / 77.0, rel=1e-12)
    assert chunk_lb_model(75, 11) > chunk_lb_model(75, 8)


def test_chunk_speedup_plateaus_between_divisor_steps():
    # speedup is N / ceil(N/T): flat wherever the ceiling does not move
    assert chunk_speedup_model(75, 11) == chunk_speedup_model(75, 12)
    assert chunk_speedup_model(75, 13) > chunk_speedup_model(75, 12)


def test_chunk_model_rejects_degenerate_input():
    with pytest.raises(DomainError):
        chunk_lb_model(0, 4)
    with pytest.raises(DomainError):
        chunk_lb_model(4, 0)

