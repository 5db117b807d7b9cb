"""Allocation-event accounting rules and bit-identity of the two vector modes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cellbench import (
    AllocationMode,
    WorkerPool,
    WorkerStats,
    smallvec,
    vector_ops,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vec = st.tuples(finite, finite, finite).map(list)


def fresh(mode):
    counter = WorkerStats()
    return vector_ops(mode, counter), counter


def test_bound_scaled_sum_costs_four_events_temp():
    # v = a * (v2 - v1) as the velocity program binds it, acc = 0.0,
    # acc = acc + a * (v2 - v1), v = acc: one temporary for the displacement,
    # one for the product, one for the accumulator, one for the binding.
    ops, counter = fresh(AllocationMode.TEMPORARY_ALLOCATING)
    v1, v2 = [1.0, 2.0, 3.0], [6.0, 8.0, 10.0]
    v = np.zeros((1, 3))
    ops.add_at(v, np.zeros(1, np.intp), ops.scale(0.5, ops.sub(v2, v1))[None])
    assert counter.alloc_events == 4
    assert v.tolist() == [[2.5, 3.0, 3.5]]


def test_scaled_sum_in_place_costs_zero_events():
    ops, counter = fresh(AllocationMode.IN_PLACE)
    v1, v2 = [1.0, 2.0, 3.0], [6.0, 8.0, 10.0]
    work, v = np.zeros(3), np.zeros((1, 3))
    ops.add_at(v, np.zeros(1, np.intp), ops.scale(0.5, ops.sub(v2, v1, work), work)[None])
    assert counter.alloc_events == 0
    assert v.tolist() == [[2.5, 3.0, 3.5]]


def test_every_vector_valued_operator_is_one_event():
    ops, counter = fresh(AllocationMode.TEMPORARY_ALLOCATING)
    a, b = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    ops.sub(a, b)
    ops.scale(2.0, a)
    assert counter.alloc_events == 2


def test_bound_nested_sums_cost_five_events():
    # v = (v1 - v0) + (v3 - v2) as acc = 0.0, acc = acc + (v1 - v0),
    # acc = acc + (v3 - v2), v = acc: two temporaries, two accumulators and
    # one binding
    ops, counter = fresh(AllocationMode.TEMPORARY_ALLOCATING)
    v = [[float(i * i), 0.0, 0.0] for i in range(4)]
    pairs = np.stack([ops.sub(v[1], v[0]), ops.sub(v[3], v[2])])
    total = np.zeros((1, 3))
    ops.add_at(total, np.zeros(2, np.intp), pairs)
    assert counter.alloc_events == 5
    assert total.tolist() == [[6.0, 0.0, 0.0]]


def test_norm_returns_one_length_per_vector():
    # norm takes no stats record: it is scalar-valued and counts nothing
    assert smallvec.norm([3.0, 4.0, 0.0]) == 5.0
    batch = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0], [1.0, 2.0, 2.0]])
    assert smallvec.norm(batch).tolist() == [5.0, 2.0, 3.0]


@pytest.mark.parametrize("mode", list(AllocationMode))
def test_scalar_valued_operators_record_nothing(mode):
    # Taking the norm of a mode's result leaves that mode's count unchanged.
    ops, counter = fresh(mode)
    r = ops.sub([3.0, 0.0, 0.0], [0.0, -4.0, 0.0], np.zeros(3))
    events = counter.alloc_events
    assert smallvec.norm(r) == 5.0
    assert smallvec.norm(np.stack([r, r])).tolist() == [5.0, 5.0]
    assert counter.alloc_events == events


def test_in_place_operators_return_their_out_argument():
    ops, _ = fresh(AllocationMode.IN_PLACE)
    out = np.zeros(3)
    assert ops.scale(2.0, [1.0, 2.0, 3.0], out) is out
    assert ops.sub([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], out) is out


@given(s=finite, v1=vec, v2=vec, v3=vec)
def test_modes_are_bit_identical(s, v1, v2, v3):
    # Same expression, same operation order: s*(v2-v1) - v3, then a norm.
    ta, _ = fresh(AllocationMode.TEMPORARY_ALLOCATING)
    ip, _ = fresh(AllocationMode.IN_PLACE)
    w1, w2 = np.zeros(3), np.zeros(3)

    r_temp = ta.sub(ta.scale(s, ta.sub(v2, v1)), v3)
    r_inpl = ip.sub(ip.scale(s, ip.sub(v2, v1, w1), w1), v3, w2)
    assert r_temp.tolist() == r_inpl.tolist()
    assert smallvec.norm(r_temp) == smallvec.norm(r_inpl)


@given(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.5, -2.25]) | finite, max_size=4),
                max_size=5))
def test_add_at_matches_the_scalar_program(runs):
    # each run's components summed from 0.0 in order; -0.0 terms and empty
    # runs included
    segment = np.array([k for k, run in enumerate(runs) for _ in run], dtype=np.intp)
    terms = np.array([[x, -x, 0.5 * x] for run in runs for x in run]).reshape(-1, 3)
    expected = []
    for run in runs:
        acc = [0.0, 0.0, 0.0]
        for x in run:
            acc = [acc[0] + x, acc[1] + -x, acc[2] + 0.5 * x]
        expected.append(acc)
    for mode in AllocationMode:
        ops, counter = fresh(mode)
        sums = np.zeros((len(runs), 3))
        ops.add_at(sums, segment, terms)
        assert np.array(expected).reshape(-1, 3).tobytes() == sums.tobytes()
        in_temp = mode is AllocationMode.TEMPORARY_ALLOCATING
        # one event per term added, one per run bound to its result
        assert counter.alloc_events == in_temp * (len(terms) + sum(1 for r in runs if r))


@given(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 1.5, -2.25]) | finite, max_size=5),
                max_size=5),
       st.randoms(use_true_random=False))
def test_add_at_with_empty_rows_and_interleaved_terms(segments, rnd):
    # the scalar program adds a row's terms from 0.0 in array order; the
    # rows' terms arrive interleaved and unsorted by row, split over two
    # calls, and a row with no term keeps its +0.0
    rows = [(k, x) for k, run in enumerate(segments) for x in run]
    rnd.shuffle(rows)
    cut = rnd.randint(0, len(rows))
    segment = np.array([k for k, _ in rows], dtype=np.intp)
    terms = np.array([[x, -x, 0.5 * x] for _, x in rows]).reshape(-1, 3)
    expected = []
    for k in range(len(segments)):
        acc = [0.0, 0.0, 0.0]
        for _, x in (row for row in rows if row[0] == k):
            acc = [acc[0] + x, acc[1] + -x, acc[2] + 0.5 * x]
        expected.append(acc)
    for mode in AllocationMode:
        ops, counter = fresh(mode)
        sums = np.zeros((len(segments), 3))
        ops.add_at(sums, segment[:cut], terms[:cut])
        ops.add_at(sums, segment[cut:], terms[cut:])
        assert np.array(expected).reshape(-1, 3).tobytes() == sums.tobytes()
        in_temp = mode is AllocationMode.TEMPORARY_ALLOCATING
        assert counter.alloc_events == in_temp * (len(terms) + sum(1 for r in segments if r))
        # subtracting a term adds its negation, bit for bit
        ops, _ = fresh(mode)
        negated = np.zeros_like(sums)
        ops.add_at(negated, segment, -terms, subtract=True)
        assert negated.tobytes() == sums.tobytes()


def test_counter_reset_and_merge():
    # the pool counts into fresh worker stats per dispatch and sums them
    def body(lo, hi, ctx):
        ops = vector_ops(AllocationMode.TEMPORARY_ALLOCATING, ctx.stats)
        for _ in range(lo, hi):
            ops.sub([0.0] * 3, [0.0] * 3)

    with WorkerPool(2) as pool:
        first = pool.run_static(7, body)
        second = pool.run_static(5, body)
    assert [w.alloc_events for w in first.workers] == [4, 3]
    assert first.total_alloc_events == 7
    assert [w.alloc_events for w in second.workers] == [3, 2]
    assert second.total_alloc_events == 5


def test_vector_ops_rejects_unknown_mode():
    with pytest.raises(ValueError):
        vector_ops("fast", WorkerStats())
