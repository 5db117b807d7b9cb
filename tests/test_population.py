"""Division determinism, storage-order strategies, and the locality metric."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellbench as cb
from cellbench import (
    CapacityError,
    DomainError,
    InteractionParams,
    MechanicsSchedule,
    ScheduleKind,
    StorageKind,
    StorageOrder,
    WorkerPool,
    attempt_divisions,
    division_draws,
    locality_metric,
    sort_cells_by_voxel,
    update_velocities,
)

from cellbench.population import _division_probabilities, _mix64

from conftest import check_consistent, make_container


# ---------------------------------------------------------------- rng

def test_draws_are_deterministic():
    assert division_draws(42, 7, 3) == division_draws(42, 7, 3)
    assert division_draws(42, 7, 3) != division_draws(42, 7, 4)
    assert division_draws(42, 7, 3) != division_draws(42, 8, 3)
    assert division_draws(41, 7, 3) != division_draws(42, 7, 3)


@given(st.integers(0, 2**63), st.integers(0, 10**6), st.integers(0, 10**6))
def test_draws_are_unit_interval(seed, cid, step):
    triple = division_draws(seed, cid, step)
    assert len(triple) == 3
    for u in triple:
        assert 0.0 <= u < 1.0


def test_draws_spread_out():
    us = [division_draws(1, i, 0)[0] for i in range(1000)]
    assert len({round(u, 6) for u in us}) > 990
    assert 0.4 < sum(us) / len(us) < 0.6


def test_mix64_array_path_matches_the_masked_int_path():
    # the uint64 path drops the masks, relying on numpy's wrapping arithmetic
    edges = [0, 1, 2**63, 2**64 - 1]
    ids = edges + np.random.default_rng(4).integers(0, 2**64, 200, dtype=np.uint64).tolist()
    got = _mix64(np.array(ids, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [_mix64(i) for i in ids]
    # the input array is not written
    x = np.array(edges, dtype=np.uint64)
    _mix64(x)
    assert x.tolist() == edges


# ---------------------------------------------------------------- division

def populated(mesh, n=6, rate=0.0, radius=8.0):
    positions = [(15.0 + 8.0 * i, 40.0, 40.0) for i in range(n)]
    return make_container(mesh, positions, radius=radius, division_rate=rate)


def test_no_rate_means_no_divisions(small_mesh):
    cont = populated(small_mesh, rate=0.0)
    daughters = attempt_divisions(cont, seed=1, dt=1.0, mesh=small_mesh, step=0)
    assert len(daughters) == 0
    assert len(cont) == 6
    assert not cont.positions_dirty


def test_certain_division_doubles_the_population(small_mesh):
    cont = populated(small_mesh, rate=50.0)  # p = 1 - e^-50 ~ 1
    daughters = attempt_divisions(cont, seed=1, dt=1.0, mesh=small_mesh, step=0)
    assert len(daughters) == 6
    assert len(cont) == 12
    assert not cont.positions_dirty  # rebinned internally
    check_consistent(cont)

    # fresh ids above every existing id, assigned in parent-id order
    assert list(daughters) == list(range(6, 12))
    # appended at the end: the highest storage indices, in order
    assert cont.ids[6:].tolist() == list(daughters)


def test_daughter_copies_parent_and_sits_half_radius_away(small_mesh):
    cont = populated(small_mesh, n=1, rate=50.0, radius=7.0)
    cont.velocities[0] = [0.5, -0.25, 1.0]
    (daughter_id,) = attempt_divisions(cont, seed=9, dt=1.0, mesh=small_mesh, step=4)
    parent, daughter = cont.cells
    assert daughter.id == daughter_id
    assert daughter.radius == parent.radius
    assert daughter.division_rate == parent.division_rate
    assert daughter.velocity.tolist() == parent.velocity.tolist()
    assert daughter.velocity is not parent.velocity
    d = math.dist(daughter.position, parent.position)
    assert d == pytest.approx(3.5, rel=1e-12)  # R/2, no clamping this far in


def test_daughters_sit_where_the_scalar_draws_put_them(small_mesh):
    # oracle: the parent-id-ordered dividers and the placement of each
    # daughter, straight from `division_draws` and Python floats
    rate, dt, seed, step = 1.5, 1.0, 5, 2
    cont = populated(small_mesh, rate=rate)
    cont.take(np.arange(len(cont))[::-1])
    cb.rebin_cells(cont)
    p = 1.0 - math.exp(-rate * dt)
    expected = []
    for c in sorted(cont.cells, key=lambda c: c.id):
        decide, uz, uphi = division_draws(seed, c.id, step)
        if decide < p:
            z = 2.0 * uz - 1.0
            rho = math.sqrt(max(0.0, 1.0 - z * z))
            phi = 2.0 * math.pi * uphi
            px, py, pz = c.position.tolist()
            position = np.array([[px + 0.5 * c.radius * rho * math.cos(phi),
                                  py + 0.5 * c.radius * rho * math.sin(phi),
                                  pz + 0.5 * c.radius * z]])
            small_mesh.clamp_inside(position)
            expected.append(position[0].tolist())
    daughters = attempt_divisions(cont, seed=seed, dt=dt, mesh=small_mesh, step=step)
    assert 0 < len(expected) < 6
    assert cont.positions[-len(daughters):].tolist() == expected


def test_probability_matches_the_draw_rule(small_mesh):
    # oracle: recount dividers straight from the hazard formula
    rate, dt, seed, step = 0.2, 0.5, 123, 17
    cont = populated(small_mesh, rate=rate)
    p = 1.0 - math.exp(-rate * dt)
    expected = sorted(
        c.id for c in cont.cells if division_draws(seed, c.id, step)[0] < p
    )
    daughters = attempt_divisions(cont, seed=seed, dt=dt, mesh=small_mesh,
                                  step=step)
    parents_of = list(range(6, 6 + len(expected)))
    assert list(daughters) == parents_of
    assert len(daughters) == len(expected)


def test_divisions_ignore_storage_order(small_mesh):
    outcomes = []
    for reverse in (False, True):
        cont = populated(small_mesh, rate=1.5)
        if reverse:
            cont.take(np.arange(len(cont))[::-1])
            cb.rebin_cells(cont)
        daughters = attempt_divisions(cont, seed=5, dt=1.0, mesh=small_mesh,
                                      step=2)
        outcomes.append([(c.id, tuple(c.position)) for c in cont.cells
                         if c.id in daughters])
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]  # the seed was chosen so somebody divides


def test_capacity_error_fires_before_any_append(small_mesh):
    cont = populated(small_mesh, rate=50.0)
    with pytest.raises(CapacityError):
        attempt_divisions(cont, seed=1, dt=1.0, mesh=small_mesh, step=0, cap=8)
    assert len(cont) == 6  # nothing was half-applied
    check_consistent(cont)


@pytest.mark.parametrize("rates", [[0.13] * 7, [0.5, 0.13, 0.5, 2.0, 0.13, 1e-9, 2.0, 0.5],
                                   [3.0], list(np.random.default_rng(2).uniform(0.01, 3.0, 40))])
def test_division_probabilities_match_one_exp_per_rate_loop(rates):
    rates, dt = np.array(rates), 0.7
    want = np.empty(len(rates))
    for rate in set(rates.tolist()):
        want[rates == rate] = 1.0 - math.exp(-rate * dt)
    assert _division_probabilities(rates, dt).tobytes() == want.tobytes()


def test_division_rejects_bad_dt(small_mesh):
    cont = populated(small_mesh, rate=1.0)
    with pytest.raises(DomainError):
        attempt_divisions(cont, seed=1, dt=0.0, mesh=small_mesh, step=0)


def test_daughters_are_clamped_inside(small_mesh):
    cont = make_container(small_mesh, [(79.9, 79.9, 79.9)], radius=8.0,
                          division_rate=50.0)
    for step in range(6):
        attempt_divisions(cont, seed=3, dt=1.0, mesh=small_mesh, step=step,
                          cap=100)
    p = cont.positions
    assert ((small_mesh.lower_bounds <= p) & (p < small_mesh.upper_bounds)).all()


# ---------------------------------------------------------------- storage order

def test_storage_order_literals():
    assert StorageOrder(StorageKind.APPEND_ORDER).every == 50  # unused for append
    assert StorageOrder(StorageKind.VOXEL_SORTED, 10).every == 10
    with pytest.raises(DomainError):
        StorageOrder(StorageKind.VOXEL_SORTED, 0)


def test_sort_cells_by_voxel_orders_storage(small_mesh):
    # ids 0, 1, 2: the high voxel has the lowest id
    cont = make_container(small_mesh, [(70.0, 70.0, 70.0), (10.0, 10.0, 10.0),
                                       (11.0, 10.0, 10.0)])
    sort_cells_by_voxel(cont)
    assert cont.ids.tolist() == [1, 2, 0]
    assert cont.positions[2].tolist() == [70.0, 70.0, 70.0]
    check_consistent(cont)
    # idempotent
    sort_cells_by_voxel(cont)
    assert cont.ids.tolist() == [1, 2, 0]


def test_sorting_never_changes_velocities(small_mesh):
    cont = populated(small_mesh, n=8)
    with WorkerPool(2) as pool:
        update_velocities(cont, small_mesh, InteractionParams(),
                          MechanicsSchedule(ScheduleKind.CELL_STATIC), pool)
        before = {c.id: tuple(c.velocity) for c in cont.cells}
        sort_cells_by_voxel(cont)
        update_velocities(cont, small_mesh, InteractionParams(),
                          MechanicsSchedule(ScheduleKind.CELL_STATIC), pool)
    after = {c.id: tuple(c.velocity) for c in cont.cells}
    assert before == after  # bitwise: accumulation order is id-based


# ---------------------------------------------------------------- locality

def test_locality_of_a_storage_ordered_chain(small_mesh):
    # three cells in a line, each in range only of its storage neighbor:
    # every in-range pair is 1 storage slot apart, so L == 1
    cont = make_container(small_mesh, [
        (1.0, 10.0, 10.0), (16.0, 10.0, 10.0), (31.0, 10.0, 10.0),
    ], radius=8.0)
    assert locality_metric(cont) == 1.0


def test_locality_counts_only_in_range_neighbors(small_mesh):
    cont = make_container(small_mesh, [
        (10.0, 10.0, 10.0), (70.0, 70.0, 70.0),
    ])
    assert locality_metric(cont) == 0.0  # nobody interacts


def test_locality_reflects_storage_scatter(small_mesh):
    # same geometry, two layouts: scattered storage raises the metric
    positions = [(1.0 + 7.0 * i, 10.0, 10.0) for i in range(8)]
    tidy = make_container(small_mesh, positions)
    scattered = cb.CellContainer(small_mesh)
    scattered.add_cells(positions)
    scattered.take([0, 4, 1, 5, 2, 6, 3, 7])
    cb.rebin_cells(scattered)
    assert locality_metric(scattered) > locality_metric(tidy)


def test_sort_lowers_locality_after_divisions(small_mesh):
    cont = make_container(small_mesh, [
        (20.0 + 10.0 * i, 40.0, 40.0) for i in range(5)
    ], radius=8.0, division_rate=2.0)
    for step in range(4):
        attempt_divisions(cont, seed=8, dt=1.0, mesh=small_mesh, step=step,
                          cap=500)
    assert len(cont) > 15
    appended = locality_metric(cont)
    sort_cells_by_voxel(cont)
    sorted_l = locality_metric(cont)
    assert sorted_l < appended
