"""Force-law values, schedule equivalence, and allocation accounting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellbench as cb
import cellbench.mechanics as mechanics
from cellbench import (
    EPS_SKIP,
    AllocationMode,
    DomainError,
    InteractionParams,
    MechanicsSchedule,
    NumericError,
    ScheduleKind,
    WorkerPool,
    check_binning_exact,
    integrate_positions,
    update_velocities,
)

from conftest import check_consistent, make_container, total_iterations


#: 4^3 voxels of 30 um centred on the origin: the edge covers the largest
#: reach used below (1.25 * 2 * 10 um), so binning misses no pair.
PAIR_MESH = cb.CartesianMesh(4, 4, 4, dx=30.0, dy=30.0, dz=30.0,
                             origin=(-60.0, -60.0, -60.0))


def pair_velocities(pi, pj, params, ri=8.0, rj=8.0):
    """Velocities `update_velocities` gives two cells that see only each other."""
    cont = make_container(PAIR_MESH, [pi, pj], radius=[ri, rj])
    check_binning_exact(cont, PAIR_MESH, params)
    with WorkerPool(1) as pool:
        update_velocities(cont, PAIR_MESH, params,
                          MechanicsSchedule(ScheduleKind.CELL_STATIC), pool)
    return cont.cells[0].velocity.tolist(), cont.cells[1].velocity.tolist()


# ---------------------------------------------------------------- force law

def test_pair_value_matches_hand_derivation():
    # equal 8.4 um radii, centers one radius apart on x, repulsion only:
    # overlap fraction 1/2, so v = -c_r * (1/2)^2 * unit_x = (-2.5, 0, 0)
    params = InteractionParams(repulsion=10.0, adhesion=0.0,
                               adhesion_multiplier=1.25)
    v, _ = pair_velocities((0.0, 0.0, 0.0), (8.4, 0.0, 0.0), params,
                           ri=8.4, rj=8.4)
    assert v[0] == pytest.approx(-2.5, rel=1e-15)
    assert v[1] == 0.0 and v[2] == 0.0


def test_repulsion_vanishes_at_contact_distance():
    params = InteractionParams(repulsion=10.0, adhesion=0.4,
                               adhesion_multiplier=1.25)
    # d == contact == 16
    v, _ = pair_velocities((0.0, 0.0, 0.0), (16.0, 0.0, 0.0), params)
    adh = 0.4 * (1.0 - 16.0 / 20.0) ** 2
    assert v[0] == pytest.approx(adh, rel=1e-14)  # pure adhesion, attractive
    assert v[0] > 0.0


def test_contribution_is_zero_at_and_beyond_reach():
    params = InteractionParams()
    for x in (20.0, 25.0):
        vi, vj = pair_velocities((0.0, 0.0, 0.0), (x, 0.0, 0.0), params)
        assert vi == [0.0, 0.0, 0.0] and vj == [0.0, 0.0, 0.0]


def test_coincident_cells_are_skipped():
    vi, vj = pair_velocities((0.0, 0.0, 0.0), (0.5 * EPS_SKIP, 0.0, 0.0),
                             InteractionParams())
    assert vi == [0.0, 0.0, 0.0] and vj == [0.0, 0.0, 0.0]


coords = st.floats(-15.0, 15.0)


@given(x1=coords, y1=coords, z1=coords, x2=coords, y2=coords, z2=coords,
       r1=st.floats(4.0, 10.0), r2=st.floats(4.0, 10.0))
def test_pair_contributions_are_exactly_antisymmetric(x1, y1, z1, x2, y2, z2,
                                                      r1, r2):
    vi, vj = pair_velocities((x1, y1, z1), (x2, y2, z2), InteractionParams(),
                             ri=r1, rj=r2)
    # the displacement negates exactly and the scalar factor is shared,
    # so momentum cancels in floating point, not just approximately
    assert vi == [-c for c in vj]


def test_interaction_params_validation():
    with pytest.raises(DomainError):
        InteractionParams(repulsion=-1.0)
    with pytest.raises(DomainError):
        InteractionParams(adhesion_multiplier=0.9)


# ---------------------------------------------------------------- binning

def test_binning_exactness_guard(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)], radius=8.0)
    check_binning_exact(cont, small_mesh, InteractionParams())  # 20 >= 20
    big = make_container(small_mesh, [(10.0, 10.0, 10.0)], radius=8.1)
    with pytest.raises(DomainError):
        check_binning_exact(big, small_mesh, InteractionParams())


# ---------------------------------------------------------------- schedules

def clustered_container(mesh, n=40, seed=2):
    """Deterministic blob of n cells dense enough to interact heavily."""
    positions = []
    for i in range(n):
        u1, u2, u3 = cb.division_draws(seed, i, 0)
        positions.append((10.0 + 50.0 * u1, 10.0 + 50.0 * u2, 10.0 + 50.0 * u3))
    return make_container(mesh, positions, radius=8.0)


ALL_SCHEDULES = [
    MechanicsSchedule(ScheduleKind.CELL_STATIC),
    MechanicsSchedule(ScheduleKind.CELL_DYNAMIC, 4),
    MechanicsSchedule(ScheduleKind.VOXEL, 8),
    MechanicsSchedule(ScheduleKind.NONEMPTY_VOXEL, 2),
]


def velocities_under(mesh, schedule, workers, alloc_mode):
    cont = clustered_container(mesh)
    with WorkerPool(workers) as pool:
        record = update_velocities(cont, mesh, InteractionParams(), schedule,
                                   pool, alloc_mode=alloc_mode)
    return [tuple(c.velocity) for c in cont.cells], record


def test_every_schedule_worker_count_and_mode_agrees_bitwise(small_mesh):
    reference, _ = velocities_under(small_mesh, MechanicsSchedule(ScheduleKind.CELL_STATIC),
                                    1, AllocationMode.IN_PLACE)
    assert any(v != (0.0, 0.0, 0.0) for v in reference)  # cluster interacts
    for schedule in ALL_SCHEDULES:
        for workers in (1, 2, 4):
            for mode in AllocationMode:
                got, _ = velocities_under(small_mesh, schedule, workers, mode)
                assert got == reference, (schedule.kind, workers, mode)


def test_voxel_schedule_iterates_empty_voxels_too(small_mesh):
    cont = clustered_container(small_mesh)
    with WorkerPool(2) as pool:
        r_voxel = update_velocities(cont, small_mesh, InteractionParams(),
                                    MechanicsSchedule(ScheduleKind.VOXEL, 8), pool)
        r_nonempty = update_velocities(cont, small_mesh, InteractionParams(),
                                       MechanicsSchedule(ScheduleKind.NONEMPTY_VOXEL, 2), pool)
        r_cells = update_velocities(cont, small_mesh, InteractionParams(),
                                    MechanicsSchedule(ScheduleKind.CELL_STATIC), pool)
    assert total_iterations(r_voxel) == small_mesh.voxel_count
    assert total_iterations(r_nonempty) == len(cont.nonempty_voxels)
    assert total_iterations(r_nonempty) < total_iterations(r_voxel)
    assert total_iterations(r_cells) == len(cont.cells)


def test_empty_container_is_fine(small_mesh):
    cont = cb.CellContainer(small_mesh)
    with WorkerPool(2) as pool:
        for schedule in ALL_SCHEDULES:
            record = update_velocities(cont, small_mesh, InteractionParams(),
                                       schedule, pool)
    assert record.total_claims == 0


def test_schedule_validation():
    with pytest.raises(DomainError):
        MechanicsSchedule(ScheduleKind.VOXEL, 0)
    assert MechanicsSchedule(ScheduleKind.CELL_DYNAMIC).grain == 16


# ---------------------------------------------------------------- pair kernel

def _moore_adjacent(mesh, u, v):
    shape = (mesh.nz, mesh.ny, mesh.nx)
    return all(abs(a - b) <= 1 for a, b in zip(np.unravel_index(u, shape),
                                                 np.unravel_index(v, shape)))


def scalar_velocities(cont, params):
    """Oracle: every cell's velocity summed with Python floats and `**` over
    all other cells, in ascending id, by the force law's scalar spelling."""
    cells = sorted(cont.cells, key=lambda c: c.id)
    out = {}
    for ci in cells:
        acc = [0.0, 0.0, 0.0]
        pi = ci.position.tolist()
        for cj in cells:
            if cj.id == ci.id:
                continue
            pj = cj.position.tolist()
            dvec = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]]
            d = math.sqrt(dvec[0] * dvec[0] + dvec[1] * dvec[1] + dvec[2] * dvec[2])
            contact = ci.radius + cj.radius
            reach = params.adhesion_multiplier * contact
            if d < EPS_SKIP or d >= reach:
                continue
            rep = -params.repulsion * (1.0 - d / contact) ** 2 if d < contact else 0.0
            adh = params.adhesion * (1.0 - d / reach) ** 2
            s = (rep + adh) / d
            acc = [acc[0] + s * dvec[0], acc[1] + s * dvec[1], acc[2] + s * dvec[2]]
        out[ci.id] = acc
    return out


def brute_force_pairs(cont, params):
    """(id, neighbour id) of every in-range pair, by an O(n^2) enumeration."""
    pairs = set()
    for ci in cont.cells:
        for cj in cont.cells:
            d = math.dist(ci.position.tolist(), cj.position.tolist())
            if ci.id != cj.id and EPS_SKIP <= d < params.adhesion_multiplier * (ci.radius + cj.radius):
                pairs.add((ci.id, cj.id))
    return pairs


@settings(max_examples=200)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.lists(st.tuples(st.tuples(*[st.floats(0.0, 1.0)] * 3), st.floats(1.0, 8.0)),
             max_size=40),
    st.sampled_from([1, 3, mechanics.BLOCK]),
)
def test_pair_kernel_matches_brute_force(nx, ny, nz, cells, block):
    # meshes with n=1 axes clip the neighbourhood on both sides; small blocks
    # split a chunk's targets the way a large container does
    mesh = cb.CartesianMesh(nx, ny, nz)
    ux, uy, uz = mesh.upper
    positions = [[fx * ux, fy * uy, fz * uz] for (fx, fy, fz), _ in cells]
    for p in positions:
        mesh.clamp_inside(p)
    cont = make_container(mesh, positions, radius=[radius for _, radius in cells])
    params = InteractionParams()
    check_binning_exact(cont, mesh, params)

    saved = mechanics.BLOCK
    mechanics.BLOCK = block
    try:
        for worker_counts in ((1, 2, 3), (1,)):
            if worker_counts == (1,):
                # again on kept bins and pair lists: every cell moves
                # halfway to its voxel's centre, so none changes voxel
                table = cont.candidates
                centres = (np.stack(np.unravel_index(cont.voxels, (nz, ny, nx))[::-1],
                                    axis=1) + 0.5) * 20.0
                cont.positions[:] = 0.5 * (cont.positions + centres)
                cont.positions_dirty = True
                cb.rebin_cells(cont)
                assert cont.candidates is table
            kernel = mechanics.PairKernel(cont, params)
            i, j, _ = kernel.contributions(*kernel.lists.build_forward(cont),
                                           cb.InPlaceVectorOps(None))
            a, b = cont.ids[i].tolist(), cont.ids[j].tolist()  # cells by storage row
            got = [*zip(a, b), *zip(b, a)]  # each pair once, in both directions
            assert len(got) == len(set(got))
            assert set(got) == brute_force_pairs(cont, params)

            expected = scalar_velocities(cont, params)
            events = temp_event_oracle(cont, mesh, params)
            for workers in worker_counts:
                with WorkerPool(workers) as pool:
                    for schedule in ALL_SCHEDULES:
                        for mode in AllocationMode:
                            cont.velocities[:] = math.nan
                            record = update_velocities(cont, mesh, params, schedule, pool,
                                                       alloc_mode=mode)
                            got = dict(zip(cont.ids.tolist(), cont.velocities.tolist()))
                            assert got == expected, (workers, schedule, mode)
                            # the scalar program's events, however the blocks fall
                            assert record.total_alloc_events == (
                                events if mode is AllocationMode.TEMPORARY_ALLOCATING else 0)
    finally:
        mechanics.BLOCK = saved


# ---------------------------------------------------------------- pair lists

def moore_pairs(cont):
    """Every unordered pair of distinct cells in Moore-adjacent voxels, as
    sorted id tuples, by an O(n^2) enumeration."""
    cells = cont.cells
    return sorted((min(a.id, b.id), max(a.id, b.id)) for k, a in enumerate(cells)
                  for b in cells[k + 1:] if _moore_adjacent(cont.mesh, a.voxel_index,
                                                            b.voxel_index))


face = st.integers(0, 4).map(lambda k: 20.0 * k)  # on a voxel face, the mesh's lower one included
spot = st.floats(0.0, 80.0) | face


@settings(max_examples=150)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.lists(st.tuples(spot, spot, spot), max_size=30), st.randoms(use_true_random=False))
def test_pair_lists_list_each_adjacent_pair_once(nx, ny, nz, points, rnd):
    # meshes with n=1 axes, cells on voxel faces, many cells in one voxel,
    # and storage order unrelated to ids
    mesh = cb.CartesianMesh(nx, ny, nz)
    positions = [list(p) for p in points]
    for p in positions:
        mesh.clamp_inside(p)
    cont = cb.CellContainer(mesh)
    cont.add_cells(positions)
    rows = list(range(len(cont)))
    rnd.shuffle(rows)
    cont.take(rows)
    cb.rebin_cells(cont)
    lists = mechanics.PairLists()
    ids = cont.ids  # the lists name cells by storage row
    # forward: each Moore pair once, lower id first, sorted
    lower, higher = lists.build_forward(cont)
    pairs = list(zip(ids[lower].tolist(), ids[higher].tolist()))
    assert pairs == moore_pairs(cont)
    # directed: each pair once in each direction, grouped by the owner's bin
    # position, in ascending partner id
    partner, ptr, bin_pos = lists.build_directed(cont)
    assert (cont.bin_rows[bin_pos] == np.arange(len(cont))).all()
    assert ptr[0] == 0 and (np.diff(ptr) >= 0).all() and ptr[-1] == len(partner)
    owner = cont.bin_rows.repeat(np.diff(ptr))
    assert sorted(zip(ids[owner].tolist(), ids[partner].tolist())) == sorted(
        [*pairs, *((b, a) for a, b in pairs)])
    for p in range(len(cont)):
        assert (np.diff(ids[partner[ptr[p]:ptr[p + 1]]]) > 0).all()


@pytest.mark.parametrize("in_bins", [False, True], ids=["storage_rows", "bin_positions"])
def test_every_chunk_split_gives_the_whole_call(in_bins):
    # a chunk that does not hold every cell evaluates each pair of its cells
    # from its own side, those that cross a chunk boundary included, and
    # every split gives the bytes of one chunk
    mesh = cb.CartesianMesh(4, 4, 4)
    cont = clustered_container(mesh, n=40)
    cont.take(np.random.default_rng(3).permutation(len(cont)))
    cb.rebin_cells(cont)
    params = InteractionParams()
    kernel = mechanics.PairKernel(cont, params, split=True)
    ops = cb.InPlaceVectorOps(None)
    whole = np.full((len(cont), 3), np.nan)
    kernel.velocities(0, len(cont), in_bins, ops, whole)
    assert np.isfinite(whole).all() and (whole != 0.0).any()
    rows = cont.bin_rows if in_bins else np.arange(len(cont))
    lower, higher = (half.tolist() for half in kernel.lists.build_forward(cont))
    crossing = 0
    for cut in range(1, len(cont)):
        # the pairs with one cell on each side of the cut
        left = set(rows[:cut].tolist())
        crossing += sum((a in left) != (b in left) for a, b in zip(lower, higher))
        split = np.full_like(whole, np.nan)
        kernel.velocities(0, cut, in_bins, ops, split)
        kernel.velocities(cut, len(cont), in_bins, ops, split)
        assert split.tobytes() == whole.tobytes(), cut
    assert crossing > 0


def test_kept_bins_reuse_the_pair_lists(small_mesh):
    cont = clustered_container(small_mesh)
    with WorkerPool(2) as pool:
        schedule = MechanicsSchedule(ScheduleKind.NONEMPTY_VOXEL, 2)
        update_velocities(cont, small_mesh, InteractionParams(), schedule, pool)
        lists = cont.candidates
        directed = lists.directed
        assert directed is not None  # a dispatch in chunks walks the directed list
        forward = lists.build_forward(cont)
        cont.positions_dirty = True  # no cell moved, so none changed voxel
        cb.rebin_cells(cont)
        update_velocities(cont, small_mesh, InteractionParams(), schedule, pool)
    assert cont.candidates is lists
    assert lists.forward is forward and lists.directed is directed


def fresh_copy(cont):
    """A container built and binned anew with the same rows (ids,
    positions, radii, storage order) and `next_id` as `cont`."""
    fresh = cb.CellContainer(cont.mesh)
    fresh.add_cells(cont.positions, radius=cont.radii)
    fresh.ids[:] = cont.ids
    fresh.next_id = cont.next_id
    return cb.rebin_cells(fresh)


unit = st.floats(0.0, 0.999)
cache_steps = st.one_of(
    st.tuples(st.just("inside"), st.integers(0, 99), st.tuples(unit, unit, unit)),
    st.tuples(st.just("across"), st.integers(0, 99), st.tuples(unit, unit, unit),
              st.integers(0, 2)),
    st.tuples(st.just("add"), st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=3)),
    st.tuples(st.just("take"), st.randoms(use_true_random=False)),
    st.tuples(st.just("drop"), st.randoms(use_true_random=False)),
)


def apply_step(cont, step):
    """Apply one step of `cache_steps` to `cont`, which is left to rebin."""
    kind = step[0]
    if kind in ("inside", "across"):
        row = step[1] % len(cont)
        corner = np.array(np.unravel_index(int(cont.voxels[row]), (4, 4, 4))[::-1], dtype=float)
        if kind == "across":  # to the next voxel along one axis, or the previous
            axis = step[3]
            corner[axis] += 1.0 if corner[axis] + 1 < 4 else -1.0
        cont.positions[row] = (corner + step[2]) * 20.0
        cont.positions_dirty = True
    elif kind == "add":
        cont.add_cells([[20.0 + 40.0 * f for f in p] for p in step[1]], radius=8.0)
    else:  # a permutation, or a strict subset of at least 2 rows
        rows = list(range(len(cont)))
        step[1].shuffle(rows)
        if kind == "take":
            cont.take(rows)
        elif len(rows) > 2:
            cont.take(rows[:step[1].randint(2, len(rows) - 1)])


def assert_lists_equal_a_first_build(lists, cont):
    """The kept keys, and every list of storage rows derived from them,
    equal a first build on a fresh copy of `cont`."""
    fresh = fresh_copy(cont)
    first = mechanics.PairLists()
    assert lists.keys.tobytes() == first.update(fresh).tobytes()
    for name in ("forward", "directed"):
        if getattr(lists, name) is not None:
            want = getattr(first, "build_" + name)(fresh)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(getattr(lists, name), want))


@settings(max_examples=60)
@given(st.lists(cache_steps, min_size=1, max_size=8), st.sampled_from(ALL_SCHEDULES),
       st.sampled_from(list(AllocationMode)))
def test_kept_bins_give_the_velocities_of_a_fresh_container(steps, schedule, mode):
    # each step is followed by a rebin; the bins kept while no cell changes
    # voxel, and the pair lists kept and patched whatever the step, must give
    # what fresh ones give, bit for bit; kept bins keep the derived lists
    mesh = cb.CartesianMesh(4, 4, 4)
    cont = clustered_container(mesh, n=12)
    params = InteractionParams()
    with WorkerPool(2) as pool:
        update_velocities(cont, mesh, params, schedule, pool, alloc_mode=mode)
        lists = cont.candidates
        for step in steps:
            forward, directed = lists.forward, lists.directed
            apply_step(cont, step)
            cb.rebin_cells(cont)
            check_consistent(cont)
            assert cont.candidates is lists
            fresh = fresh_copy(cont)
            for c in (cont, fresh):
                c.velocities[:] = math.nan
                update_velocities(c, mesh, params, schedule, pool, alloc_mode=mode)
            assert cont.velocities.tobytes() == fresh.velocities.tobytes(), step
            if step[0] == "inside":
                assert lists.forward is forward and lists.directed is directed
            assert_lists_equal_a_first_build(lists, cont)


@settings(max_examples=100)
@given(st.lists(st.tuples(cache_steps, st.booleans()), min_size=1, max_size=10),
       st.sampled_from(ALL_SCHEDULES), st.sampled_from(list(cb.StorageKind)))
def test_patched_pair_lists_equal_a_first_build(steps, schedule, order):
    # the pair lists compare voxels by id on use, so a velocity call after
    # several rebins (and resorts, under voxel-sorted storage) patches the
    # keys for every cell that changed voxel, was born or is gone since the
    # last call; they must then equal a first build on a fresh copy
    mesh = cb.CartesianMesh(4, 4, 4)
    cont = clustered_container(mesh, n=12)
    params = InteractionParams()
    with WorkerPool(1) as pool:
        update_velocities(cont, mesh, params, schedule, pool)
        lists = cont.candidates
        for k, (step, call) in enumerate(steps):
            apply_step(cont, step)
            cb.rebin_cells(cont)
            if order is cb.StorageKind.VOXEL_SORTED:
                cb.sort_cells_by_voxel(cont)
            assert cont.candidates is lists
            if call or k == len(steps) - 1:
                update_velocities(cont, mesh, params, schedule, pool)
                assert_lists_equal_a_first_build(lists, cont)


def test_a_take_that_drops_rows_patches_the_pair_lists(small_mesh):
    # the kept keys name a cell that is gone until the next call, which
    # patches them for it as for a cell that changed voxel
    cont = clustered_container(small_mesh)
    params = InteractionParams()
    with WorkerPool(1) as pool:
        schedule = MechanicsSchedule(ScheduleKind.CELL_STATIC)
        update_velocities(cont, small_mesh, params, schedule, pool)
        lists = cont.candidates
        cont.take(np.arange(len(cont))[::-1])
        cont.take(np.arange(1, len(cont)))
        assert cont.candidates is lists
        cb.rebin_cells(cont)
        update_velocities(cont, small_mesh, params, schedule, pool)
    keys = lists.keys.tolist()
    assert [(k >> 32, k & 0xFFFFFFFF) for k in keys] == moore_pairs(cont)
    assert dict(zip(cont.ids.tolist(), cont.velocities.tolist())) == scalar_velocities(cont, params)


def test_ids_past_the_pair_key_range_are_a_capacity_error(small_mesh):
    # two ids of 31 bits make one int64 key; the check comes before any
    # array of one entry per id
    cont = clustered_container(small_mesh)
    cont.next_id = 1 << 31
    with WorkerPool(1) as pool:
        with pytest.raises(cb.CapacityError, match="pair key"):
            update_velocities(cont, small_mesh, InteractionParams(),
                              MechanicsSchedule(ScheduleKind.CELL_STATIC), pool)


#: Peak allocation of one velocity call on the 900 packed cells below.  The
#: scalar loop this kernel replaced stayed near 0.2 MiB there; the kernel
#: stays below 0.3 MiB on kept pair lists and below 0.8 MiB when it builds
#: or patches them, under every schedule, while evaluating every pair of
#: the call at once needs about 1.4 MiB.
VELOCITY_PEAK_BOUND = 1 << 20


def packed_cells():
    mesh = cb.CartesianMesh(10, 10, 10)
    positions = [(20.0 + 160.0 * u1, 20.0 + 160.0 * u2, 20.0 + 160.0 * u3)
                 for u1, u2, u3 in (cb.division_draws(7, i, 0) for i in range(900))]
    return make_container(mesh, positions, radius=8.0)


@pytest.mark.parametrize("mode", list(AllocationMode), ids=lambda m: m.value)
def test_one_velocity_call_stays_in_blocks(mode):
    # slices of pairs keep the peak bounded whatever the pair count
    cont = packed_cells()
    params = InteractionParams()
    with WorkerPool(1) as pool:
        schedule = MechanicsSchedule(ScheduleKind.CELL_STATIC)
        update_velocities(cont, cont.mesh, params, schedule, pool, alloc_mode=mode)
        tracemalloc.start()
        try:
            update_velocities(cont, cont.mesh, params, schedule, pool, alloc_mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < VELOCITY_PEAK_BOUND


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.kind.value)
def test_the_call_that_builds_the_pair_list_stays_bounded(schedule):
    # the first call on a container builds the pair list, walking every
    # cell; after a rebin that moved a cell to another voxel, the next call
    # patches it.  Both count against the same bound
    cont = packed_cells()
    params = InteractionParams()
    peaks = []
    with WorkerPool(1) as pool:
        for patch in (False, True):
            if patch:
                cont.positions[0] = cont.positions[-1]
                cont.positions_dirty = True
                cb.rebin_cells(cont)
                assert cont.candidates is lists
            else:
                assert cont.candidates is None
            tracemalloc.start()
            try:
                update_velocities(cont, cont.mesh, params, schedule, pool)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            lists = cont.candidates
    if schedule.kind is ScheduleKind.CELL_STATIC:
        assert lists.directed is None  # one chunk: the forward list only
    assert max(peaks) < VELOCITY_PEAK_BOUND, peaks


@pytest.mark.parametrize("mode", list(AllocationMode), ids=lambda m: m.value)
def test_one_crowded_target_does_not_pad_its_block(mode):
    # a clump of 200 cells, one of them stored first, among 1728 cells that
    # see only themselves: the test bounds the memory of a velocity call that
    # sums the 200-cell clump's terms
    mesh = cb.CartesianMesh(24, 24, 24)
    clump = [(248.0 + 4.0 * u1, 248.0 + 4.0 * u2, 248.0 + 4.0 * u3)
             for u1, u2, u3 in (cb.division_draws(3, i, 0) for i in range(200))]
    sparse = [(40.0 * x + 10.0, 40.0 * y + 10.0, 40.0 * z + 10.0)
              for x in range(12) for y in range(12) for z in range(12)]
    cont = make_container(mesh, clump[:1] + sparse + clump[1:], radius=8.0)
    with WorkerPool(1) as pool:
        schedule = MechanicsSchedule(ScheduleKind.CELL_STATIC)
        update_velocities(cont, mesh, InteractionParams(), schedule, pool, alloc_mode=mode)
        tracemalloc.start()
        try:
            update_velocities(cont, mesh, InteractionParams(), schedule, pool, alloc_mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < VELOCITY_PEAK_BOUND


@pytest.mark.parametrize("schedule", ALL_SCHEDULES, ids=lambda s: s.kind.value)
def test_the_pair_limit_counts_forward_pairs_under_every_schedule(schedule, monkeypatch):
    # the directed list holds twice the forward pairs; a run at the limit
    # passes under every schedule, and one pair more fails under each
    cont = packed_cells()
    pairs = len(mechanics.PairLists().build_forward(cont)[0])
    with WorkerPool(2) as pool:
        for limit in (pairs, pairs - 1):
            monkeypatch.setattr(mechanics, "MAX_PAIRS", limit)
            cont.candidates = None
            if limit < pairs:
                with pytest.raises(cb.CapacityError, match="candidate pairs"):
                    update_velocities(cont, cont.mesh, InteractionParams(), schedule, pool)
            else:
                update_velocities(cont, cont.mesh, InteractionParams(), schedule, pool)


def test_a_clump_past_the_pair_limit_fails_before_its_pair_list():
    # 5,000 cells in one voxel make 12.5M forward pairs, about 300 MiB of
    # pair list; the run raises before it expands any of them
    cfg = cb.build_config({"cells.count": "5000", "cells.box": "21,21,21,38,38,38",
                           "mesh.nx": "4", "mesh.ny": "4", "mesh.nz": "4", "steps": "1"})
    tracemalloc.start()
    try:
        with pytest.raises(cb.CapacityError, match="candidate pairs"):
            cb.run_simulation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


# ---------------------------------------------------------------- accounting

def temp_event_oracle(cont, mesh, params):
    """Recount expected allocation events from the accumulation rules."""
    total = 0
    cells = cont.cells
    for cell in cells:
        in_range = 0
        for other in cells:
            if other.id == cell.id or not _moore_adjacent(mesh, cell.voxel_index,
                                                          other.voxel_index):
                continue
            total += 1  # displacement temporary per examined candidate
            d = math.dist(cell.position, other.position)
            if EPS_SKIP <= d < params.adhesion_multiplier * (cell.radius + other.radius):
                in_range += 1
        total += 2 * in_range  # scaled contribution + accumulator rebind
        if in_range:
            total += 1  # final binding of the named result
    return total


@pytest.mark.parametrize("schedule", ALL_SCHEDULES,
                         ids=lambda s: s.kind.value)
def test_temp_mode_event_count_matches_oracle(small_mesh, schedule):
    params = InteractionParams()
    cont = clustered_container(small_mesh)
    expected = temp_event_oracle(cont, small_mesh, params)
    assert expected > 0
    with WorkerPool(2) as pool:
        record = update_velocities(cont, small_mesh, params, schedule, pool,
                                   alloc_mode=AllocationMode.TEMPORARY_ALLOCATING)
    assert record.total_alloc_events == expected


def test_in_place_mode_reports_zero_events(small_mesh):
    cont = clustered_container(small_mesh)
    with WorkerPool(2) as pool:
        record = update_velocities(cont, small_mesh, InteractionParams(),
                                   MechanicsSchedule(ScheduleKind.CELL_STATIC), pool,
                                   alloc_mode=AllocationMode.IN_PLACE)
    assert record.total_alloc_events == 0


# ---------------------------------------------------------------- integration

def test_integration_moves_cells_exactly(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (30.0, 30.0, 30.0)])
    cont.cells[0].velocity[:] = [1.0, 2.0, 3.0]
    with WorkerPool(1) as pool:
        record = integrate_positions(cont, small_mesh, 0.1, pool)
    assert cont.cells[0].position.tolist() == [10.0 + 0.1 * 1.0, 10.0 + 0.1 * 2.0,
                                               10.0 + 0.1 * 3.0]
    assert cont.cells[1].position.tolist() == [30.0, 30.0, 30.0]
    assert cont.positions_dirty
    assert total_iterations(record) == 2


def test_integration_clamps_at_the_boundary(small_mesh):
    cont = make_container(small_mesh, [(79.0, 40.0, 40.0)])
    cont.cells[0].velocity[:] = [1000.0, 0.0, -1e9]
    with WorkerPool(1) as pool:
        integrate_positions(cont, small_mesh, 1.0, pool)
    p = cont.cells[0].position
    assert ((small_mesh.lower_bounds <= p) & (p < small_mesh.upper_bounds)).all()
    assert p[0] == pytest.approx(80.0 - 1e-6)
    assert p[2] == pytest.approx(1e-6)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("velocity", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0],
                                      [0.0, 0.0, -math.inf]], ids=str)
def test_integration_rejects_a_non_finite_velocity(small_mesh, workers, velocity):
    # an inf position would otherwise be clamped back into the box
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (30.0, 30.0, 30.0),
                                       (50.0, 50.0, 50.0)])
    cont.cells[2].velocity[:] = velocity
    with WorkerPool(workers) as pool:
        with pytest.raises(NumericError, match="cell 2"):
            integrate_positions(cont, small_mesh, 0.1, pool)


def test_integration_rejects_bad_dt(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)])
    with WorkerPool(1) as pool:
        with pytest.raises(DomainError):
            integrate_positions(cont, small_mesh, -0.1, pool)
