"""Solver correctness oracles, sweep equivalence, exchange, and gradients."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellbench as cb
from cellbench import (
    DomainError,
    TraversalMode,
    WorkerPool,
    apply_cell_exchange,
    compute_gradients,
    lod_step,
)
from cellbench import diffusion
from cellbench.diffusion import _line_factors, _solve_lines

from conftest import make_container, total_iterations


def dense_line_matrix(n, r, lam3):
    """The no-flux line system a sweep solves, as a dense matrix."""
    if n == 1:
        return np.array([[1.0 + lam3]])
    a = np.diag(np.full(n, 1.0 + lam3 + 2.0 * r))
    a -= r * (np.eye(n, k=1) + np.eye(n, k=-1))
    a[0, 0] = a[-1, -1] = 1.0 + lam3 + r
    return a


def line_solve(rows, r, lam3):
    """The sweep kernel on one line per row: factors for the line length, then
    an in-place solve of the transposed rows, one line per column."""
    lines = np.array(rows, dtype=np.float64).T.copy()
    _solve_lines(list(lines), np.empty(lines.shape[1]), *_line_factors(lines.shape[0], r, lam3))
    return lines.T


def line_solve_worst_error(rng, trials=200):
    """Worst relative deviation of the line solve from a dense solve.

    Line lengths 1..16 cover the n=1 special case of `_line_factors`.
    """
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 17))
        r = float(rng.uniform(0.0, 30.0))
        lam3 = float(rng.uniform(0.0, 0.5))
        rows = rng.uniform(-10.0, 10.0, (3, n))
        got = line_solve(rows, r, lam3)
        want = np.linalg.solve(dense_line_matrix(n, r, lam3), rows.T).T
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        worst = max(worst, float(rel.max()))
    return worst


# ---------------------------------------------------------------- line solve

def test_thomas_decoupled_system():
    # without diffusion coupling each entry only decays: x = b / (1 + lam3)
    got = line_solve(np.full((2, 4), 4.0), r=0.0, lam3=1.0)
    assert got.tolist() == [[2.0] * 4, [2.0] * 4]


def test_thomas_single_row():
    # a one-voxel line has no neighbour terms, whatever r is
    assert line_solve([[10.0]], r=7.0, lam3=4.0).tolist() == [[2.0]]


def test_thomas_matches_dense_oracle():
    assert line_solve_worst_error(np.random.default_rng(7)) <= 1e-12


def allocating_solve_columns(lines, lo, hi, inv, gamma, r):
    """The recurrence `_solve_lines` replaced, one temporary row per step.

    `_solve_lines` must apply the same operations in the same order, so its
    results are compared with this one bit for bit.
    """
    d = lines[:, lo:hi]
    n = d.shape[0]
    d[0] *= inv[0]
    for i in range(1, n):
        d[i] += r * d[i - 1]
        d[i] *= inv[i]
    for i in range(n - 2, -1, -1):
        d[i] += gamma[i] * d[i + 1]


@given(n=st.integers(1, 16), width=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(1, 11), max_size=4))
def test_solve_columns_matches_the_allocating_recurrence(n, width, seed, cuts):
    # the field pins cover one small mesh; this covers any line length and
    # any split of the lines into chunks
    rng = np.random.default_rng(seed)
    r, lam3 = float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 0.5))
    inv, gamma, r0 = _line_factors(n, r, lam3)
    want = rng.uniform(-10.0, 10.0, (n, width))
    got = want.copy()
    allocating_solve_columns(want, 0, width, [float(f) for f in inv],
                             [float(f) for f in gamma], r)
    bounds = sorted({0, width, *(c for c in cuts if c < width)})
    for lo, hi in zip(bounds, bounds[1:]):
        _solve_lines(list(got[:, lo:hi]), np.empty(hi - lo), inv, gamma, r0)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- lod step

# 1..6 voxels per axis covers the n=1 and n=2 axes, where a line has no
# interior and a gradient has no interior voxel along that axis
axis_sizes = st.integers(1, 6)
meshes = st.builds(cb.CartesianMesh, axis_sizes, axis_sizes, axis_sizes)
traversals = st.sampled_from(TraversalMode)
worker_counts = st.sampled_from([1, 2, 3])


def transpose_copy_lod_step(micro, mesh, dt):
    """A serial, allocating `lod_step` over whole transposed copies.

    Each sweep solves a contiguous copy of the grid transposed swept axis
    first, with `allocating_solve_columns`, and writes it back.  The tiles
    and blocks of `lod_step` must not change any value, so its densities
    are compared with this one bit for bit.
    """
    axes = (((2, 0, 1), (1, 2, 0), mesh.dx),
            ((1, 0, 2), (1, 0, 2), mesh.dy),
            ((0, 1, 2), (0, 1, 2), mesh.dz))
    for s in range(micro.substrate_count):
        lam3 = dt * micro.decay[s] / 3.0
        grid = micro.grid_view(s)
        for transpose, inverse, h in axes:
            lines = grid.transpose(transpose).copy()
            n = lines.shape[0]
            r = dt * micro.diffusion[s] / (h * h)
            inv, gamma, _ = _line_factors(n, r, lam3)
            allocating_solve_columns(lines.reshape(n, -1), 0, lines[0].size,
                                     [float(f) for f in inv], [float(f) for f in gamma], r)
            grid[...] = lines.transpose(inverse)


def two_substrate_micro(mesh, seed):
    micro = cb.Microenvironment(mesh, [90000.0, 2000.0], [0.4, 0.05])
    micro.densities[...] = np.random.default_rng(seed).uniform(0.0, 50.0, micro.densities.shape)
    return micro


def check_lod_step_matches_the_transpose_copies(mesh, mode, workers):
    want, got = two_substrate_micro(mesh, 5), two_substrate_micro(mesh, 5)
    with WorkerPool(workers) as pool:
        for _ in range(4):
            transpose_copy_lod_step(want, mesh, 0.1)
            lod_step(got, mesh, 0.1, mode, pool)
    assert got.densities.tobytes() == want.densities.tobytes()


@given(mesh=meshes, mode=traversals, workers=worker_counts)
def test_lod_step_matches_the_transpose_copies(mesh, mode, workers):
    check_lod_step_matches_the_transpose_copies(mesh, mode, workers)


@given(mesh=meshes, mode=traversals, workers=worker_counts, tile=st.integers(1, 40))
def test_lod_step_matches_the_transpose_copies_in_small_tiles(mesh, mode, workers, tile):
    # a tile of a few lines puts block boundaries, and on the y sweep slab
    # boundaries and partial slabs, inside every worker's range
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffusion, "TILE", tile)
        check_lod_step_matches_the_transpose_copies(mesh, mode, workers)


@pytest.mark.parametrize("shape", [(70, 64, 3), (64, 64, 8), (48, 30, 5)])
@pytest.mark.parametrize("mode", TraversalMode)
@pytest.mark.parametrize("workers", [1, 3])
def test_lod_step_matches_the_transpose_copies_above_one_tile(shape, mode, workers, monkeypatch):
    # in 4096-element tiles, the first mesh's y blocks are partial slabs
    # (a slab is 4480 elements) and its z columns two blocks, the second's
    # y blocks one whole slab, and the third's two slabs with a short last
    # block; unequal spacings catch an axis solved with another axis' factors
    monkeypatch.setattr(diffusion, "TILE", 4096)
    mesh = cb.CartesianMesh(*shape, dx=20.0, dy=25.0, dz=30.0)
    check_lod_step_matches_the_transpose_copies(mesh, mode, workers)


@pytest.mark.parametrize("mode", TraversalMode)
def test_lod_step_matches_the_transpose_copies_above_the_default_tile(mode):
    # 172,800 voxels at 1 worker: the x and y sweeps run in two blocks of
    # the default tile each, the y blocks cut between z slabs
    mesh = cb.CartesianMesh(72, 60, 40, dx=20.0, dy=25.0, dz=30.0)
    check_lod_step_matches_the_transpose_copies(mesh, mode, 1)


def expected_chunks(mesh, mode):
    """Schedulable chunks of the x, y, z sweeps and of the gradients."""
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    if mode is TraversalMode.OUTER_LOOP:
        return [nz, nz, ny], nz
    return [nz * ny, nz * nx, ny * nx], nz * ny


def uniform_micro(mesh, diffusion, decay, value=38.0):
    return cb.Microenvironment(mesh, [diffusion], [decay], [value])


def random_micro(mesh, diffusion, decay, seed=3):
    micro = cb.Microenvironment(mesh, [diffusion], [decay])
    rng = np.random.default_rng(seed)
    micro.densities[0] = rng.uniform(0.0, 50.0, mesh.voxel_count)
    return micro


def test_decay_only_matches_closed_form(pool2):
    mesh = cb.CartesianMesh(4, 4, 4)
    micro = uniform_micro(mesh, diffusion=0.0, decay=0.7, value=38.0)
    dt, steps = 0.05, 10
    for _ in range(steps):
        lod_step(micro, mesh, dt, TraversalMode.OUTER_LOOP, pool2)
    expected = 38.0 / (1.0 + dt * 0.7 / 3.0) ** (3 * steps)
    np.testing.assert_allclose(micro.densities[0], expected, rtol=1e-14)


def test_no_decay_conserves_mass(pool2):
    mesh = cb.CartesianMesh(8, 8, 8)
    micro = random_micro(mesh, diffusion=100000.0, decay=0.0)
    mass0 = micro.densities[0].sum()
    for _ in range(100):
        lod_step(micro, mesh, 0.1, TraversalMode.COLLAPSED, pool2)
    assert micro.densities[0].sum() == pytest.approx(mass0, rel=1e-10)
    micro.check_state()


def test_uniform_field_is_steady_to_roundoff(pool2):
    # no-flux boundaries: a uniform field is a fixed point of pure diffusion;
    # the factored solve reproduces it to roundoff, not bit-exactly
    mesh = cb.CartesianMesh(5, 4, 3)
    micro = uniform_micro(mesh, diffusion=80000.0, decay=0.0)
    for _ in range(3):
        lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool2)
    np.testing.assert_allclose(micro.densities[0], 38.0, rtol=0.0, atol=1e-11)


def test_field_stays_nonnegative(pool2):
    mesh = cb.CartesianMesh(6, 6, 6)
    micro = random_micro(mesh, diffusion=50000.0, decay=2.0, seed=11)
    micro.densities[0, ::7] = 0.0  # plant hard zeros next to large values
    for _ in range(50):
        lod_step(micro, mesh, 0.2, TraversalMode.OUTER_LOOP, pool2)
    micro.check_state()
    assert micro.densities[0].min() >= 0.0


def test_lod_rejects_bad_dt(pool2):
    mesh = cb.CartesianMesh(3, 3, 3)
    micro = uniform_micro(mesh, 100.0, 0.0)
    with pytest.raises(DomainError):
        lod_step(micro, mesh, 0.0, TraversalMode.OUTER_LOOP, pool2)


@given(mesh=meshes, mode=traversals, workers=worker_counts)
def test_traversal_and_worker_count_do_not_change_the_field(mesh, mode, workers):
    runs = []
    for m, w in [(TraversalMode.OUTER_LOOP, 1), (mode, workers)]:
        micro = random_micro(mesh, diffusion=90000.0, decay=0.4)
        with WorkerPool(w) as pool:
            for _ in range(5):
                lod_step(micro, mesh, 0.1, m, pool)
        runs.append(micro.densities.copy())
    assert np.array_equal(runs[0], runs[1])


@given(mesh=meshes, mode=traversals, workers=worker_counts)
def test_sweep_chunk_granularity_contract(mesh, mode, workers):
    # OuterLoop schedules outermost-axis slabs; Collapsed schedules grid lines.
    micro = uniform_micro(mesh, 1000.0, 0.1)
    with WorkerPool(workers) as pool:
        records = lod_step(micro, mesh, 0.1, mode, pool)
    chunks, _ = expected_chunks(mesh, mode)
    assert [r.total_claims for r in records] == chunks
    # each sweep traverses every chunk exactly once
    assert [total_iterations(r) for r in records] == chunks


# sha256 of the densities and of the gradients after the run below.
# `state_checksum` hashes only the cells, and the field never moves them, so
# these pins are what catches a solver change applied alike to every strategy.
FIELD_PINS = ("053408f649cd0f8c4ed139e84c6ebe5c34e967d212b001ffd9bcd76dbc34353b",
              "98980178c52dd2ac8760abc83368321ebbadf9320a7239219f4a5cd00a9be26c")


@pytest.mark.parametrize("traversal", ["outer", "collapsed"])
@pytest.mark.parametrize("workers", [1, 3])
def test_field_matches_pins(traversal, workers):
    # secreting cells on a mesh whose three axes differ in size and spacing,
    # so that a mix-up of axes or spacings in the sweeps changes the field
    cfg = cb.RunConfig(nx=12, ny=7, nz=5, dx=20.0, dy=25.0, dz=30.0,
                       cell_count=30, steps=3, dt_mechanics=0.2, dt_diffusion=0.1,
                       initial_density=5.0, secretion=20.0, uptake=2.0, seed=3,
                       workers=workers,
                       strategy=cb.parse_strategy_literal(f"inplace/{traversal}/cell_static/append"))
    micro = cb.run_simulation(cfg).micro
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (micro.densities, micro.gradients))
    assert digests == FIELD_PINS


def test_lod_step_allocates_no_field_sized_temporary():
    # the sweeps solve their lines in the plan's tiles and in the density
    # itself; a copy of the field would put the peak at 1x
    mesh = cb.CartesianMesh(32, 24, 16)
    micro = random_micro(mesh, diffusion=90000.0, decay=0.4)
    with WorkerPool(1) as pool:
        lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool)  # fill the factor cache
        tracemalloc.start()
        try:
            lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 0.25 * micro.densities[0].nbytes


@pytest.mark.parametrize("workers", [1, 2])
def test_first_lod_step_allocates_one_tile_per_worker(workers):
    # 393,216 voxels, 3 x TILE, so the old field-sized line buffer would
    # not fit.  The first step builds the plan: one tile per worker, each at
    # most TILE float64 of lines plus one scratch row as wide as a block
    # (TILE / 64 lines); the plan's views and the line factors stay under
    # 256 KiB
    mesh = cb.CartesianMesh(64, 64, 96)
    _line_factors.cache_clear()
    tracemalloc.start()
    try:
        micro = uniform_micro(mesh, diffusion=90000.0, decay=0.4)
        fields = micro.densities.nbytes + micro.gradient_planes.nbytes
        with WorkerPool(workers) as pool:
            lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tiles = micro.sweep_plan.tiles
    assert len(tiles) == workers
    assert all(t.size <= diffusion.TILE + diffusion.TILE // 64 for t in tiles)
    assert peak - fields <= workers * diffusion.TILE * 8 + 2**18


def test_sweep_plan_is_kept_until_the_worker_count_or_mode_changes():
    mesh = cb.CartesianMesh(6, 5, 4)
    micro = random_micro(mesh, diffusion=90000.0, decay=0.4)
    with WorkerPool(2) as pool:
        lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool)
        plan = micro.sweep_plan
        lod_step(micro, mesh, 0.2, TraversalMode.OUTER_LOOP, pool)
        assert micro.sweep_plan is plan
        lod_step(micro, mesh, 0.1, TraversalMode.COLLAPSED, pool)
        assert micro.sweep_plan is not plan
    with WorkerPool(3) as pool:
        lod_step(micro, mesh, 0.1, TraversalMode.COLLAPSED, pool)
    assert len(micro.sweep_plan.tiles) == 3


def test_degenerate_single_voxel_axis(pool2):
    mesh = cb.CartesianMesh(1, 4, 4)
    micro = random_micro(mesh, diffusion=70000.0, decay=0.0)
    mass0 = micro.densities[0].sum()
    for _ in range(20):
        lod_step(micro, mesh, 0.1, TraversalMode.COLLAPSED, pool2)
    assert micro.densities[0].sum() == pytest.approx(mass0, rel=1e-12)


# ---------------------------------------------------------------- non-empty list

def test_nonempty_list_is_ascending_regardless_of_insertion_order(small_mesh):
    cont = make_container(small_mesh, [(70.0, 70.0, 70.0), (10.0, 10.0, 10.0),
                                       (30.0, 10.0, 10.0)])
    assert cont.nonempty_voxels.tolist() == [0, 1, 63]


# ---------------------------------------------------------------- exchange

def exchange_fixture(value=38.0):
    mesh = cb.CartesianMesh(4, 4, 4)
    micro = uniform_micro(mesh, 1000.0, 0.0, value)
    cont = make_container(mesh, [
        (10.0, 10.0, 10.0), (12.0, 10.0, 10.0), (50.0, 30.0, 10.0),
    ], radius=8.0)
    return mesh, micro, cont


def test_exchange_noop_without_rates(pool2):
    _, micro, cont = exchange_fixture()
    before = micro.densities.copy()
    apply_cell_exchange(micro, cont, 0.01, secretion=0.0, uptake=0.0,
                        saturation=38.0, pool=pool2)
    assert np.array_equal(micro.densities, before)


def test_exchange_saturated_secretion_is_a_fixed_point(pool2):
    _, micro, cont = exchange_fixture(value=38.0)
    apply_cell_exchange(micro, cont, 0.01, secretion=4.2, uptake=0.0,
                        saturation=38.0, pool=pool2)
    np.testing.assert_allclose(micro.densities[0], 38.0, rtol=1e-14)


def test_exchange_uptake_decreases_and_stays_nonnegative(pool2):
    _, micro, cont = exchange_fixture(value=38.0)
    occupied = sorted(cont.nonempty_voxels)
    for _ in range(500):
        apply_cell_exchange(micro, cont, 0.05, secretion=0.0, uptake=40.0,
                            saturation=38.0, pool=pool2)
    assert micro.densities[0][occupied].max() < 38.0
    assert micro.densities[0].min() >= 0.0
    untouched = np.setdiff1d(np.arange(64), occupied)
    assert np.all(micro.densities[0][untouched] == 38.0)


def test_exchange_secretion_moves_toward_saturation(pool2):
    _, micro, cont = exchange_fixture(value=1.0)
    v = cont.nonempty_voxels[0]
    apply_cell_exchange(micro, cont, 0.1, secretion=5.0, uptake=0.0,
                        saturation=38.0, pool=pool2)
    assert 1.0 < micro.densities[0][v] < 38.0


def test_exchange_is_storage_order_independent(pool2):
    mesh = cb.CartesianMesh(4, 4, 4)
    results = []
    for reverse in (False, True):
        micro = uniform_micro(mesh, 1000.0, 0.0, 20.0)
        cont = cb.CellContainer(mesh)
        # two different-sized cells in one voxel: application order matters,
        # so the ascending-id rule is what keeps layouts equivalent
        cont.add_cells([[10.0, 10.0, 10.0], [12.0, 11.0, 10.0]], radius=[8.0, 6.0])
        if reverse:
            cont.take([1, 0])
        cb.rebin_cells(cont)
        apply_cell_exchange(micro, cont, 0.05, secretion=3.0, uptake=7.0,
                            saturation=38.0, pool=pool2)
        results.append(micro.densities.copy())
    assert np.array_equal(results[0], results[1])


def test_exchange_parallel_matches_serial(pool2):
    mesh = cb.CartesianMesh(4, 4, 4)
    fields = []
    with WorkerPool(1) as pool1:
        for pool in (pool1, pool2):
            micro = uniform_micro(mesh, 1000.0, 0.0, 25.0)
            cont = make_container(mesh, [
                (10.0, 10.0, 10.0), (30.0, 30.0, 30.0), (50.0, 50.0, 50.0),
                (70.0, 10.0, 50.0),
            ])
            record = apply_cell_exchange(micro, cont, 0.02, secretion=2.0,
                                         uptake=3.0, saturation=38.0, pool=pool)
            fields.append(micro.densities.copy())
    assert np.array_equal(fields[0], fields[1])
    assert total_iterations(record) == 4


def test_exchange_rejects_nonpositive_denominator(pool2):
    _, micro, cont = exchange_fixture()
    with pytest.raises(DomainError):
        apply_cell_exchange(micro, cont, 1.0, secretion=0.0, uptake=-8.0,
                            saturation=38.0, pool=pool2)
    with pytest.raises(DomainError):
        apply_cell_exchange(micro, cont, 0.0, secretion=1.0, uptake=0.0,
                            saturation=38.0, pool=pool2)


def test_exchange_empty_container(pool2):
    mesh = cb.CartesianMesh(3, 3, 3)
    micro = uniform_micro(mesh, 1000.0, 0.0)
    cont = cb.CellContainer(mesh)
    before = micro.densities.copy()
    with WorkerPool(1) as pool1:
        for pool in (pool1, pool2):
            record = apply_cell_exchange(micro, cont, 0.1, 1.0, 1.0, 38.0, pool=pool)
            assert total_iterations(record) == 0
    assert np.array_equal(micro.densities, before)


def exchange_reference(micro, cont, dt, secretion, uptake, saturation):
    """The exchange cell by cell in Python floats: in each voxel, the cells in
    ascending id order, rho = (rho + f * secretion * saturation) / den."""
    dens = micro.densities[0]
    inv_vol = 1.0 / micro.mesh.voxel_volume
    volumes, voxels = cont.volumes.tolist(), cont.voxels.tolist()
    for row in np.argsort(cont.ids, kind="stable").tolist():
        f = dt * volumes[row] * inv_vol
        rho = float(dens[voxels[row]])
        dens[voxels[row]] = (rho + f * secretion * saturation) / (1.0 + f * (secretion + uptake))


@pytest.mark.parametrize("workers", [1, 3])
def test_exchange_matches_a_per_cell_reference_bit_for_bit(workers):
    # up to a dozen cells share a voxel, of mixed radii, in scrambled storage
    mesh = cb.CartesianMesh(3, 3, 3)
    rng = np.random.default_rng(7)
    cont = cb.CellContainer(mesh)
    cont.add_cells(rng.uniform(0.0, 60.0, (90, 3)), radius=rng.uniform(2.0, 9.0, 90))
    cont.take(rng.permutation(90))
    cb.rebin_cells(cont)
    assert np.diff(cont.bin_ptr).max() >= 5
    micro, expected = random_micro(mesh, 1000.0, 0.0), random_micro(mesh, 1000.0, 0.0)
    with WorkerPool(workers) as pool:
        for dt, secretion, uptake in ((0.05, 3.0, 7.0), (0.05, 3.0, 7.0), (0.1, 0.5, 2.0)):
            apply_cell_exchange(micro, cont, dt, secretion, uptake, 38.0, pool=pool)
            exchange_reference(expected, cont, dt, secretion, uptake, 38.0)
            assert micro.densities.tobytes() == expected.densities.tobytes()


def test_exchange_plan_lives_as_long_as_the_bins(pool2):
    _, micro, cont = exchange_fixture()
    args = dict(secretion=2.0, uptake=3.0, saturation=38.0)

    def plan_after(dt=0.01, pool=pool2, micro=micro, **changes):
        apply_cell_exchange(micro, cont, dt, **{**args, **changes}, pool=pool)
        return cont.exchange_plan

    plan = plan_after()
    assert plan is not None and plan_after() is plan
    # a move inside the voxel keeps the bins, and so the plan
    cont.positions[0, 0] += 1.0
    cont.positions_dirty = True
    bins = cont.bin_rows
    cb.rebin_cells(cont)
    assert cont.bin_rows is bins and plan_after() is plan
    # a move into another voxel rebuilds the bins, and so the plan
    cont.positions[0, 0] += 20.0
    cont.positions_dirty = True
    cb.rebin_cells(cont)
    plan, previous = plan_after(), plan
    assert plan is not previous and plan_after() is plan
    # added or reordered rows are refused until they are binned, and binning
    # them rebuilds the bins, and so the plan
    for change in (lambda: cont.add_cells([(70.0, 70.0, 70.0)], radius=8.0),
                   lambda: cont.take(np.arange(len(cont))[::-1])):
        change()
        with pytest.raises(cb.ContainerStateError):  # unbinned: refused
            plan_after()
        cb.rebin_cells(cont)
        plan, previous = plan_after(), plan
        assert plan is not previous and plan_after() is plan
    # so does any parameter, the voxel volume or the worker count
    coarse = uniform_micro(cb.CartesianMesh(4, 4, 4, dx=30.0), 1000.0, 0.0)
    with WorkerPool(1) as pool1:
        for changes in (dict(dt=0.02), dict(secretion=2.5), dict(uptake=3.5),
                        dict(saturation=40.0), dict(micro=coarse), dict(pool=pool1)):
            assert plan_after(**changes) is not plan
            plan = plan_after()


def test_exchange_nonpositive_denominator_raises_before_any_write():
    # small cells in the first voxels, one large cell in the last: only its
    # denominator 1 + f * (secretion + uptake) is negative, and the last of
    # three workers owns its voxel
    mesh = cb.CartesianMesh(4, 4, 4)
    micro = random_micro(mesh, 1000.0, 0.0)
    centres = [(10.0 + 20.0 * k, 10.0, 10.0) for k in range(4)]
    cont = make_container(mesh, centres + [(70.0, 70.0, 70.0)], radius=[2.0] * 4 + [8.0])
    before = micro.densities.copy()
    with WorkerPool(3) as pool:
        with pytest.raises(DomainError, match="denominator"):
            apply_cell_exchange(micro, cont, 1.0, secretion=0.0, uptake=-8.0,
                                saturation=38.0, pool=pool)
    assert micro.densities.tobytes() == before.tobytes()


# ---------------------------------------------------------------- gradients

def test_gradient_of_uniform_field_is_zero(pool2):
    mesh = cb.CartesianMesh(5, 5, 5)
    micro = uniform_micro(mesh, 1000.0, 0.0)
    compute_gradients(micro, mesh, TraversalMode.OUTER_LOOP, pool2)
    assert np.all(micro.gradients == 0.0)


def test_gradient_of_linear_field_is_exact_interior(pool2):
    mesh = cb.CartesianMesh(5, 4, 3)
    micro = cb.Microenvironment(mesh, [1000.0], [0.0])
    g = micro.grid_view(0)
    for iz in range(3):
        for iy in range(4):
            for ix in range(5):
                g[iz, iy, ix] = 2.0 * (10.0 + 20.0 * ix)  # rho = 2x
    compute_gradients(micro, mesh, TraversalMode.COLLAPSED, pool2)
    grads = micro.gradients[0].reshape(3, 4, 5, 3)
    assert np.all(grads[:, :, 1:-1, 0] == 2.0)  # central difference is exact
    assert np.all(grads[:, :, 0, 0] == 0.0)  # boundary faces report zero
    assert np.all(grads[:, :, -1, 0] == 0.0)
    assert np.all(grads[..., 1] == 0.0)
    assert np.all(grads[..., 2] == 0.0)


def gradient_oracle(micro, mesh):
    """Whole-grid central differences, zero on the boundary faces."""
    d = micro.grid_view(0)
    g = np.zeros((mesh.nz, mesh.ny, mesh.nx, 3))
    g[:, :, 1:-1, 0] = (d[:, :, 2:] - d[:, :, :-2]) * (0.5 / mesh.dx)
    g[:, 1:-1, :, 1] = (d[:, 2:, :] - d[:, :-2, :]) * (0.5 / mesh.dy)
    g[1:-1, :, :, 2] = (d[2:] - d[:-2]) * (0.5 / mesh.dz)
    return g.reshape(mesh.voxel_count, 3)


@given(mesh=meshes, mode=traversals, workers=worker_counts)
def test_gradient_modes_and_workers_agree_bitwise(mesh, mode, workers):
    micro = random_micro(mesh, 1000.0, 0.0, seed=9)
    micro.gradients[...] = np.nan  # every component must be written
    with WorkerPool(workers) as pool:
        compute_gradients(micro, mesh, mode, pool)
    assert np.array_equal(micro.gradients[0], gradient_oracle(micro, mesh))


def test_compute_gradients_allocates_no_field_sized_temporary():
    # each difference is written straight into its plane; a (a - b) * s
    # temporary over the chunk would put the peak above one field
    mesh = cb.CartesianMesh(32, 24, 16)
    micro = random_micro(mesh, diffusion=1000.0, decay=0.0)
    with WorkerPool(1) as pool:
        compute_gradients(micro, mesh, TraversalMode.OUTER_LOOP, pool)
        tracemalloc.start()
        try:
            compute_gradients(micro, mesh, TraversalMode.OUTER_LOOP, pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < micro.densities[0].nbytes


@given(mesh=meshes, mode=traversals, workers=worker_counts)
def test_gradient_chunk_granularity(mesh, mode, workers):
    # OuterLoop schedules z slabs; Collapsed schedules single (z, y) rows.
    micro = uniform_micro(mesh, 1000.0, 0.0)
    with WorkerPool(workers) as pool:
        records = compute_gradients(micro, mesh, mode, pool)
    _, chunks = expected_chunks(mesh, mode)
    assert [r.total_claims for r in records] == [chunks]
    assert [total_iterations(r) for r in records] == [chunks]
