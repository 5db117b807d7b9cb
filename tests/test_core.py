"""Mesh indexing, container invariants, and field-state validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellbench as cb
from cellbench import DomainError, NumericError

from conftest import check_consistent, make_container


def bin_ids(cont):
    """{voxel: ids of its bin, in bin order} from the container's CSR bins."""
    return {v: cont.ids[cont.bin_rows[cont.bin_ptr[k]:cont.bin_ptr[k + 1]]].tolist()
            for k, v in enumerate(cont.nonempty_voxels.tolist())}


# ---------------------------------------------------------------- mesh

def test_flatten_reference_voxel():
    # 75^3 mesh, 20 um spacing: (30,30,30) falls in integer voxel (1,1,1).
    mesh = cb.CartesianMesh(75, 75, 75)
    assert mesh.voxels_of((30.0, 30.0, 30.0)).tolist() == [5701]


def test_voxel_of_half_open_boxes():
    mesh = cb.CartesianMesh(3, 3, 3)
    # Lower face belongs to the voxel, upper face to the next one.
    assert mesh.voxels_of((0.0, 0.0, 0.0)).tolist() == [0]
    assert mesh.voxels_of((19.999, 0.0, 0.0)).tolist() == [0]
    assert mesh.voxels_of((20.0, 0.0, 0.0)).tolist() == [1]


def test_voxel_of_out_of_bounds_raises():
    mesh = cb.CartesianMesh(3, 3, 3)
    with pytest.raises(DomainError):
        mesh.voxels_of((-0.1, 10.0, 10.0))
    with pytest.raises(DomainError):
        mesh.voxels_of((10.0, 10.0, 60.0))  # == upper bound, half-open


def test_clamp_inside_pulls_points_into_domain():
    mesh = cb.CartesianMesh(3, 3, 3)
    p = [-5.0, 30.0, 1e9]
    mesh.clamp_inside(p)
    assert ((mesh.lower_bounds <= p) & (p < mesh.upper_bounds)).all()
    assert p[0] == pytest.approx(1e-6)
    assert p[1] == 30.0
    assert p[2] == pytest.approx(60.0 - 1e-6)


def test_mesh_volume_and_bounds():
    mesh = cb.CartesianMesh(5, 4, 3, dx=10.0, dy=20.0, dz=30.0)
    assert mesh.voxel_count == 60
    assert mesh.voxel_volume == pytest.approx(6000.0)
    assert mesh.upper == (50.0, 80.0, 90.0)


def test_mesh_rejects_bad_shape():
    with pytest.raises(DomainError):
        cb.CartesianMesh(0, 4, 4)
    with pytest.raises(DomainError):
        cb.CartesianMesh(4, 4, 4, dx=-1.0)


# ---------------------------------------------------------------- fields

def test_microenvironment_shapes(small_mesh):
    micro = cb.Microenvironment(small_mesh, [100.0, 10.0], [0.1, 0.0],
                                [38.0, 1.0])
    assert micro.substrate_count == 2
    assert micro.densities.shape == (2, 64)
    assert micro.gradients.shape == (2, 64, 3)
    assert np.all(micro.densities[0] == 38.0)
    assert micro.grid_view(1).shape == (4, 4, 4)
    # grid_view is a view, not a copy
    micro.grid_view(1)[2, 1, 3] = 7.0
    assert micro.densities[1, np.ravel_multi_index((2, 1, 3), (4, 4, 4))] == 7.0
    # the gradients are a (substrate, voxel, axis) view of C-contiguous
    # (substrate, axis, voxel) planes, and writes through it reach them
    planes = micro.gradient_planes
    assert planes.shape == (2, 3, 64) and planes.flags.c_contiguous
    assert np.shares_memory(micro.gradients, planes)
    micro.gradients[1, 5, 2] = 7.0
    assert planes[1, 2, 5] == 7.0
    micro.gradients[...] = np.nan
    assert np.isnan(planes).all()


def test_microenvironment_rejects_negative_coefficients(small_mesh):
    with pytest.raises(DomainError):
        cb.Microenvironment(small_mesh, [-1.0], [0.0])
    with pytest.raises(DomainError):
        cb.Microenvironment(small_mesh, [1.0], [-0.5])
    with pytest.raises(DomainError):
        cb.Microenvironment(small_mesh, [1.0, 1.0], [0.0])  # length mismatch


def test_check_state_catches_bad_values(small_mesh):
    micro = cb.Microenvironment(small_mesh, [10.0], [0.0], [1.0])
    micro.check_state()
    for bad in (-1e-9, -1e-300, math.nan, math.inf, -math.inf):
        micro.densities[0, 5] = bad
        with pytest.raises(NumericError):
            micro.check_state()
    micro.densities[0, 5] = -0.0  # compares equal to 0.0, so it passes
    micro.check_state()


# ---------------------------------------------------------------- cells

def test_cell_volume_formula(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)], radius=8.0)
    assert cont.volumes[0] == pytest.approx(4.0 / 3.0 * math.pi * 512.0, rel=1e-15)


def test_new_cell_assigns_sequential_ids(small_mesh):
    cont = cb.CellContainer(small_mesh)
    a = cont.add_cells([[10.0, 10.0, 10.0]])
    b = cont.add_cells([[30.0, 10.0, 10.0], [50.0, 10.0, 10.0]])
    assert (list(a), list(b)) == ([0], [1, 2])
    assert [c.id for c in cont.cells] == [0, 1, 2]
    assert cont.positions_dirty
    cb.rebin_cells(cont)
    assert cont.ids.tolist() == [0, 1, 2]
    assert not cont.positions_dirty


def test_rebin_matches_bruteforce_oracle(small_mesh):
    cont = make_container(small_mesh, [
        (10.0, 10.0, 10.0), (11.0, 10.0, 10.0), (70.0, 70.0, 70.0),
        (35.0, 50.0, 10.0),
    ])
    oracle = {}
    voxels = [small_mesh.voxels_of(c.position).item() for c in cont.cells]
    for v, c in zip(voxels, cont.cells):
        oracle.setdefault(v, []).append(c.id)
    assert bin_ids(cont) == oracle
    assert cont.nonempty_voxels.tolist() == sorted(oracle)
    assert [c.voxel_index for c in cont.cells] == voxels
    check_consistent(cont)


def test_rebin_preserves_storage_order_within_voxel(small_mesh):
    # Two cells share a voxel; rebinning keeps their reversed storage order,
    # and the bin lists them in id order whatever the storage order.
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (11.0, 10.0, 10.0)])
    cont.take([1, 0])
    cb.rebin_cells(cont)
    assert bin_ids(cont) == {0: [0, 1]}
    assert cont.ids.tolist() == [1, 0]


def test_rebin_without_a_voxel_change_keeps_the_bins(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (11.0, 10.0, 10.0),
                                       (70.0, 70.0, 70.0)])
    bins, lists = cont.bin_rows, cb.mechanics.PairLists()
    cont.candidates = lists
    lists.update(cont)
    cont.positions[:] += 1.0  # every cell stays in its voxel
    cont.positions_dirty = True
    cb.rebin_cells(cont)
    assert cont.bin_rows is bins and cont.candidates is lists
    assert not cont.positions_dirty
    check_consistent(cont)
    cont.positions[2] = (30.0, 10.0, 10.0)  # one cell changes voxel, next to the others
    cont.positions_dirty = True
    cb.rebin_cells(cont)
    assert cont.bin_rows is not bins and cont.candidates is lists
    check_consistent(cont)
    # the next use patches the kept lists, which then equal a first build
    assert lists.update(cont).tolist() == cb.mechanics.PairLists().update(cont).tolist()
    assert [(k >> 32, k & 0xFFFFFFFF) for k in lists.keys.tolist()] == [(0, 1), (0, 2), (1, 2)]


def test_rebin_after_a_permutation_rebuilds_the_bins(small_mesh):
    # no cell moves, so every voxel compares equal, but the bins name the
    # rows of the old order
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (11.0, 10.0, 10.0),
                                       (70.0, 70.0, 70.0)])
    assert cont.bin_rows.tolist() == [0, 1, 2]
    cont.take([2, 1, 0])
    cb.rebin_cells(cont)
    assert cont.bin_rows.tolist() == [2, 1, 0]
    check_consistent(cont)


def test_take_leaves_voxels_unknown_until_the_rebin(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (70.0, 70.0, 70.0)])
    kept = cont.voxels[1]
    cont.take([1])
    assert [c.voxel_index for c in cont.cells] == [-1]
    with pytest.raises(cb.ContainerStateError):
        cont.require_binned("reading")
    cb.rebin_cells(cont)
    assert cont.voxels.tolist() == [kept]
    check_consistent(cont)
    # no row is left to hold a -1, yet the bins of the one cell must go
    cont.take([])
    cb.rebin_cells(cont)
    assert cont.nonempty_voxels.tolist() == [] and cont.bin_rows.tolist() == []
    check_consistent(cont)


def test_rebin_still_rejects_a_position_outside_the_mesh(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)])
    cont.positions[0] = (-1.0, 10.0, 10.0)
    cont.positions_dirty = True
    with pytest.raises(DomainError):
        cb.rebin_cells(cont)


def test_rebin_of_a_clean_container_returns_at_once(small_mesh):
    # with neither flag set nothing was written since the last rebin, so
    # even a stale voxel is not looked at: writers of positions set the flag
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (70.0, 70.0, 70.0)])
    bins, voxels = cont.bin_rows, cont.voxels.copy()
    cont.positions[0] = (70.0, 10.0, 10.0)
    cb.rebin_cells(cont)
    assert cont.bin_rows is bins and (cont.voxels == voxels).all()
    cont.positions_dirty = True
    cb.rebin_cells(cont)
    assert cont.bin_rows is not bins
    check_consistent(cont)


def _move_without_rebin(cont):
    cont.positions[0, 0] += 20.0  # into the next voxel
    cont.positions_dirty = True


BIN_READERS = {
    "update_velocities": lambda cont, micro, pool: cb.update_velocities(
        cont, cont.mesh, cb.InteractionParams(),
        cb.MechanicsSchedule(cb.ScheduleKind.CELL_STATIC), pool),
    "sort_cells_by_voxel": lambda cont, micro, pool: cb.sort_cells_by_voxel(cont),
    "apply_cell_exchange": lambda cont, micro, pool: cb.apply_cell_exchange(
        micro, cont, 0.01, 2.0, 3.0, 38.0, pool=pool),
    "locality_metric": lambda cont, micro, pool: cb.locality_metric(cont),
}


@pytest.mark.parametrize("change", [
    lambda cont: cont.add_cells([(70.0, 70.0, 70.0)]),
    lambda cont: cont.take(np.arange(len(cont))[:0:-1]),  # reordered, row 0 dropped
    _move_without_rebin,
], ids=["add_cells", "take", "move"])
@pytest.mark.parametrize("reader", BIN_READERS.values(), ids=BIN_READERS.keys())
def test_every_reader_of_the_bins_refuses_stale_bins(small_mesh, pool2, change, reader):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0), (22.0, 10.0, 10.0),
                                       (34.0, 10.0, 10.0), (50.0, 30.0, 10.0)])
    micro = cb.Microenvironment(small_mesh, [1000.0], [0.0], [38.0])
    reader(cont, micro, pool2)  # the exchange plan and pair lists now exist
    change(cont)

    def state():
        return [a.tobytes() for a in (cont.positions, cont.velocities, cont.ids,
                                      micro.densities)]

    before = state()
    with pytest.raises(cb.ContainerStateError, match="requires a rebinned container"):
        reader(cont, micro, pool2)
    assert state() == before
    cb.rebin_cells(cont)
    reader(cont, micro, pool2)


def test_appends_reallocate_logarithmically(small_mesh):
    # daughters arrive a few at a time; capacity doubling keeps the copies of
    # the whole arrays to O(log n), not one per append
    cont = cb.CellContainer(small_mesh)
    buffers = []
    for i in range(1000):
        cont.add_cells([[10.0 + i * 0.01, 10.0, 10.0]], radius=8.0)
        address = cont.positions.__array_interface__["data"][0]
        if not buffers or buffers[-1] != address:
            buffers.append(address)
    assert len(buffers) - 1 <= math.ceil(math.log2(1000))
    assert cont.capacity < 2 * 1000
    assert cont.positions[:, 0].tolist() == [10.0 + i * 0.01 for i in range(1000)]
    assert cont.ids.tolist() == list(range(1000))


spacings = st.floats(0.01, 50.0)


@given(dx=spacings, dy=spacings, dz=spacings, origin=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       fractions=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 3), min_size=1, max_size=30))
def test_voxels_of_matches_python_floor_division(dx, dy, dz, origin, fractions):
    mesh = cb.CartesianMesh(7, 5, 3, dx=dx, dy=dy, dz=dz, origin=origin)
    (ox, oy, oz), upper = origin, mesh.upper
    points = []
    for f in fractions:
        p = [o + fi * (u - o) for o, fi, u in zip(origin, f, upper)]
        mesh.clamp_inside(p)
        points.append([float(c) for c in p])
    # the scalar rule the vectorized one replaced
    index = [(int((x - ox) // dx), int((y - oy) // dy), int((z - oz) // dz))
             for x, y, z in points]
    if all(0 <= ix < 7 and 0 <= iy < 5 and 0 <= iz < 3 for ix, iy, iz in index):
        flat = np.ravel_multi_index(np.array(index).T[::-1], (3, 5, 7))
        assert mesh.voxels_of(points).tolist() == flat.tolist()
    else:  # a clamped point can still round onto an upper face
        with pytest.raises(DomainError):
            mesh.voxels_of(points)


def ulps_around(values, k):
    """Each value, and the k floats on either side of it."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(k):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def floor_divide_reference(mesh, points):
    """(index per axis by `np.floor_divide`, whether each point is inside)."""
    idx = np.floor_divide(points - mesh.lower_bounds, mesh.spacing)
    return idx, ((idx >= 0) & (idx < (mesh.nx, mesh.ny, mesh.nz))).all(axis=1)


def test_voxels_of_matches_floor_divide_around_every_face():
    # non-power-of-two spacings and an offset origin, so faces and integer
    # quotients round; every point within 3 ulps of a face on each axis
    mesh = cb.CartesianMesh(7, 5, 3, dx=0.3, dy=0.7, dz=1.1, origin=(0.1, -2.0, 3.3))
    axes = [ulps_around([o + k * h for k in range(-1, n + 2)], 3)
            for o, h, n in zip(mesh.origin, mesh.spacing.tolist(), (7, 5, 3))]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    idx, inside = floor_divide_reference(mesh, points)
    assert inside.sum() > 10_000 and (~inside).sum() > 10_000
    expected = np.ravel_multi_index(idx[inside].astype(np.int64).T[::-1], (3, 5, 7))
    assert (mesh.voxels_of(points[inside]) == expected).all()
    for point in points[~inside][::997]:
        with pytest.raises(DomainError):
            mesh.voxels_of(point)


@given(spacing=st.tuples(*[st.sampled_from([0.3, 0.7, 1.1, 20.0 / 3.0]) | st.floats(0.01, 50.0)] * 3),
       origin=st.tuples(*[st.floats(-100.0, 100.0)] * 3),
       faces=st.lists(st.tuples(*[st.tuples(st.integers(-1, 8), st.integers(-2, 2))] * 3),
                      min_size=1, max_size=20))
def test_voxels_of_matches_floor_divide_near_faces(spacing, origin, faces):
    mesh = cb.CartesianMesh(7, 5, 3, *spacing, origin=origin)
    points = np.empty((len(faces), 3))
    for p, face in zip(points, faces):
        for axis, (k, ulps) in enumerate(face):
            p[axis] = origin[axis] + k * spacing[axis]
            for _ in range(abs(ulps)):
                p[axis] = np.nextafter(p[axis], np.copysign(np.inf, ulps))
    idx, inside = floor_divide_reference(mesh, points)
    if inside.all():
        flat = np.ravel_multi_index(idx.astype(np.int64).T[::-1], (3, 5, 7))
        assert mesh.voxels_of(points).tolist() == flat.tolist()
    else:
        with pytest.raises(DomainError):
            mesh.voxels_of(points)


@pytest.mark.parametrize("bad", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, -np.inf),
                                 (-1e-300, 1.0, 1.0), (1.0, 3.6, 4.0), (2.2, 1.0, 4.0)])
def test_voxels_of_rejects_nan_and_outside_points(bad):
    mesh = cb.CartesianMesh(7, 5, 3, dx=0.3, dy=0.7, dz=1.1, origin=(0.0, 0.0, 3.3))
    points = np.array([(1.0, 1.0, 4.0), bad, (0.5, 0.5, 4.5)])
    with pytest.raises(DomainError, match="outside mesh bounds"):
        mesh.voxels_of(points)


def test_check_consistent_detects_stale_bin(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)])
    cont.cells[0].position[0] = 50.0  # moved without rebin
    with pytest.raises(AssertionError):
        check_consistent(cont)
