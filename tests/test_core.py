"""Mesh indexing, container invariants, and field-state validation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cellbench as cb
from cellbench import DomainError, NumericError

from conftest import make_container


# ---------------------------------------------------------------- mesh

def test_flatten_reference_voxel():
    # 75^3 mesh, 20 um spacing: (30,30,30) falls in integer voxel (1,1,1).
    mesh = cb.CartesianMesh(75, 75, 75)
    assert mesh.voxel_of((30.0, 30.0, 30.0)) == 5701
    assert mesh.flatten(1, 1, 1) == 5701
    assert mesh.unflatten(5701) == (1, 1, 1)


@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
    st.data(),
)
def test_flatten_unflatten_roundtrip(nx, ny, nz, data):
    mesh = cb.CartesianMesh(nx, ny, nz)
    ix = data.draw(st.integers(0, nx - 1))
    iy = data.draw(st.integers(0, ny - 1))
    iz = data.draw(st.integers(0, nz - 1))
    v = mesh.flatten(ix, iy, iz)
    assert 0 <= v < mesh.voxel_count
    assert mesh.unflatten(v) == (ix, iy, iz)


@given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 10))
def test_flatten_is_bijective(nx, ny, nz):
    mesh = cb.CartesianMesh(nx, ny, nz)
    seen = {
        mesh.flatten(ix, iy, iz)
        for iz in range(nz) for iy in range(ny) for ix in range(nx)
    }
    assert seen == set(range(mesh.voxel_count))


def test_neighbour_table_is_not_part_of_mesh_identity():
    mesh = cb.CartesianMesh(3, 2, 1)
    assert mesh.neighbours(0) == (0, 1, 3, 4)
    assert mesh.neighbour_table == {0: (0, 1, 3, 4)}
    fresh = cb.CartesianMesh(3, 2, 1)
    assert fresh.neighbour_table == {}
    assert mesh == fresh and hash(mesh) == hash(fresh)
    assert repr(mesh) == repr(fresh)


def test_voxel_of_half_open_boxes():
    mesh = cb.CartesianMesh(3, 3, 3)
    # Lower face belongs to the voxel, upper face to the next one.
    assert mesh.voxel_of((0.0, 0.0, 0.0)) == 0
    assert mesh.voxel_of((19.999, 0.0, 0.0)) == 0
    assert mesh.voxel_of((20.0, 0.0, 0.0)) == 1


def test_voxel_of_out_of_bounds_raises():
    mesh = cb.CartesianMesh(3, 3, 3)
    with pytest.raises(DomainError):
        mesh.voxel_of((-0.1, 10.0, 10.0))
    with pytest.raises(DomainError):
        mesh.voxel_of((10.0, 10.0, 60.0))  # == upper bound, half-open


def test_clamp_inside_pulls_points_into_domain():
    mesh = cb.CartesianMesh(3, 3, 3)
    p = [-5.0, 30.0, 1e9]
    mesh.clamp_inside(p)
    assert mesh.contains(p)
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
    assert micro.densities[1, small_mesh.flatten(3, 1, 2)] == 7.0


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
    micro.densities[0, 5] = -1e-9
    with pytest.raises(NumericError):
        micro.check_state()
    micro.densities[0, 5] = float("nan")
    with pytest.raises(NumericError):
        micro.check_state()


# ---------------------------------------------------------------- cells

def test_cell_volume_formula():
    c = cb.Cell(id=0, position=[0.0, 0.0, 0.0], velocity=[0.0, 0.0, 0.0],
                radius=8.0)
    assert c.volume == pytest.approx(4.0 / 3.0 * math.pi * 512.0, rel=1e-15)


def test_new_cell_assigns_sequential_ids(small_mesh):
    cont = cb.CellContainer(small_mesh)
    a = cont.new_cell([10.0, 10.0, 10.0])
    b = cont.new_cell([30.0, 10.0, 10.0])
    assert (a.id, b.id) == (0, 1)
    assert cont.by_id[a.id] is a
    assert cont.positions_dirty
    cb.rebin_cells(cont)
    assert cont.cells.index(b) == 1
    assert not cont.positions_dirty


def test_rebin_matches_bruteforce_oracle(small_mesh):
    cont = make_container(small_mesh, [
        (10.0, 10.0, 10.0), (11.0, 10.0, 10.0), (70.0, 70.0, 70.0),
        (35.0, 50.0, 10.0),
    ])
    oracle = {}
    for c in cont.cells:
        oracle.setdefault(small_mesh.voxel_of(c.position), []).append(c.id)
    got = {v: ids for v, ids in cont.agent.items() if ids}
    assert got == oracle
    assert cont.nonempty_voxels == sorted(oracle)
    for c in cont.cells:
        assert c.voxel_index == small_mesh.voxel_of(c.position)
    cont.check_consistent()


def test_rebin_preserves_storage_order_within_voxel(small_mesh):
    # Two cells share a voxel; bin lists follow storage order, not id order.
    cont = cb.CellContainer(small_mesh)
    a = cont.new_cell([10.0, 10.0, 10.0])
    b = cont.new_cell([11.0, 10.0, 10.0])
    cont.cells.reverse()
    cb.rebin_cells(cont)
    assert cont.agent[a.voxel_index] == [b.id, a.id]
    assert [c.id for c in cont.cells] == [b.id, a.id]


def test_check_consistent_detects_stale_bin(small_mesh):
    cont = make_container(small_mesh, [(10.0, 10.0, 10.0)])
    cont.cells[0].position[0] = 50.0  # moved without rebin
    with pytest.raises(AssertionError):
        cont.check_consistent()
