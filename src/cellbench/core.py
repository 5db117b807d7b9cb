"""Simulation domain: voxel mesh, substrate fields, cells, and the cell container.

Positions and velocities are float64 (micrometers and micrometers/minute).
The cells live in numpy arrays, one row per cell in storage order; substrate
fields live in numpy arrays indexed by a flat voxel index.  The flattening is
x-fastest so that a z-outermost traversal walks the slowest-varying axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContainerStateError, DomainError, NumericError

#: Positions are clamped this far (um) inside the mesh when pushed past a face.
POSITION_EPS = 1e-6


@dataclass(frozen=True)
class CartesianMesh:
    """Uniform axis-aligned voxel grid.

    Voxel boxes are half-open per axis, [lo, hi), so every in-bounds point maps
    to exactly one voxel and points on the global upper faces are rejected.
    The position methods take one position or an (n, 3) array of them.
    """

    nx: int
    ny: int
    nz: int
    dx: float = 20.0
    dy: float = 20.0
    dz: float = 20.0
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("voxel counts must be >= 1")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise DomainError("voxel edge lengths must be > 0")
        # read-only float64 (3,) arrays of the bounds and the spacing, and the
        # flat-index weight of each axis, built once for the per-step kernels
        for name, value in (("lower_bounds", self.origin), ("upper_bounds", self.upper),
                            ("spacing", (self.dx, self.dy, self.dz)),
                            ("_dims", (self.nx, self.ny, self.nz)),
                            ("_strides", (1, self.nx, self.nx * self.ny))):
            array = np.array(value, dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def voxel_count(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def voxel_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @property
    def upper(self) -> tuple:
        ox, oy, oz = self.origin
        return (ox + self.nx * self.dx, oy + self.ny * self.dy, oz + self.nz * self.dz)

    def voxels_of(self, positions) -> np.ndarray:
        """Flat voxel indices of in-bounds positions; DomainError for any other.

        The index along each axis is the floor of q = (p - origin) / h, as
        `np.floor_divide`, Python's float `//`, gives it.  `np.floor(q)` is
        that floor unless q rounded onto an integer: the rounding is
        monotone and every integer below 2**53 is a float, so a quotient
        strictly between two integers rounds to a value in the same closed
        interval.  Only the entries with floor(q) == q are therefore
        recomputed with `np.floor_divide`.  NaN and points outside the mesh
        fail the bounds check and raise.
        """
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        # one row per axis, so every ufunc loops over the points
        offset = np.empty((3, len(pos)))
        np.subtract(pos.T, self.lower_bounds[:, None], out=offset)
        quotient = offset / self.spacing[:, None]
        idx = np.floor(quotient)
        on_integer = idx == quotient
        if on_integer.any():
            axes, cols = on_integer.nonzero()
            with np.errstate(invalid="ignore"):  # inf // h is NaN, which raises below
                idx[axes, cols] = np.floor_divide(offset[axes, cols], self.spacing[axes])
        # NaN fails both comparisons
        if not (idx.min(initial=0.0) >= 0.0
                and (idx.max(axis=1, initial=0.0) < self._dims).all()):
            inside = ((idx >= 0.0) & (idx < self._dims[:, None])).all(axis=0)
            bad = pos[np.argmin(inside)]
            raise DomainError(f"position {tuple(bad.tolist())} outside mesh bounds")
        return (self._strides @ idx).astype(np.int64)

    def clamp_inside(self, position) -> None:
        """Clamp positions (in place) strictly inside the mesh faces."""
        lower = np.add(self.origin, POSITION_EPS)
        upper = np.subtract(self.upper, POSITION_EPS)
        position[:] = np.minimum(np.maximum(position, lower), upper)


class Microenvironment:
    """Per-substrate density and gradient fields plus diffusion/decay rates.

    `densities` has shape (substrates, voxels).  The gradients are stored
    planar, as the C-contiguous `gradient_planes` of shape (substrates, 3,
    voxels), so each component is one unit-stride plane.  `gradients` is the
    (substrates, voxels, 3) `np.moveaxis` view of it: reads and writes
    through it reach the planes, and `tobytes()` emits its logical
    (voxel, component) order.  A reshape of it that merges the voxel and
    component axes is a copy, so never write through a reshape.

    A density row keeps its (z, y, x) layout at all times; no field-sized
    buffer is kept beside it.  `sweep_plan` holds `diffusion.lod_step`'s
    per-worker scratch tiles, each at most `diffusion.TILE` float64 of
    lines and one scratch row, and its views of the densities; None until
    the first step, it is rebuilt only when the mesh, the worker count or
    the traversal mode changes.
    """

    def __init__(self, mesh: CartesianMesh, diffusion, decay, initial=None):
        self.mesh = mesh
        self.diffusion = np.asarray(diffusion, dtype=np.float64).reshape(-1)
        self.decay = np.asarray(decay, dtype=np.float64).reshape(-1)
        if self.diffusion.shape != self.decay.shape:
            raise DomainError("diffusion and decay must list one value per substrate")
        if np.any(self.diffusion < 0) or np.any(self.decay < 0):
            raise DomainError("diffusion and decay rates must be >= 0")
        s = self.diffusion.shape[0]
        n = mesh.voxel_count
        self.densities = np.zeros((s, n), dtype=np.float64)
        if initial is not None:
            init = np.asarray(initial, dtype=np.float64).reshape(-1)
            if init.shape[0] != s:
                raise DomainError("one initial density per substrate required")
            self.densities += init[:, None]
        self.gradient_planes = np.zeros((s, 3, n), dtype=np.float64)
        self.gradients = np.moveaxis(self.gradient_planes, 1, 2)
        self.sweep_plan = None

    @property
    def substrate_count(self) -> int:
        return self.densities.shape[0]

    def grid_view(self, s: int) -> np.ndarray:
        """Density of substrate s as a (nz, ny, nx) view of the flat array."""
        m = self.mesh
        return self.densities[s].reshape(m.nz, m.ny, m.nx)

    def check_state(self) -> None:
        # two reductions, no field-sized temporary; a NaN fails the first
        # comparison, and -0.0 passes it
        d = self.densities
        if not (d.min(initial=0.0) >= 0.0 and d.max(initial=0.0) < np.inf):
            raise NumericError("substrate field left finite/non-negative range")


@dataclass(frozen=True, eq=False)
class Cell:
    """One storage row of a `CellContainer`, as `CellContainer.cells` lists it.

    `position` and `velocity` are views of the row: writes through them reach
    the container until its storage is next reordered (`take`) or
    reallocated (an append past capacity).  The other fields are copies.
    """

    id: int
    position: np.ndarray
    velocity: np.ndarray
    radius: float
    division_rate: float
    voxel_index: int


class CellContainer:
    """Cell storage as arrays in storage order, plus the voxel bins.

    Row i of `positions`, `velocities`, `radii`, `division_rates`, `ids` and
    `voxels` describes the cell at storage index i.  That order is
    semantically significant: it is the memory layout whose locality the
    storage-order strategies manipulate.  New cells are appended at the end;
    when the arrays are full, their capacity doubles, so n appends
    reallocate O(log n) times.

    `rebin_cells` alone writes the voxel bins, in CSR form over the ascending
    `nonempty_voxels`: the storage rows of the cells in `nonempty_voxels[k]`
    are `bin_rows[bin_ptr[k]:bin_ptr[k + 1]]`, in ascending id order.  Every
    bin array scales with the cell count, not the voxel count.

    The bins depend only on the voxels, ids and order of the rows, so they
    are kept while no cell changes voxel.  `positions_dirty` is the one
    staleness flag: every writer of positions or rows sets it, and
    `add_cells` and `take` also mark the voxel of each row they write unknown
    (-1), which no recomputed voxel equals, so `rebin_cells` rebuilds the
    bins after them.  `candidates` holds the velocity kernel's pair lists
    (`mechanics.PairLists`) for the container's whole life: on first use
    after each rebuild of the bins they compare the voxel of each id with
    their own record and patch themselves for the cells that changed voxel,
    were born or are gone.  They never hold a view of a column, since an
    append may reallocate the columns.  `exchange_plan` holds the cell
    exchange's per-voxel plan (`diffusion.ExchangePlan`), None until the
    first exchange: it is rebuilt only when the bins were rebuilt or the
    exchange parameters differ.  Every reader of the bins calls
    `require_binned` first, so none reads bins that a move, an append or a
    `take` since the last rebin has made stale.
    """

    #: (attribute, row shape, dtype) of every per-cell column.
    _COLUMNS = (("_pos", (3,), np.float64), ("_vel", (3,), np.float64),
                ("_radius", (), np.float64), ("_rate", (), np.float64),
                ("_ids", (), np.int64), ("_voxel", (), np.int64))

    def __init__(self, mesh: CartesianMesh):
        self.mesh = mesh
        self._n = 0
        self._allocate(16)
        self.nonempty_voxels = np.zeros(0, dtype=np.int64)
        self.bin_ptr = np.zeros(1, dtype=np.intp)
        self.bin_rows = np.zeros(0, dtype=np.intp)
        self.next_id = 0
        self.positions_dirty = False
        self.candidates = None
        self.exchange_plan = None

    def _allocate(self, capacity: int) -> None:
        """(Re)allocate every column at `capacity` rows, keeping the first n."""
        for name, shape, dtype in self._COLUMNS:
            column = np.zeros((capacity, *shape), dtype=dtype)
            if self._n:
                column[:self._n] = getattr(self, name)[:self._n]
            setattr(self, name, column)

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return len(self._ids)

    @property
    def positions(self) -> np.ndarray:
        return self._pos[:self._n]

    @property
    def velocities(self) -> np.ndarray:
        return self._vel[:self._n]

    @property
    def radii(self) -> np.ndarray:
        return self._radius[:self._n]

    @property
    def division_rates(self) -> np.ndarray:
        return self._rate[:self._n]

    @property
    def ids(self) -> np.ndarray:
        return self._ids[:self._n]

    @property
    def voxels(self) -> np.ndarray:
        """Voxel of each row as of the last `rebin_cells`."""
        return self._voxel[:self._n]

    @property
    def volumes(self) -> np.ndarray:
        """Sphere volume of each row; `float_power` calls libm pow like `**`."""
        return (4.0 / 3.0) * math.pi * np.float_power(self.radii, 3.0)

    @property
    def cells(self) -> list[Cell]:
        """A fresh list of one `Cell` per row, in storage order."""
        return [Cell(*row) for row in zip(self.ids.tolist(), self.positions, self.velocities,
                                          self.radii.tolist(), self.division_rates.tolist(),
                                          self.voxels.tolist())]

    def add_cells(self, positions, radius=8.0, division_rate=0.0, velocities=None) -> range:
        """Append one row per position, with fresh ids; returns the new ids.

        `radius` and `division_rate` are one value or one per row; velocities
        are zero unless given.
        """
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        lo, hi = self._n, self._n + len(positions)
        if hi > self.capacity:
            self._allocate(max(2 * self.capacity, hi))
        new_ids = range(self.next_id, self.next_id + len(positions))
        self._pos[lo:hi] = positions
        self._vel[lo:hi] = 0.0 if velocities is None else velocities
        self._radius[lo:hi] = radius
        self._rate[lo:hi] = division_rate
        self._ids[lo:hi] = new_ids
        self._voxel[lo:hi] = -1
        self._n = hi
        self.next_id = new_ids.stop
        self.positions_dirty = True
        return new_ids

    def take(self, rows) -> None:
        """Keep the given storage rows, in the given order; a permutation of
        all rows reorders storage.  The bins are stale until the next rebin,
        and until then every row's voxel, and so its `Cell.voxel_index`,
        reads -1."""
        rows = np.asarray(rows, dtype=np.intp)
        for name, _, _ in self._COLUMNS:
            column = getattr(self, name)
            column[:len(rows)] = column[rows]
        self._n = len(rows)
        self._voxel[:self._n] = -1
        self.positions_dirty = True

    def require_binned(self, action: str) -> None:
        """Raise `ContainerStateError` unless the bins match the rows and positions."""
        if self.positions_dirty:
            raise ContainerStateError(f"{action} requires a rebinned container")


def rebin_cells(container: CellContainer) -> CellContainer:
    """Recompute every row's voxel and bring the CSR voxel bins up to date.

    Serial; the single place where the spatial index is brought back in sync
    with positions after moves, divisions or reorders.  Every voxel is
    recomputed, so a position outside the mesh always raises.  A container
    without `positions_dirty` set is returned at once: whoever writes
    positions must set it, as `integrate_positions` does.  The bins are kept
    exactly when the rows are the ones binned and every recomputed voxel
    equals the recorded one; a row that `add_cells` or `take` wrote records
    -1, which never does, and a `take` of no rows leaves fewer.  Otherwise the
    bins come from one sort of the rows by (voxel, id) into a new `bin_rows`
    array, which tells the pair lists in `candidates` that they are stale.
    """
    if not container.positions_dirty:
        return container
    voxels = container.mesh.voxels_of(container.positions)
    n = len(voxels)
    if n == len(container.bin_rows) and (voxels == container.voxels).all():
        container.positions_dirty = False
        return container
    container._voxel[:n] = voxels
    rows = (voxels * container.next_id + container.ids).argsort(kind="stable")
    binned = voxels[rows]
    first_in_bin = np.ones(n, dtype=bool)
    first_in_bin[1:] = binned[1:] != binned[:-1]
    starts = first_in_bin.nonzero()[0]
    container.nonempty_voxels = binned[starts]
    container.bin_ptr = np.concatenate((starts, [n]))
    container.bin_rows = rows
    container.positions_dirty = False
    return container
