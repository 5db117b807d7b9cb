"""Simulation domain: voxel mesh, substrate fields, cells, and the cell container.

Positions and velocities are length-3 lists of floats (micrometers and
micrometers/minute).  Substrate fields live in numpy arrays indexed by a flat
voxel index; the flattening is x-fastest so that a z-outermost traversal walks
the slowest-varying axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError

# Small vectors are plain mutable lists so arithmetic modes can either rebuild
# them or write into them in place.
Vec3 = list

#: Positions are clamped this far (um) inside the mesh when pushed past a face.
POSITION_EPS = 1e-6


def vec3(x: float = 0.0, y: float = 0.0, z: float = 0.0) -> Vec3:
    return [float(x), float(y), float(z)]


@dataclass(frozen=True)
class CartesianMesh:
    """Uniform axis-aligned voxel grid.

    Voxel boxes are half-open per axis, [lo, hi), so every in-bounds point maps
    to exactly one voxel and points on the global upper faces are rejected.
    `neighbour_table` caches `neighbours(v)` for the voxels asked about so far;
    it takes no part in equality, hashing or repr.
    """

    nx: int
    ny: int
    nz: int
    dx: float = 20.0
    dy: float = 20.0
    dz: float = 20.0
    origin: tuple = (0.0, 0.0, 0.0)
    neighbour_table: dict = field(default_factory=dict, init=False,
                                  compare=False, repr=False)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise DomainError("voxel counts must be >= 1")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise DomainError("voxel edge lengths must be > 0")

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

    def flatten(self, ix: int, iy: int, iz: int) -> int:
        return ix + self.nx * (iy + self.ny * iz)

    def unflatten(self, v: int) -> tuple:
        ix = v % self.nx
        rest = v // self.nx
        return (ix, rest % self.ny, rest // self.ny)

    def neighbours(self, v: int) -> tuple:
        """Ascending flat indices of the Moore 3x3x3 neighbourhood of v, v included.

        The neighbourhood is clipped at the mesh faces.  Entries are computed on
        first request only; an eager table for a large mesh would cost tens of
        MiB for voxels no cell ever enters.  Two workers filling the same entry
        at once compute the same tuple, so the race is harmless.
        """
        hood = self.neighbour_table.get(v)
        if hood is None:
            nx, ny = self.nx, self.ny
            ix, iy, iz = self.unflatten(v)
            hood = tuple(
                x + nx * (y + ny * z)
                for z in range(max(iz - 1, 0), min(iz + 2, self.nz))
                for y in range(max(iy - 1, 0), min(iy + 2, ny))
                for x in range(max(ix - 1, 0), min(ix + 2, nx))
            )
            self.neighbour_table[v] = hood
        return hood

    def voxel_of(self, position) -> int:
        """Flat voxel index of an in-bounds position; DomainError otherwise."""
        ox, oy, oz = self.origin
        ix = int((position[0] - ox) // self.dx)
        iy = int((position[1] - oy) // self.dy)
        iz = int((position[2] - oz) // self.dz)
        if not (0 <= ix < self.nx and 0 <= iy < self.ny and 0 <= iz < self.nz):
            raise DomainError(f"position {tuple(position)} outside mesh bounds")
        return self.flatten(ix, iy, iz)

    def contains(self, position) -> bool:
        ox, oy, oz = self.origin
        ux, uy, uz = self.upper
        return (
            ox <= position[0] < ux
            and oy <= position[1] < uy
            and oz <= position[2] < uz
        )

    def clamp_inside(self, position) -> None:
        """Clamp a position (in place) strictly inside the mesh faces."""
        ox, oy, oz = self.origin
        ux, uy, uz = self.upper
        position[0] = min(max(position[0], ox + POSITION_EPS), ux - POSITION_EPS)
        position[1] = min(max(position[1], oy + POSITION_EPS), uy - POSITION_EPS)
        position[2] = min(max(position[2], oz + POSITION_EPS), uz - POSITION_EPS)


class Microenvironment:
    """Per-substrate density and gradient fields plus diffusion/decay rates.

    densities has shape (substrates, voxels); gradients (substrates, voxels, 3).
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
        self.gradients = np.zeros((s, n, 3), dtype=np.float64)

    @property
    def substrate_count(self) -> int:
        return self.densities.shape[0]

    def grid_view(self, s: int) -> np.ndarray:
        """Density of substrate s as a (nz, ny, nx) view of the flat array."""
        m = self.mesh
        return self.densities[s].reshape(m.nz, m.ny, m.nx)

    def check_state(self) -> None:
        if not np.isfinite(self.densities).all() or (self.densities < 0.0).any():
            raise NumericError("substrate field left finite/non-negative range")


@dataclass
class Cell:
    """One agent: geometry, kinematics, and per-cell rate parameters."""

    id: int
    position: Vec3
    velocity: Vec3
    radius: float = 8.0
    division_rate: float = 0.0
    voxel_index: int = -1

    @property
    def volume(self) -> float:
        return (4.0 / 3.0) * math.pi * self.radius**3


class CellContainer:
    """Ordered cell storage plus the per-voxel spatial index.

    The storage order of `cells` is semantically significant: it is the memory
    layout whose locality the storage-order strategies manipulate.  `agent`
    maps a voxel index to the ids of the cells inside it; `nonempty_voxels` is
    the ascending list of voxels with at least one cell.  Only `rebin_cells`
    writes the spatial index.
    """

    def __init__(self, mesh: CartesianMesh):
        self.mesh = mesh
        self.cells: list[Cell] = []
        self.by_id: dict[int, Cell] = {}
        self.agent: dict[int, list[int]] = {}
        self.nonempty_voxels: list[int] = []
        self.next_id = 0
        self.positions_dirty = False

    def __len__(self) -> int:
        return len(self.cells)

    def new_cell(self, position, **kwargs) -> Cell:
        cell = Cell(id=self.next_id, position=list(position), velocity=vec3(), **kwargs)
        self.next_id += 1
        self.cells.append(cell)
        self.by_id[cell.id] = cell
        self.positions_dirty = True
        return cell

    def check_consistent(self) -> None:
        """Verify the container invariants; raises AssertionError on violation."""
        seen = 0
        for v, ids in self.agent.items():
            assert ids, f"agent list for voxel {v} is empty but present"
            for cid in ids:
                cell = self.by_id[cid]
                assert cell.voxel_index == v
                assert self.mesh.voxel_of(cell.position) == v
                seen += 1
        assert seen == len(self.cells)
        assert self.nonempty_voxels == sorted(self.agent)


def rebin_cells(container: CellContainer) -> CellContainer:
    """Rebuild the per-voxel agent lists and the non-empty list.

    Serial; the single place where the spatial index is brought back in sync
    with positions after moves or divisions.
    """
    mesh = container.mesh
    agent: dict[int, list[int]] = {}
    for cell in container.cells:
        v = mesh.voxel_of(cell.position)
        cell.voxel_index = v
        bucket = agent.get(v)
        if bucket is None:
            agent[v] = [cell.id]
        else:
            bucket.append(cell.id)
    container.agent = agent
    container.nonempty_voxels = sorted(agent)
    container.positions_dirty = False
    return container
