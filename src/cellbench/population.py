"""Division dynamics and cell storage-order policies.

Divisions are the locality-degradation mechanism: daughters are appended as
new rows at the end of the cell arrays, so after enough divisions, cells that
are physical neighbors end up far apart in storage.  The voxel-sorted policy
periodically permutes the rows to match the mesh, and `locality_metric`
quantifies the storage distance between interacting cells so the two policies
can be compared on the same physical state.

Division decisions use counter-based draws, a hash of (seed, cell id,
step): whether and how a given cell divides never depends on storage order,
worker count, or schedule, which is what makes trajectories comparable across
every strategy combination.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import CartesianMesh, CellContainer, rebin_cells
from .errors import CapacityError, DomainError
from .mechanics import BLOCK, InteractionParams, PairKernel
from .smallvec import InPlaceVectorOps

_MASK = (1 << 64) - 1

#: Desk-scale guard: runs halt rather than grow without bound.
DEFAULT_CELL_CAP = 200000


def _mix64(x):
    """Finalizing 64-bit avalanche; consecutive inputs give unrelated outputs.

    x is a Python int, masked to 64 bits after every step, or a numpy uint64
    array, whose arithmetic wraps at 64 bits by itself and so needs no
    masks; both give the same values.
    """
    if isinstance(x, np.ndarray):
        x = x + 0x9E3779B97F4A7C15
        x ^= x >> 30
        x *= 0xBF58476D1CE4E5B9
        x ^= x >> 27
        x *= 0x94D049BB133111EB
        x ^= x >> 31
        return x
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _unit(h):
    return (h >> 11) * (1.0 / (1 << 53))


def _draw_base(seed: int, cell_id, step: int):
    return _mix64(_mix64(_mix64(seed & _MASK) ^ (cell_id & _MASK)) ^ (step & _MASK))


def _draw(base, k: int):
    return _unit(_mix64(base ^ k))


def division_draws(seed: int, cell_id, step: int):
    """Three uniforms in [0,1) that depend only on (seed, cell id, step).

    An int `cell_id` gives three floats; a uint64 id array gives three
    arrays, one draw per id, equal to the scalar draws.
    """
    base = _draw_base(seed, cell_id, step)
    return _draw(base, 1), _draw(base, 2), _draw(base, 3)


class StorageKind(enum.Enum):
    APPEND_ORDER = "append"
    VOXEL_SORTED = "sorted"


@dataclass(frozen=True)
class StorageOrder:
    kind: StorageKind
    every: int = 50

    def __post_init__(self):
        if self.every < 1:
            raise DomainError("resort period must be >= 1")


def _division_probabilities(rates: np.ndarray, dt: float) -> np.ndarray:
    """1 - exp(-rate*dt) per entry, with one `math.exp` per distinct rate."""
    distinct, which = np.unique(rates, return_inverse=True)
    return np.array([1.0 - math.exp(-rate * dt) for rate in distinct.tolist()]).take(which)


def attempt_divisions(container: CellContainer, seed: int, dt: float,
                      mesh: CartesianMesh, step: int,
                      cap: int = DEFAULT_CELL_CAP) -> range:
    """Serial division pass; returns the daughters' ids, in parent-id order.

    Each cell divides with probability 1 - exp(-rate*dt), decided by its
    first draw.  The daughter copies the parent's radius, rate and velocity,
    takes a fresh id, and is placed R/2 away along the unit direction of the
    parent's other two draws, clamped inside the mesh.  Parents are
    processed in ascending id order so daughter ids are reproducible
    whatever the storage order.  The daughters are appended as new rows at
    the end of storage, and the bins are rebuilt.
    """
    if dt <= 0.0:
        raise DomainError("division step needs dt > 0")
    rows = (container.division_rates > 0.0).nonzero()[0]
    if not len(rows):
        return range(0)
    p_divide = _division_probabilities(container.division_rates[rows], dt)
    ids = container.ids[rows].astype(np.uint64)
    # `division_draws`, with the placement draws made for the parents only
    base = _draw_base(seed, ids, step)
    chosen = (_draw(base, 1) < p_divide).nonzero()[0]
    if not len(chosen):
        return range(0)
    if len(container) + len(chosen) > cap:
        raise CapacityError(
            f"division would exceed the {cap}-cell cap "
            f"({len(container)} + {len(chosen)})"
        )
    chosen = chosen[ids[chosen].argsort(kind="stable")]
    parents = rows[chosen]
    base = base[chosen]
    positions = []
    for (px, py, pz), radius, uz, uphi in zip(container.positions[parents].tolist(),
                                              container.radii[parents].tolist(),
                                              _draw(base, 2).tolist(), _draw(base, 3).tolist()):
        z = 2.0 * uz - 1.0
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        phi = 2.0 * math.pi * uphi
        half_r = 0.5 * radius
        positions.append([
            px + half_r * rho * math.cos(phi),
            py + half_r * rho * math.sin(phi),
            pz + half_r * z,
        ])
    positions = np.array(positions)
    mesh.clamp_inside(positions)
    daughters = container.add_cells(positions, radius=container.radii[parents],
                                    division_rate=container.division_rates[parents],
                                    velocities=container.velocities[parents])
    rebin_cells(container)
    return daughters


def sort_cells_by_voxel(container: CellContainer) -> CellContainer:
    """Reorder storage by (voxel index, id) and rebuild the spatial index.

    The CSR bins already list the rows in that order, so the resort is one
    permutation of every column.
    """
    container.require_binned("resorting")
    container.take(container.bin_rows)
    return rebin_cells(container)


def locality_metric(container: CellContainer,
                    params: InteractionParams = InteractionParams()) -> float:
    """Mean storage-index distance between interacting cells.

    For each cell with at least one in-range neighbor, take the mean
    |index(i) - index(j)| over those neighbors, where index is the storage
    row; the metric is the mean over such cells, 0.0 when no interacting pair
    exists.  The pairs come from the velocity kernel, each once, and count
    for both cells; the distance totals are integer-valued, so they are
    exact in any order.  The per-cell means are summed in storage order by
    Python's `sum`.  Stale bins raise `ContainerStateError`.
    """
    container.require_binned("locality metric")
    kernel = PairKernel(container, params)
    n = len(container)
    totals = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    lower, higher = kernel.lists.build_forward(container)
    for lo in range(0, len(lower), BLOCK):
        i, j, *_ = kernel.in_range(lower[lo:lo + BLOCK], higher[lo:lo + BLOCK],
                                   InPlaceVectorOps(None))
        gap = np.abs(i - j)
        for rows in (i, j):
            counts += np.bincount(rows, minlength=n)
            totals += np.bincount(rows, weights=gap, minlength=n)
    interacting = counts > 0
    per_cell = (totals[interacting] / counts[interacting]).tolist()
    if not per_cell:
        return 0.0
    return sum(per_cell) / len(per_cell)
