"""Division dynamics and cell storage-order policies.

Divisions are the locality-degradation mechanism: daughters are appended at
the end of the cell sequence, so after enough divisions, cells that are
physical neighbors end up far apart in storage.  The voxel-sorted policy
periodically reorders storage to match the mesh, and `locality_metric`
quantifies the storage distance between interacting cells so the two policies
can be compared on the same physical state.

Division decisions use a counter-based generator keyed by (seed, cell id,
step): whether and how a given cell divides never depends on storage order,
worker count, or schedule, which is what makes trajectories comparable across
every strategy combination.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import CartesianMesh, Cell, CellContainer, rebin_cells
from .errors import CapacityError, DomainError
from .mechanics import EPS_SKIP, InteractionParams, _voxel_candidates

_MASK = (1 << 64) - 1

#: Desk-scale guard: runs halt rather than grow without bound.
DEFAULT_CELL_CAP = 200000


def _mix64(x: int) -> int:
    """Finalizing 64-bit avalanche; consecutive inputs give unrelated outputs."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _unit(h: int) -> float:
    return (h >> 11) * (1.0 / (1 << 53))


def _draw_base(seed_hash: int, cell_id: int, step: int) -> int:
    """The hash the draws of (seed, cell id, step) come from; seed_hash = _mix64(seed)."""
    return _mix64(_mix64(seed_hash ^ (cell_id & _MASK)) ^ (step & _MASK))


def division_draws(seed: int, cell_id: int, step: int) -> tuple[float, float, float]:
    """Three uniforms in [0,1) that depend only on (seed, cell id, step)."""
    base = _draw_base(_mix64(seed & _MASK), cell_id, step)
    return (
        _unit(_mix64(base ^ 1)),
        _unit(_mix64(base ^ 2)),
        _unit(_mix64(base ^ 3)),
    )


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


def attempt_divisions(container: CellContainer, seed: int, dt: float,
                      mesh: CartesianMesh, step: int,
                      cap: int = DEFAULT_CELL_CAP) -> list[Cell]:
    """Serial division pass; returns the daughters, appended in parent-id order.

    Each cell divides with probability 1 - exp(-rate*dt).  The daughter copies
    the parent, takes a fresh id, and is placed R/2 away along a random unit
    direction, clamped inside the mesh.  Parents are processed in ascending id
    order so daughter ids are reproducible whatever the storage order.
    """
    if dt <= 0.0:
        raise DomainError("division step needs dt > 0")
    # only the first draw decides; its probability is computed once per rate
    seed_hash = _mix64(seed & _MASK)
    p_divide: dict[float, float] = {}
    dividing: list[Cell] = []
    for cell in container.cells:
        rate = cell.division_rate
        if rate <= 0.0:
            continue
        if rate not in p_divide:
            p_divide[rate] = 1.0 - math.exp(-rate * dt)
        if _unit(_mix64(_draw_base(seed_hash, cell.id, step) ^ 1)) < p_divide[rate]:
            dividing.append(cell)
    if not dividing:
        return []
    if len(container.cells) + len(dividing) > cap:
        raise CapacityError(
            f"division would exceed the {cap}-cell cap "
            f"({len(container.cells)} + {len(dividing)})"
        )
    daughters = []
    for parent in sorted(dividing, key=lambda c: c.id):
        _, u_z, u_phi = division_draws(seed, parent.id, step)
        z = 2.0 * u_z - 1.0
        rho = math.sqrt(max(0.0, 1.0 - z * z))
        phi = 2.0 * math.pi * u_phi
        half_r = 0.5 * parent.radius
        pos = [
            parent.position[0] + half_r * rho * math.cos(phi),
            parent.position[1] + half_r * rho * math.sin(phi),
            parent.position[2] + half_r * z,
        ]
        mesh.clamp_inside(pos)
        daughter = container.new_cell(
            pos,
            radius=parent.radius,
            division_rate=parent.division_rate,
        )
        daughter.velocity[0] = parent.velocity[0]
        daughter.velocity[1] = parent.velocity[1]
        daughter.velocity[2] = parent.velocity[2]
        daughters.append(daughter)
    rebin_cells(container)
    return daughters


def sort_cells_by_voxel(container: CellContainer) -> CellContainer:
    """Reorder storage by (voxel index, id) and rebuild the spatial index."""
    container.cells.sort(key=lambda c: (c.voxel_index, c.id))
    return rebin_cells(container)


def locality_metric(container: CellContainer,
                    params: InteractionParams = InteractionParams()) -> float:
    """Mean storage-index distance between interacting cells.

    For each cell with at least one in-range neighbor, take the mean
    |index(i) - index(j)| over those neighbors, where index is the position in
    `container.cells`; the metric is the mean over such cells, 0.0 when no
    interacting pair exists.
    """
    mesh = container.mesh
    agent = container.agent
    by_id = container.by_id
    sidx = {cell.id: idx for idx, cell in enumerate(container.cells)}
    m_a = params.adhesion_multiplier
    per_cell: list[float] = []
    for cell in container.cells:
        cand = _voxel_candidates(agent, mesh, cell.voxel_index)
        total = 0.0
        count = 0
        pi = cell.position
        my_idx = sidx[cell.id]
        for cid in cand:
            if cid == cell.id:
                continue
            cj = by_id[cid]
            pj = cj.position
            ddx = pj[0] - pi[0]
            ddy = pj[1] - pi[1]
            ddz = pj[2] - pi[2]
            d = math.sqrt(ddx * ddx + ddy * ddy + ddz * ddz)
            if d < EPS_SKIP or d >= m_a * (cell.radius + cj.radius):
                continue
            total += abs(my_idx - sidx[cid])
            count += 1
        if count:
            per_cell.append(total / count)
    if not per_cell:
        return 0.0
    return sum(per_cell) / len(per_cell)
