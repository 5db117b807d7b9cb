"""Neighbor-interaction velocity updates under four scheduling strategies.

The force law is the overlapping-spheres potential: repulsion inside the
contact distance R = Ri+Rj, adhesion out to m_a*R, both quadratic in the
normalized overlap, directed along the center line.  Every cell's velocity is
accumulated over its candidate neighbors in ascending id order, which makes
the result bit-identical across schedules, worker counts, storage orders, and
allocation modes: the strategies may only move work around, never change it.

Candidate neighbors come from the container's voxel bins over the Moore
3x3x3 neighborhood, whose voxel indices are read from the mesh's lazily
cached neighbour table (`CartesianMesh.neighbours`).  Binning is exact, not
approximate, provided the voxel edge is at least the largest interaction
range (checked by `check_binning_exact` at run start).

Schedules:
* CellStatic       -- even contiguous split of the cell vector;
* CellDynamic(GS)  -- workers claim GS-sized chunks of the cell vector;
* Voxel(GS)        -- dynamic chunks over ALL voxels, empty ones tested and
                      skipped (their overhead is the point: iterations per
                      region equals the total voxel count);
* NonEmptyVoxel(GS)-- dynamic chunks over the non-empty voxel list only.

Both voxel schedules visit voxels in ascending index order inside a chunk.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import CartesianMesh, CellContainer
from .errors import ContainerStateError, DomainError, NumericError
from .parallel import RegionRecord, WorkerPool
from .smallvec import AllocationMode, vector_ops

#: Pairs closer than this (um) are skipped; the direction is numerically void.
EPS_SKIP = 1e-8


class ScheduleKind(enum.Enum):
    CELL_STATIC = "cell_static"
    CELL_DYNAMIC = "cell_dynamic"
    VOXEL = "voxel"
    NONEMPTY_VOXEL = "nonempty_voxel"


@dataclass(frozen=True)
class MechanicsSchedule:
    kind: ScheduleKind
    grain: int = 16

    def __post_init__(self):
        if self.grain < 1:
            raise DomainError("schedule grain must be >= 1")


@dataclass(frozen=True)
class InteractionParams:
    repulsion: float = 10.0
    adhesion: float = 0.4
    adhesion_multiplier: float = 1.25

    def __post_init__(self):
        if self.repulsion < 0.0 or self.adhesion < 0.0:
            raise DomainError("interaction strengths must be >= 0")
        if self.adhesion_multiplier < 1.0:
            raise DomainError("adhesion range multiplier must be >= 1")


def check_binning_exact(container: CellContainer, mesh: CartesianMesh,
                        params: InteractionParams) -> None:
    """Voxel binning covers every interaction iff edge >= m_a * 2 * R_max."""
    r_max = max((c.radius for c in container.cells), default=0.0)
    reach = params.adhesion_multiplier * 2.0 * r_max
    if min(mesh.dx, mesh.dy, mesh.dz) < reach:
        raise DomainError(
            f"voxel edge {min(mesh.dx, mesh.dy, mesh.dz)} shorter than the "
            f"interaction reach {reach}; neighbor binning would miss pairs"
        )


def _voxel_candidates(agent: dict, mesh: CartesianMesh, v: int) -> list[int]:
    """Ascending ids of all cells in the 3x3x3 voxel neighborhood of v."""
    ids: list[int] = []
    get = agent.get
    for u in mesh.neighbours(v):
        bucket = get(u)
        if bucket:
            ids.extend(bucket)
    ids.sort()
    return ids


def _worker_ops(ctx, mode: AllocationMode):
    """Ops facade counting into the worker's stats, and two scratch vectors."""
    return vector_ops(mode, ctx.stats), [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]


def _cell_velocity(cell, cand_ids, by_id, params, ops, w1, w2) -> None:
    """Accumulate cell.velocity over candidates in ascending id order."""
    acc = cell.velocity
    acc[0] = 0.0
    acc[1] = 0.0
    acc[2] = 0.0
    pi = cell.position
    ci_radius = cell.radius
    ci_id = cell.id
    m_a = params.adhesion_multiplier
    c_r = params.repulsion
    c_a = params.adhesion
    for cid in cand_ids:
        if cid == ci_id:
            continue
        cj = by_id[cid]
        dvec = ops.sub(cj.position, pi, w1)
        d = ops.norm(dvec)
        contact = ci_radius + cj.radius
        reach = m_a * contact
        if d < EPS_SKIP or d >= reach:
            continue
        rep = -c_r * (1.0 - d / contact) ** 2 if d < contact else 0.0
        adh = c_a * (1.0 - d / reach) ** 2
        contrib = ops.scale((rep + adh) / d, dvec, w2)
        acc = ops.add(acc, contrib, acc)
    if acc is not cell.velocity:
        ops.assign(cell.velocity, acc)


def update_velocities(container: CellContainer, mesh: CartesianMesh,
                      params: InteractionParams, schedule: MechanicsSchedule,
                      pool: WorkerPool,
                      alloc_mode: AllocationMode = AllocationMode.IN_PLACE) -> RegionRecord:
    """Recompute every cell's velocity from its in-range neighbors."""
    if container.positions_dirty:
        raise ContainerStateError("velocity update requires a rebinned container")
    cells = container.cells
    by_id = container.by_id
    agent = container.agent

    def cell_body(lo, hi, ctx):
        ops, w1, w2 = _worker_ops(ctx, alloc_mode)
        memo: dict[int, list[int]] = {}
        for cell in cells[lo:hi]:
            cand = memo.get(cell.voxel_index)
            if cand is None:
                cand = _voxel_candidates(agent, mesh, cell.voxel_index)
                memo[cell.voxel_index] = cand
            _cell_velocity(cell, cand, by_id, params, ops, w1, w2)

    kind = schedule.kind
    voxels = (range(mesh.voxel_count) if kind is ScheduleKind.VOXEL
              else container.nonempty_voxels)

    def voxel_body(lo, hi, ctx):
        ops, w1, w2 = _worker_ops(ctx, alloc_mode)
        get = agent.get
        for v in voxels[lo:hi]:
            bucket = get(v)
            if not bucket:
                continue
            cand = _voxel_candidates(agent, mesh, v)
            for cid in bucket:
                _cell_velocity(by_id[cid], cand, by_id, params, ops, w1, w2)

    if kind is ScheduleKind.CELL_STATIC:
        return pool.run_static(len(cells), cell_body)
    if kind is ScheduleKind.CELL_DYNAMIC:
        return pool.run_dynamic(len(cells), schedule.grain, cell_body)
    if kind in (ScheduleKind.VOXEL, ScheduleKind.NONEMPTY_VOXEL):
        return pool.run_dynamic(len(voxels), schedule.grain, voxel_body)
    raise DomainError(f"unknown schedule kind {kind!r}")


def integrate_positions(container: CellContainer, mesh: CartesianMesh,
                        dt: float, pool: WorkerPool) -> RegionRecord:
    """Forward Euler x += dt*v, clamped strictly inside the mesh; marks dirty.

    A non-finite velocity gives a non-finite position, which raises
    `NumericError` instead of being clamped back into the box.
    """
    if dt <= 0.0:
        raise DomainError("integration needs dt > 0")
    cells = container.cells

    def body(lo, hi, ctx):
        for cell in cells[lo:hi]:
            p, v = cell.position, cell.velocity
            p[0] += dt * v[0]
            p[1] += dt * v[1]
            p[2] += dt * v[2]
            if not mesh.contains(p):
                # NaN and inf fail `contains`; clamping would hide an inf
                if not all(map(math.isfinite, p)):
                    raise NumericError(f"cell {cell.id} moved to non-finite {p}")
                mesh.clamp_inside(p)
    record = pool.run_static(len(cells), body)
    container.positions_dirty = True
    return record
