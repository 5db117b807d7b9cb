"""Neighbor-interaction velocity updates under four scheduling strategies.

The force law is the overlapping-spheres potential: repulsion inside the
contact distance R = Ri+Rj, adhesion out to m_a*R, both quadratic in the
normalized overlap, directed along the center line.  Every cell's velocity is
accumulated from 0.0 over its in-range neighbors in ascending id order, which
makes the result bit-identical across schedules, worker counts, storage
orders, and allocation modes: the strategies may only move work around, never
change it.

One vectorized pair kernel (`PairKernel`) serves the velocity update and the
locality metric.  It reads a candidate table derived from the container's
CSR voxel bins: for each non-empty voxel, the storage rows of the cells in its
Moore 3x3x3 neighborhood, in ascending id order (`_candidate_order` is the
one step that sets that order).  The table is cached on the container and
built again only after `rebin_cells` rebuilt the bins, which it does only
when a row was added or reordered or a cell changed voxel.  Binning is
exact, not approximate, provided the voxel edge is at least the largest
interaction range (checked by `check_binning_exact` at run start).  A chunk
expands its target cells against the table in blocks of about `BLOCK`
candidate pairs, so the pair arrays stay bounded whatever the cell count.
Each block's contributions are then summed by one `ops.sum_segments`: every
pair goes to row (its rank among its target's pairs) of a zero-padded
buffer, and one sequential `np.add.accumulate` over the rows keeps each sum
in ascending id order, from 0.0.  Squares are `np.float_power(x, 2.0)`, which calls libm pow as Python's `**`
does; the norm is d0*d0 + d1*d1 + d2*d2.

The vector-valued operators come from `smallvec.vector_ops`: under `temp`
each makes a fresh array, under `inplace` each writes into an `out=` buffer.

Schedules:
* CellStatic       -- even contiguous split of the cell rows;
* CellDynamic(GS)  -- workers claim GS-sized chunks of the cell rows;
* Voxel(GS)        -- dynamic chunks over ALL voxels, empty ones tested and
                      skipped (their overhead is the point: iterations per
                      region equals the total voxel count);
* NonEmptyVoxel(GS)-- dynamic chunks over the non-empty voxel list only.

A chunk computes the velocities of its own cells: storage rows [lo, hi), or
the CSR bin rows of its voxels.  A chunk of empty voxels returns before its
first numpy call.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import CartesianMesh, CellContainer
from .errors import ContainerStateError, DomainError, NumericError
from .parallel import RegionRecord, WorkerPool
from .smallvec import AllocationMode, norm, vector_ops

#: Pairs closer than this (um) are skipped; the direction is numerically void.
EPS_SKIP = 1e-8

#: Candidate pairs expanded at once.  Expanding every pair of a call at once
#: would grow the peak memory with the pair count.
BLOCK = 4096

#: The (y, z) offsets of the nine mesh rows a voxel's Moore neighborhood spans.
_ROW_OFFSETS = np.array([(y, z) for z in (-1, 0, 1) for y in (-1, 0, 1)])


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
    r_max = float(container.radii.max(initial=0.0))
    reach = params.adhesion_multiplier * 2.0 * r_max
    if min(mesh.dx, mesh.dy, mesh.dz) < reach:
        raise DomainError(
            f"voxel edge {min(mesh.dx, mesh.dy, mesh.dz)} shorter than the "
            f"interaction reach {reach}; neighbor binning would miss pairs"
        )


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of range(s, s + c) over the (start, count) pairs."""
    ends = np.add.accumulate(counts)
    shift = (starts - ends + counts).repeat(counts)
    shift += np.arange(len(shift))
    return shift


def _candidate_order(bins: np.ndarray, ids: np.ndarray, next_id: int) -> np.ndarray:
    """Order of the candidate entries: by voxel bin, then by ascending id."""
    return (bins * next_id + ids).argsort(kind="stable")


def _candidate_entries(container: CellContainer) -> tuple[np.ndarray, np.ndarray]:
    """(bin, row) for every cell row in the neighborhood of every non-empty bin.

    A voxel's Moore neighborhood is up to nine runs of at most three
    consecutive flat indices, one run per mesh row (y + dy, z + dz).  The
    bins of a run are consecutive too, so two binary searches find them, and
    their cells are one range of `bin_rows`.  Entries come grouped by bin, in
    no particular order within a bin.
    """
    mesh = container.mesh
    voxels = container.nonempty_voxels
    x, yz = voxels % mesh.nx, voxels // mesh.nx
    y = (yz % mesh.ny)[:, None] + _ROW_OFFSETS[:, 0]
    z = (yz // mesh.ny)[:, None] + _ROW_OFFSETS[:, 1]
    on_mesh = (y >= 0) & (y < mesh.ny) & (z >= 0) & (z < mesh.nz)
    row = (y + mesh.ny * z)[on_mesh] * mesh.nx
    k = np.arange(len(voxels)).repeat(on_mesh.sum(axis=1))
    lo = container.bin_ptr[voxels.searchsorted(row + np.maximum(x - 1, 0)[k])]
    counts = container.bin_ptr[voxels.searchsorted(row + np.minimum(x + 2, mesh.nx)[k])] - lo
    return k.repeat(counts), container.bin_rows[_ranges(lo, counts)]


def _candidate_table(container: CellContainer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cand_rows, row_lo, row_count) of the container's current bins.

    `cand_rows[cand_ptr[k]:cand_ptr[k + 1]]` are the candidate rows of
    non-empty voxel k; each storage row takes the range of its voxel.
    """
    bins, rows = _candidate_entries(container)
    cand_rows = rows[_candidate_order(bins, container.ids[rows], container.next_id)]
    cand_ptr = np.concatenate(([0], np.add.accumulate(
        np.bincount(bins, minlength=len(container.nonempty_voxels)))))
    row_lo = cand_ptr[container.bin_of_row]
    return cand_rows, row_lo, cand_ptr[container.bin_of_row + 1] - row_lo


class PairKernel:
    """The pair kernel over the candidate table of one binned container state.

    `cand_rows[row_lo[i]:row_lo[i] + row_count[i]]` are the storage rows of
    every cell in the neighborhood of row i's voxel, row i itself included,
    in ascending id order.  The table holds only index arrays derived from
    the bins, so it is cached on the container (`CellContainer.candidates`)
    and built only after `rebin_cells` rebuilt the bins; positions and radii
    are read from the container on each construction.
    """

    def __init__(self, container: CellContainer, params: InteractionParams):
        self.pos = container.positions
        self.radii = container.radii
        self.params = params
        if container.candidates is None:
            container.candidates = _candidate_table(container)
        self.cand_rows, self.row_lo, self.row_count = container.candidates
        self.widest = int(self.row_count.max(initial=0))

    def blocks(self, rows: np.ndarray):
        """Split target rows, in order, into blocks of at most BLOCK
        candidate pairs; a block holds at least one target.

        A block's target count times its largest candidate count bounds the
        rank-padded buffer of `ops.sum_segments`, so that product is kept
        within 4 * BLOCK too: one crowded target among many sparse ones
        would otherwise pad every sparse target to its pair count.
        """
        counts = self.row_count[rows]
        ends = np.add.accumulate(counts)
        lo, done = 0, 0
        while lo < len(rows):
            hi = max(lo + 1, int(ends.searchsorted(done + BLOCK, side="right")))
            if (hi - lo) * self.widest > 4 * BLOCK:
                padded = np.maximum.accumulate(counts[lo:hi]) * np.arange(1, hi - lo + 1)
                hi = lo + max(1, int(padded.searchsorted(4 * BLOCK, side="right")))
            yield rows[lo:hi]
            lo, done = hi, ends[hi - 1]

    def pairs(self, targets: np.ndarray, ops):
        """In-range pairs of the target rows: (t, j, dvec, d, contact, reach).

        t indexes `targets`, j is the neighbor's storage row and dvec points
        from the target to the neighbor.  Pairs are grouped by target, in
        ascending neighbor id.  The displacement of every candidate pair
        (self excluded) is one `ops.sub`.
        """
        counts = self.row_count[targets]
        t = np.arange(len(targets)).repeat(counts)
        j = self.cand_rows[_ranges(self.row_lo[targets], counts)]
        i = targets[t]
        other = j != i
        t, i, j = t[other], i[other], j[other]
        # `np.take` gathers rows several times faster than fancy indexing
        pj = np.take(self.pos, j, axis=0)
        dvec = ops.sub(pj, np.take(self.pos, i, axis=0), pj)
        d = norm(dvec)
        contact = self.radii[i]
        contact += self.radii[j]
        reach = self.params.adhesion_multiplier * contact
        near = (~((d < EPS_SKIP) | (d >= reach))).nonzero()[0]
        return (t[near], j[near], np.take(dvec, near, axis=0), d[near], contact[near],
                reach[near])

    def velocities(self, targets: np.ndarray, ops, out: np.ndarray) -> None:
        """Write the velocities of the target rows into `out`.

        A pair's rank is its place among its target's pairs, so each
        target's contributions are summed from 0.0 in ascending neighbor id
        by one `ops.sum_segments`.
        """
        t, _, dvec, d, contact, reach = self.pairs(targets, ops)
        p = self.params
        rep = -p.repulsion * np.float_power(1.0 - d / contact, 2.0)
        rep[d >= contact] = 0.0  # repulsion acts inside the contact distance only
        adh = p.adhesion * np.float_power(1.0 - d / reach, 2.0)
        contrib = ops.scale((rep + adh) / d, dvec, dvec)
        counts = np.bincount(t, minlength=len(targets))
        rank = np.arange(len(t)) - (np.add.accumulate(counts) - counts)[t]
        out[targets] = ops.sum_segments(contrib, t, rank, len(targets))


def update_velocities(container: CellContainer, mesh: CartesianMesh,
                      params: InteractionParams, schedule: MechanicsSchedule,
                      pool: WorkerPool,
                      alloc_mode: AllocationMode = AllocationMode.IN_PLACE) -> RegionRecord:
    """Recompute every cell's velocity from its in-range neighbors.

    The kernel takes the container's cached candidate table, or builds it
    once, before the dispatch, if `rebin_cells` rebuilt the bins since the
    last call; each chunk then computes the velocities of its own cells.
    """
    if container.positions_dirty:
        raise ContainerStateError("velocity update requires a rebinned container")
    kernel = PairKernel(container, params)
    velocities = container.velocities
    bin_ptr, bin_rows = container.bin_ptr, container.bin_rows

    def solve(rows, ctx):
        ops = vector_ops(alloc_mode, ctx.stats)
        # an overflow to inf or NaN is left to integrate_positions, which raises
        with np.errstate(over="ignore", invalid="ignore"):
            for block in kernel.blocks(rows):
                kernel.velocities(block, ops, velocities)

    def cell_body(lo, hi, ctx):
        solve(np.arange(lo, hi), ctx)

    def bin_body(lo, hi, ctx):
        solve(bin_rows[bin_ptr[lo]:bin_ptr[hi]], ctx)

    kind = schedule.kind
    if kind is ScheduleKind.CELL_STATIC:
        return pool.run_static(len(container), cell_body)
    if kind is ScheduleKind.CELL_DYNAMIC:
        return pool.run_dynamic(len(container), schedule.grain, cell_body)
    if kind is ScheduleKind.NONEMPTY_VOXEL:
        return pool.run_dynamic(len(container.nonempty_voxels), schedule.grain, bin_body)
    if kind is ScheduleKind.VOXEL:
        nonempty = container.nonempty_voxels.tolist()

        def voxel_body(lo, hi, ctx):
            # the bins of voxels lo..hi-1; a chunk of empty voxels stops here
            lo, hi = bisect_left(nonempty, lo), bisect_left(nonempty, hi)
            if lo < hi:
                bin_body(lo, hi, ctx)

        return pool.run_dynamic(mesh.voxel_count, schedule.grain, voxel_body)
    raise DomainError(f"unknown schedule kind {kind!r}")


def integrate_positions(container: CellContainer, mesh: CartesianMesh,
                        dt: float, pool: WorkerPool) -> RegionRecord:
    """Forward Euler x += dt*v, clamped strictly inside the mesh; marks dirty.

    Only the rows that leave the mesh are clamped.  A non-finite velocity
    gives a non-finite position, which raises `NumericError` naming the cell
    instead of being clamped back into the box.
    """
    if dt <= 0.0:
        raise DomainError("integration needs dt > 0")
    positions, velocities, ids = container.positions, container.velocities, container.ids

    def body(lo, hi, ctx):
        p = positions[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            p += dt * velocities[lo:hi]
        out = (~mesh.contains(p)).nonzero()[0]
        if len(out):
            moved = p[out]
            # NaN and inf fail `contains`; clamping would hide an inf
            broken = ~np.isfinite(moved).all(axis=1)
            if broken.any():
                k = np.argmax(broken)
                raise NumericError(f"cell {ids[lo + out[k]]} moved to non-finite "
                                   f"{moved[k].tolist()}")
            mesh.clamp_inside(moved)
            p[out] = moved
    record = pool.run_static(len(container), body)
    container.positions_dirty = True
    return record
