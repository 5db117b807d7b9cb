"""Neighbor-interaction velocity updates under four scheduling strategies.

The force law is the overlapping-spheres potential: repulsion inside the
contact distance R = Ri+Rj, adhesion out to m_a*R, both quadratic in the
normalized overlap, directed along the center line.  Every cell's velocity is
accumulated from 0.0 over its in-range neighbors in ascending id order, which
makes the result bit-identical across schedules, worker counts, storage
orders, and allocation modes: the strategies may only move work around, never
change it.

One vectorized pair kernel (`PairKernel`) serves the velocity update and the
locality metric.  It walks pair lists of storage rows (`PairLists`), built
from the container's CSR voxel bins in that summation order and cached on
the container until `rebin_cells` rebuilds the bins, which it does only when
a row was added or reordered or a cell changed voxel.  Binning is exact
provided the voxel edge is at least the largest interaction range (checked
by `check_binning_exact` at run start).

A chunk sets its cells' velocities to 0.0, evaluates the force law on the
in-range pairs of its list, `BLOCK` pairs at a time, and adds each term into
its cell's row with `ops.add_at`, whose `np.add.at` adds in array order: so
each sum is the scalar 0.0 + t1 + t2 + ..., wherever the slices fall.  The
chunk that holds every cell (`cell_static` at one worker) walks the forward
list, every pair of Moore-adjacent cells once as (lower-id row, higher-id
row), sorted by that pair of ids, and evaluates each pair once: the term of
the higher cell in the lower's velocity is exactly the negation of the
lower's in the higher's, since the displacement negates and the scalar
factor is shared.  Every other chunk walks its cells' groups of the directed
list, every pair once in each direction, grouped by the owner's bin
position, each group in ascending partner id.  Squares are
`np.float_power(x, 2.0)`, which calls libm pow as Python's `**` does; the
norm is d0*d0 + d1*d1 + d2*d2.

The vector-valued operators come from `smallvec.vector_ops`: under `temp`
each makes a fresh array, under `inplace` each writes into an `out=` buffer.
The `temp` events follow the scalar program: one displacement per directed
candidate pair and one product per directed in-range pair, whatever the
kernel shares between a pair's two directions (`ops.shared`), and the sums'
events as `ops.add_at` counts them.

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
from .errors import CapacityError, ContainerStateError, DomainError, NumericError
from .parallel import RegionRecord, WorkerPool
from .smallvec import AllocationMode, norm, vector_ops

#: Pairs closer than this (um) are skipped; the direction is numerically void.
EPS_SKIP = 1e-8

#: Pairs evaluated at once: what bounds the arrays of one call beyond its
#: pair lists, whatever the cell count.
BLOCK = 4096

#: Most pairs a half-shell may hold: the pair lists are int64 arrays of
#: n(n-1)/2 pairs for n cells in one voxel, so a clump this dense fails
#: before they are expanded.
MAX_PAIRS = 1 << 23

#: The (y, z) offsets of the four mesh rows whose three-voxel runs lie in a
#: voxel's forward half-shell; the backward half-shell takes their negations.
_HALF_ROWS = np.array([(1, 0), (-1, 1), (0, 1), (1, 1)])


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


def _shell_ranges(container: CellContainer, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(starts, counts), each (cells, 5): the ranges of bin positions that
    make up one half of every cell's Moore neighborhood, the forward half
    for sign 1 and the backward half for -1.

    Cells are named by bin position, their index in `bin_rows`.  A cell's
    forward half is five contiguous ranges: the later cells of its own bin
    together with voxel x+1 (one range, since a bin lists its cells in
    ascending id and the bins of x and x+1 are adjacent), and the
    three-voxel runs of the mesh rows (y+1, z), (y-1, z+1), (y, z+1) and
    (y+1, z+1).  The backward half mirrors it.  So every unordered pair of
    distinct cells in Moore-adjacent voxels is in the forward half of
    exactly one of them and in the backward half of the other, and a
    forward partner lies at a later bin position than its cell.  One binary
    search over the non-empty voxels finds every range.
    """
    mesh = container.mesh
    voxels, bin_ptr = container.nonempty_voxels, container.bin_ptr
    x, yz = voxels % mesh.nx, voxels // mesh.nx
    y = (yz % mesh.ny)[:, None] + sign * _HALF_ROWS[:, 0]
    z = (yz // mesh.ny)[:, None] + sign * _HALF_ROWS[:, 1]
    row = (y + mesh.ny * z) * mesh.nx
    x_lo, x_hi = np.maximum(x - 1, 0), np.minimum(x + 2, mesh.nx)
    # column 0: the far end of the own-bin range, at voxel x+1 or x-1; columns
    # 1-4 and 5-8: the first and last bin position of each run, plus one
    bounds = bin_ptr[voxels.searchsorted(np.column_stack(
        (voxels - x + (x_hi if sign > 0 else x_lo), row + x_lo[:, None], row + x_hi[:, None])))]
    on_mesh = (y >= 0) & (y < mesh.ny) & (z >= 0) & (z < mesh.nz)
    # per voxel, the five starts and the five counts; the own-bin range is
    # filled in per cell
    table = np.zeros((len(voxels), 10), dtype=bounds.dtype)
    table[:, :5] = bounds[:, :5]
    np.multiply(bounds[:, 5:] - bounds[:, 1:5], on_mesh, out=table[:, 6:])
    ranges = table.take(container.bin_of_row[container.bin_rows], axis=0)
    starts, counts = ranges[:, :5], ranges[:, 5:]
    p = np.arange(len(ranges))
    if sign > 0:
        counts[:, 0] = starts[:, 0] - p - 1
        starts[:, 0] = p + 1
    else:
        counts[:, 0] = p - starts[:, 0]
    return starts, counts


def _half_shell_partners(container: CellContainer,
                         signs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(per_cell, ids, partners): every cell's half-shells of the given
    signs, expanded into the ids of its partners; the partners of the cell
    at bin position p come after those of the cells before it, `per_cell[p]`
    of them, and `ids` lists the ids by bin position.

    More than `MAX_PAIRS` pairs per half-shell raise `CapacityError` before
    any pair is expanded.
    """
    starts, counts = (np.hstack(half) for half in zip(*(_shell_ranges(container, sign)
                                                         for sign in signs)))
    per_cell = counts.sum(axis=1)
    pairs = int(per_cell.sum())
    if pairs > len(signs) * MAX_PAIRS:
        raise CapacityError(f"{pairs // len(signs)} candidate pairs per half-shell exceed "
                            f"the limit of {MAX_PAIRS}: too many cells share a neighborhood")
    ids = container.ids.take(container.bin_rows)
    return per_cell, ids, ids.take(_ranges(starts.ravel(), counts.ravel()))


def _sorted_keys(major: np.ndarray, minor: np.ndarray, bits: int) -> np.ndarray:
    """The keys major << bits | minor, in `major`'s storage, sorted: so by
    major, then by minor.  Both are ids or bin positions, below `next_id`,
    and bits is `next_id.bit_length()`: two fit one int64 below 2**31 ids."""
    major <<= bits
    major |= minor
    major.sort()
    return major


def _row_of_id(container: CellContainer) -> np.ndarray:
    rows = np.empty(container.next_id, dtype=np.intp)
    rows[container.ids] = np.arange(len(container))
    return rows


def _forward_list(container: CellContainer) -> tuple[np.ndarray, np.ndarray]:
    """(lower, higher): the storage rows of the lower-id and the higher-id
    cell of every pair in a forward half-shell, sorted by (lower id, higher
    id)."""
    per_cell, ids, partner = _half_shell_partners(container, (1,))
    cell = ids.repeat(per_cell)
    lower = np.minimum(cell, partner)
    np.maximum(cell, partner, out=partner)
    del cell
    bits = container.next_id.bit_length()
    key = _sorted_keys(lower, partner, bits)
    del partner
    rows = _row_of_id(container)
    higher = rows.take(key & ((1 << bits) - 1))
    key >>= bits
    return rows.take(key), higher


def _directed_list(container: CellContainer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(partner, ptr, bin_pos): the storage rows of the neighbors of the
    cell at bin position p are `partner[ptr[p]:ptr[p + 1]]`, in ascending
    id, from both its half-shells; `bin_pos[row]` is the bin position of a
    storage row."""
    per_cell, _, partner = _half_shell_partners(container, (1, -1))
    bits = container.next_id.bit_length()
    key = _sorted_keys(np.arange(len(per_cell)).repeat(per_cell), partner, bits)
    del partner
    key &= (1 << bits) - 1
    ptr = np.concatenate(([0], np.add.accumulate(per_cell)))
    bin_pos = np.empty(len(container), dtype=np.intp)
    bin_pos[container.bin_rows] = np.arange(len(container))
    return _row_of_id(container).take(key), ptr, bin_pos


class PairLists:
    """The pair lists of one binned container state, each built on first
    use: `forward` (`_forward_list`) for the chunk that holds every cell,
    `directed` (`_directed_list`) for any other.  Every field is an index
    array derived from the bins alone.
    """

    def __init__(self):
        self.forward = self.directed = None

    def build_forward(self, container: CellContainer) -> tuple[np.ndarray, np.ndarray]:
        if self.forward is None:
            self.forward = _forward_list(container)
        return self.forward

    def build_directed(self, container: CellContainer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.directed is None:
            self.directed = _directed_list(container)
        return self.directed


class PairKernel:
    """The pair kernel over the pair lists of one binned container state.

    The pair lists hold only index arrays derived from the bins, so they are
    cached on the container (`CellContainer.candidates`) and built only
    after `rebin_cells` rebuilt the bins.  They name cells by storage row,
    so the kernel reads the position and radius columns in place.  `split`
    builds the directed list before a dispatch whose chunks may not hold
    every cell, so no worker builds it.
    """

    def __init__(self, container: CellContainer, params: InteractionParams,
                 split: bool = False):
        self.container = container
        self.pos, self.radii = container.positions, container.radii
        self.params = params
        if container.candidates is None:
            container.candidates = PairLists()
        self.lists = container.candidates
        if split:
            self.lists.build_directed(container)

    def in_range(self, i: np.ndarray, j: np.ndarray, ops):
        """The in-range pairs among the pairs of cells (i[k], j[k]), named by
        storage row: (i, j, dvec, d, contact, reach), where dvec points from
        cell i to cell j.

        The displacement of every pair is one `ops.sub`.
        """
        # `take` gathers rows several times faster than fancy indexing
        pj = self.pos.take(j, axis=0)
        dvec = ops.sub(pj, self.pos.take(i, axis=0), pj)
        d = norm(dvec)
        contact = self.radii.take(i)
        contact += self.radii.take(j)
        reach = self.params.adhesion_multiplier * contact
        near = (~((d < EPS_SKIP) | (d >= reach))).nonzero()[0]
        return (i.take(near), j.take(near), dvec.take(near, axis=0), d.take(near),
                contact.take(near), reach.take(near))

    def contributions(self, i: np.ndarray, j: np.ndarray, ops):
        """(i, j, c) of the in-range pairs among the pairs (i[k], j[k]): c is
        the term of cell j in the velocity of cell i, and -c is exactly that
        of cell i in cell j's."""
        i, j, dvec, d, contact, reach = self.in_range(i, j, ops)
        p = self.params
        rep = -p.repulsion * np.float_power(1.0 - d / contact, 2.0)
        rep[d >= contact] = 0.0  # repulsion acts inside the contact distance only
        adh = p.adhesion * np.float_power(1.0 - d / reach, 2.0)
        return i, j, ops.scale((rep + adh) / d, dvec, dvec)

    def velocities(self, lo: int, hi: int, in_bins: bool, ops, out: np.ndarray) -> None:
        """Write the velocities of one chunk's cells into `out`: the cells at
        bin positions [lo, hi), or at storage rows [lo, hi).

        The chunk that holds every cell walks the forward list, and any
        other chunk the groups of its cells in the directed list, so it
        evaluates a pair with both cells in the chunk from each side.
        """
        container = self.container
        if hi - lo == len(container):
            lower, higher = self.lists.build_forward(container)
            out[:] = 0.0
            for s in range(0, len(lower), BLOCK):
                pairs = lower[s:s + BLOCK]
                i, j, c = self.contributions(pairs, higher[s:s + BLOCK], ops)
                # the scalar program computes the other direction's
                # displacement and product itself
                ops.shared(len(pairs) + len(i))
                # a cell's pairs as the higher-id cell come before those as
                # the lower-id one, so its terms as the higher go in first
                ops.add_at(out, j, c, subtract=True)
                ops.add_at(out, i, c)
            return
        partner, ptr, bin_pos = self.lists.build_directed(container)
        if in_bins:
            rows = container.bin_rows[lo:hi]
            per_cell = np.diff(ptr[lo:hi + 1])
            partners = partner[ptr[lo]:ptr[hi]]
        else:
            rows = np.arange(lo, hi)
            starts = ptr.take(bin_pos[lo:hi])
            per_cell = ptr.take(bin_pos[lo:hi] + 1) - starts
            partners = partner.take(_ranges(starts, per_cell))
        out[rows] = 0.0
        owners = rows.repeat(per_cell)
        for s in range(0, len(owners), BLOCK):
            i, _, c = self.contributions(owners[s:s + BLOCK], partners[s:s + BLOCK], ops)
            ops.add_at(out, i, c)


def update_velocities(container: CellContainer, mesh: CartesianMesh,
                      params: InteractionParams, schedule: MechanicsSchedule,
                      pool: WorkerPool,
                      alloc_mode: AllocationMode = AllocationMode.IN_PLACE) -> RegionRecord:
    """Recompute every cell's velocity from its in-range neighbors.

    The kernel takes the container's cached pair lists, or builds the one
    its chunks walk, if `rebin_cells` rebuilt the bins since the last call:
    a dispatch that can split the rows builds the directed list before it
    starts, and the chunk that holds every cell the forward list.
    """
    if container.positions_dirty:
        raise ContainerStateError("velocity update requires a rebinned container")
    kind = schedule.kind
    kernel = PairKernel(container, params,
                        split=kind is not ScheduleKind.CELL_STATIC or pool.workers > 1)
    velocities = container.velocities
    bin_ptr = container.bin_ptr

    def solve(lo, hi, in_bins, ctx):
        ops = vector_ops(alloc_mode, ctx.stats)
        # an overflow to inf or NaN is left to integrate_positions, which raises
        with np.errstate(over="ignore", invalid="ignore"):
            kernel.velocities(lo, hi, in_bins, ops, velocities)

    def cell_body(lo, hi, ctx):
        solve(lo, hi, False, ctx)

    def bin_body(lo, hi, ctx):
        solve(int(bin_ptr[lo]), int(bin_ptr[hi]), True, ctx)

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
