"""Neighbor-interaction velocity updates under four scheduling strategies.

The force law is the overlapping-spheres potential: repulsion inside the
contact distance R = Ri+Rj, adhesion out to m_a*R, both quadratic in the
normalized overlap, directed along the center line.  Every cell's velocity is
accumulated from 0.0 over its in-range neighbors in ascending id order, which
makes the result bit-identical across schedules, worker counts, storage
orders, and allocation modes: the strategies may only move work around, never
change it.

One vectorized pair kernel (`PairKernel`) serves the velocity update and the
locality metric.  It reads half-shell pair lists derived from the
container's CSR voxel bins (`HalfShells`): the forward list holds every
unordered pair of distinct cells in Moore-adjacent voxels once, grouped by
its first cell in bin order, and the list of both halves holds every
directed candidate pair.  The lists are cached on the container and built
again only after `rebin_cells` rebuilt the bins, which it does only when a
row was added or reordered or a cell changed voxel.  Binning is exact, not
approximate, provided the voxel edge is at least the largest interaction
range (checked by `check_binning_exact` at run start).

A pair's contribution to its second cell is exactly the negation of its
contribution to the first: the displacement negates and the scalar factor is
shared.  So the chunk that holds every cell (`cell_static` at one worker)
walks the forward list only, evaluates each pair once, and writes +c to one
cell and -c to the other.  It is summed in blocks of targets, so that the
terms held at once stay bounded; a block after the first, and every chunk
that does not hold every cell, walks the list of both halves instead and
keeps the term of its own cell only.  Pairs are evaluated in slices of at
most `BLOCK`, the force law on the in-range ones only.  `_term_order` is
the one step that orders the directed terms, by ascending neighbor id, and
`ops.sum_segments` sums each target's terms from 0.0 in that order, one
`np.bincount` per component.  Squares are `np.float_power(x, 2.0)`, which
calls libm pow as Python's `**` does; the norm is d0*d0 + d1*d1 + d2*d2.

The vector-valued operators come from `smallvec.vector_ops`: under `temp`
each makes a fresh array, under `inplace` each writes into an `out=` buffer.
The `temp` events follow the scalar program, one displacement per directed
candidate pair, whatever the kernel shares between a pair's two directions
(`ops.shared`).

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

#: Pairs evaluated at once, and the in-range pairs after which a block of
#: targets is summed: what bounds the arrays of one call, whatever the cell
#: count.
BLOCK = 4096

#: Most pairs a half-shell pair list may hold: the lists are int64 arrays of
#: n(n-1)/2 pairs for n cells in one voxel, so a clump this dense fails
#: before they are expanded.
MAX_PAIRS = 1 << 23

#: The (y, z) offsets of the four mesh rows whose three-voxel runs lie in a
#: voxel's forward half-shell; the backward half-shell takes their negations.
_HALF_ROWS = np.array([(1, 0), (-1, 1), (0, 1), (1, 1)])

_INT64_MAX = int(np.iinfo(np.int64).max)


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


def _pair_list(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first, second, ptr): each cell paired with the bin positions of its
    ranges, one row of ranges per cell; the pairs of the cell at bin
    position p are `ptr[p]:ptr[p + 1]`, and `first` repeats p.

    A row of five ranges is one half-shell; more than `MAX_PAIRS` pairs
    per half raise `CapacityError` before any pair is expanded.
    """
    per_cell = counts.sum(axis=1)
    ptr = np.concatenate(([0], np.add.accumulate(per_cell)))
    halves = counts.shape[1] // 5
    if ptr[-1] > halves * MAX_PAIRS:
        raise CapacityError(f"{ptr[-1] // halves} candidate pairs per half-shell exceed "
                            f"the limit of {MAX_PAIRS}: too many cells share a neighborhood")
    second = _ranges(starts.ravel(), counts.ravel())
    return np.arange(len(per_cell)).repeat(per_cell), second, ptr


class HalfShells:
    """The pair lists of one binned container state, in bin positions.

    `first[k]`, `second[k]` is pair k of the forward list: each cell with
    its forward half-shell, grouped by `first` with `ptr`.  `both`, the
    same for both halves (every directed candidate pair), is built only for
    a chunk that does not hold every cell, or a block of targets that does
    not start at the first cell.  `bin_pos[row]` is the bin position of a
    storage row.  Every field is an index array derived from the bins alone.
    """

    def __init__(self, container: CellContainer):
        self.forward_ranges = _shell_ranges(container, 1)
        self.first, self.second, self.ptr = _pair_list(*self.forward_ranges)
        self.bin_pos = np.empty(len(container), dtype=np.intp)
        self.bin_pos[container.bin_rows] = np.arange(len(container))
        self.both = None

    def build_both(self, container: CellContainer) -> None:
        if self.both is None:
            backward = _shell_ranges(container, -1)
            self.both = _pair_list(*(np.hstack(half)
                                     for half in zip(self.forward_ranges, backward)))


def _term_order(neighbors: np.ndarray, next_id: int) -> np.ndarray:
    """Indices that sort directed terms by neighbor id, which puts each
    target's terms in ascending neighbor id; equal ids are terms of
    different targets, whose order changes no sum.

    The term index is packed into the low bits of the id, so one `np.sort`
    orders them.  A few keys, or keys too wide for 63 bits with the index,
    are argsorted instead.
    """
    bits = (len(neighbors) - 1).bit_length()
    if len(neighbors) < 256 or next_id << bits > _INT64_MAX:
        return neighbors.argsort()
    key = neighbors << bits
    key |= np.arange(len(key))
    key.sort()
    key &= (1 << bits) - 1
    return key


def _joined(parts):
    """Each field of a list of equal-length tuples of arrays, concatenated."""
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(field) for field in zip(*parts))


class _Chunk:
    """The targets of one chunk: the cells at bin positions [lo, hi)
    (`in_bins`), or at storage rows [lo, hi), in that order.

    Local target k is the cell at bin position `lo + k`, or at storage row
    `lo + k`.  `pairs` lists the targets' pairs from the pair list in use,
    one of `HalfShells`; `bounds[k]` counts the pairs of the local targets
    before k, from `bounds[0]`.
    """

    def __init__(self, kernel: PairKernel, lo: int, hi: int, in_bins: bool, pair_list):
        self.lo, self.bin_rows = lo, kernel.bin_rows
        # the bin positions of the targets, None for the run [lo, hi)
        self.at = None if in_bins else kernel.shells.bin_pos[lo:hi]
        self.rows = self.bin_rows[lo:hi] if in_bins else np.arange(lo, hi)
        self.use(pair_list)

    def use(self, pair_list) -> None:
        self.list = pair_list
        ptr = pair_list[2]
        if self.at is None:
            self.bounds = ptr[self.lo:self.lo + len(self.rows) + 1]
        else:
            self.bounds = np.concatenate(([0], np.add.accumulate(ptr[self.at + 1] - ptr[self.at])))

    def local(self, targets: np.ndarray, b0: int) -> np.ndarray:
        """The local index of each target, given by bin position, minus b0."""
        if self.at is None:
            return targets - (self.lo + b0)
        return self.bin_rows.take(targets) - (self.lo + b0)

    def pairs(self, r0: int, r1: int):
        """(i, j): the pairs of the local targets r0..r1-1, the target first."""
        first, second, ptr = self.list
        if self.at is None:
            lo, hi = ptr[self.lo + r0], ptr[self.lo + r1]
            return first[lo:hi], second[lo:hi]
        k = _ranges(ptr[self.at[r0:r1]], self.bounds[r0 + 1:r1 + 1] - self.bounds[r0:r1])
        return first.take(k), second.take(k)


class PairKernel:
    """The pair kernel over the half-shell pairs of one binned container state.

    The pair lists hold only index arrays derived from the bins, so they are
    cached on the container (`CellContainer.candidates`) and built only
    after `rebin_cells` rebuilt the bins.  Positions, radii and ids are
    gathered into bin order on each construction, so the kernel names cells
    by bin position.  `split` builds the list of both halves before a
    dispatch whose chunks may not hold every cell, so no worker builds it.
    """

    def __init__(self, container: CellContainer, params: InteractionParams,
                 split: bool = False):
        self.container = container
        self.bin_rows = container.bin_rows
        self.pos = container.positions.take(self.bin_rows, axis=0)
        self.radii = container.radii.take(self.bin_rows)
        self.ids = container.ids.take(self.bin_rows)
        self.params = params
        if container.candidates is None:
            container.candidates = HalfShells(container)
        self.shells = container.candidates
        if split:
            self.shells.build_both(container)

    def in_range(self, i: np.ndarray, j: np.ndarray, ops):
        """The in-range pairs among the pairs of cells (i[k], j[k]), named by
        bin position: (i, j, dvec, d, contact, reach), where dvec points from
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
        """(i, j, c) of the in-range pairs among the pairs (i[k], j[k]), in
        slices of at most BLOCK pairs: c is the term of cell j in the
        velocity of cell i, and -c is exactly that of cell i in cell j's."""
        if len(i) > BLOCK:
            return _joined([self.contributions(i[lo:lo + BLOCK], j[lo:lo + BLOCK], ops)
                            for lo in range(0, len(i), BLOCK)])
        i, j, dvec, d, contact, reach = self.in_range(i, j, ops)
        p = self.params
        rep = -p.repulsion * np.float_power(1.0 - d / contact, 2.0)
        rep[d >= contact] = 0.0  # repulsion acts inside the contact distance only
        adh = p.adhesion * np.float_power(1.0 - d / reach, 2.0)
        return i, j, ops.scale((rep + adh) / d, dvec, dvec)

    def velocities(self, lo: int, hi: int, in_bins: bool, ops, out: np.ndarray) -> None:
        """Write the velocities of one chunk's cells into `out`: the cells at
        bin positions [lo, hi), or at storage rows [lo, hi).

        The chunk's targets are walked in slices of whole cells with at most
        BLOCK pairs unless one cell has more, and summed in blocks: a block
        closes after the slice that brings its in-range pairs to BLOCK, so
        the terms it holds stay bounded whatever the cell count.  The chunk
        that holds every cell is walked in bin order, and a block of it
        evaluates each pair with both cells in the block once, giving +c to
        its first cell and -c to its second: the first block walks the
        forward half-shells, a later one both halves without the backward
        pairs inside it.  Any other chunk walks both halves of its cells
        and keeps the term of its own cell only, so it evaluates a pair
        with both cells in the chunk from each side.
        """
        count = hi - lo
        whole = count == len(self.pos)
        if whole:  # every cell: one chunk in bin order
            lo, hi, in_bins = 0, count, True
        shells = self.shells
        if not whole:
            shells.build_both(self.container)
        chunk = _Chunk(self, lo, hi, in_bins, (shells.first, shells.second, shells.ptr)
                       if whole else shells.both)
        b0 = r0 = near = shared = 0
        found = []
        while r0 < count:
            bounds, r1 = chunk.bounds, count
            if bounds[count] - bounds[r0] > BLOCK:
                r1 = max(r0 + 1, int(bounds.searchsorted(bounds[r0] + BLOCK, side="right")) - 1)
            i, j = chunk.pairs(r0, r1)
            if whole and b0:
                # a backward pair inside the block mirrors one of its forward pairs
                keep = ((j > i) | (j < b0)).nonzero()[0]
                shared += len(i) - len(keep)
                i, j = i.take(keep), j.take(keep)
            found.append(self.contributions(i, j, ops))
            near += len(found[-1][0])
            r0 = r1
            if r1 < count and near < BLOCK:
                continue
            if whole and not b0:  # every backward pair of the first block mirrors a forward pair
                if r1 == count:
                    shared = len(shells.first)
                else:
                    shells.build_both(self.container)
                    chunk.use(shells.both)
                    shared = int(shells.both[2][r1] - shells.ptr[r1])
            ops.shared(shared)
            self._sum_block(chunk, b0, r1, found, whole, ops, out)
            b0, near, shared = r1, 0, 0

    def _sum_block(self, chunk: _Chunk, b0: int, b1: int, found, mirrors: bool, ops,
                   out) -> None:
        """Sum the velocities of local targets b0..b1-1 into `out` from
        their in-range pairs (i, j, c), where i is a target of the block,
        found slice by slice; the list is emptied.  If `mirrors`, the chunk
        holds every cell in bin order and -c goes to every j in the block
        too.  The terms are put in ascending neighbor id, and
        `ops.sum_segments` adds each target's from 0.0 in that order."""
        count = b1 - b0
        i, j, c = _joined(found)
        found.clear()
        t = chunk.local(i, b0)
        if mirrors:
            # j is a bin position; one before the block wraps to a huge unsigned index
            inside = ((j - b0).view(np.uintp) < count).nonzero()[0]
            if len(inside):
                mirror = c.take(inside, axis=0)
                t = np.concatenate((t, j.take(inside) - b0))
                c = np.concatenate((c, ops.scale(-1.0, mirror, mirror)))
                j = np.concatenate((j, i.take(inside)))
        del i
        order = _term_order(self.ids.take(j), self.container.next_id)
        del j
        out[chunk.rows[b0:b1]] = ops.sum_segments(c.take(order, axis=0), t.take(order), count)


def update_velocities(container: CellContainer, mesh: CartesianMesh,
                      params: InteractionParams, schedule: MechanicsSchedule,
                      pool: WorkerPool,
                      alloc_mode: AllocationMode = AllocationMode.IN_PLACE) -> RegionRecord:
    """Recompute every cell's velocity from its in-range neighbors.

    The kernel takes the container's cached pair lists, or builds them once,
    before the dispatch, if `rebin_cells` rebuilt the bins since the last
    call; each chunk then computes the velocities of its own cells.  Only a
    dispatch that can split the rows needs the list of both halves.
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
