"""Neighbor-interaction velocity updates under four scheduling strategies.

The force law is the overlapping-spheres potential: repulsion inside the
contact distance R = Ri+Rj, adhesion out to m_a*R, both quadratic in the
normalized overlap, directed along the center line.  Every cell's velocity is
accumulated from 0.0 over its in-range neighbors in ascending id order, which
makes the result bit-identical across schedules, worker counts, storage
orders, and allocation modes: the strategies may only move work around, never
change it.

One vectorized pair kernel (`PairKernel`) serves the velocity update and the
locality metric.  It walks pair lists of storage rows derived from one
sorted array of id-pair keys (`PairLists`), which the container keeps for
its whole life.  The first use after `rebin_cells` rebuilt the bins (only
when a row was added, dropped or reordered or a cell changed voxel)
compares the voxel of each id with the one the keys were walked in, and
patches the keys for the cells that changed voxel, were born or are gone
(`_patch`): it drops their keys and walks their Moore neighborhoods in the
container's CSR voxel bins (`_walk`).  The first use of all walks every
cell.  Binning is exact provided the voxel edge is at least the largest
interaction range (checked by `check_binning_exact` at run start).

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
`np.float_power(x, 2.0)`, which calls libm pow as Python's `**` does (the
repulsion's base is raised to 0.0 outside the contact distance, where pow
returns at once); the norm is d0*d0 + d1*d1 + d2*d2.

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
from .errors import CapacityError, DomainError, NumericError
from .parallel import RegionRecord, WorkerPool
from .smallvec import AllocationMode, norm, vector_ops

#: Pairs closer than this (um) are skipped; the direction is numerically void.
EPS_SKIP = 1e-8

#: Pairs evaluated at once: what bounds the arrays of one call beyond its
#: pair lists, whatever the cell count.
BLOCK = 4096

#: Most pairs the pair list may hold: it is an int64 array of n(n-1)/2 keys
#: for n cells in one voxel, so a clump this dense fails before its keys are
#: expanded.
MAX_PAIRS = 1 << 23

#: A pair key is `lower id << _SHIFT | higher id`, one non-negative int64
#: while every id is below 2**31.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

#: The (y, z) offsets of the nine mesh rows whose three-voxel runs make up a
#: voxel's Moore neighborhood.
_MOORE_ROWS = np.array([(y, z) for z in (-1, 0, 1) for y in (-1, 0, 1)])


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


def _check_pairs(pairs: int) -> None:
    if pairs > MAX_PAIRS:
        raise CapacityError(f"{pairs} candidate pairs exceed the limit of {MAX_PAIRS}: "
                            "too many cells share a neighborhood")


def _sort_keys(keys: np.ndarray) -> np.ndarray:
    """Sort keys `major << _SHIFT | minor` in place, so by major, then by
    minor; the one sort that orders every pair list."""
    keys.sort()
    return keys


def _row_of_id(container: CellContainer) -> np.ndarray:
    """The storage row of each id; 0 for the ids of no cell."""
    rows = np.zeros(container.next_id, dtype=np.intp)
    rows[container.ids] = np.arange(len(container))
    return rows


def _walk(container: CellContainer, changed: np.ndarray, kept: int) -> np.ndarray:
    """The sorted keys of the Moore pairs (c, p) of the changed cells c
    (`changed` is a mask over ids), in the current bins.

    The partners p of c are the cells of the three-voxel runs of the nine
    mesh rows around c's voxel, c itself left out; one binary search over
    the non-empty voxels finds each run's bin positions.  A pair is kept if
    p did not change or p comes after c in bin order, so each pair once.
    The cells are walked in slices of about `BLOCK` partners, so the
    temporaries beyond the keys are O(`BLOCK`).

    With `kept` other pairs, more than `MAX_PAIRS` pairs raise
    `CapacityError` before any partner is expanded: the walk keeps at least
    half of the partners it expands, each changed cell's own entry aside.
    """
    mesh = container.mesh
    by_pos = container.ids.take(container.bin_rows)
    pos = changed.take(by_pos).nonzero()[0]
    # the distinct voxels of the cells, ascending, as bin order is
    cell_voxels = container.voxels.take(container.bin_rows.take(pos))
    first = np.empty(len(cell_voxels), dtype=bool)
    first[:1] = True
    np.not_equal(cell_voxels[1:], cell_voxels[:-1], out=first[1:])
    voxels = cell_voxels.compress(first)
    of_cell = voxels.searchsorted(cell_voxels)
    x, yz = voxels % mesh.nx, voxels // mesh.nx
    y = yz % mesh.ny + _MOORE_ROWS[:, :1]
    z = yz // mesh.ny + _MOORE_ROWS[:, 1:]
    row = (y + mesh.ny * z) * mesh.nx
    # (run starts, run ends) by mesh row, then by voxel: each row of queries
    # ascends, so the binary searches do not restart
    bounds = container.bin_ptr[container.nonempty_voxels.searchsorted(
        np.concatenate((row + np.maximum(x - 1, 0), row + np.minimum(x + 2, mesh.nx))))]
    m = len(_MOORE_ROWS)
    ends = np.where((y >= 0) & (y < mesh.ny) & (z >= 0) & (z < mesh.nz), bounds[m:], bounds[:m])
    starts = bounds[:m].T.take(of_cell, axis=0)
    counts = ends.T.take(of_cell, axis=0)
    counts -= starts
    per_cell = counts.sum(axis=1)
    expanded = int(per_cell.sum())
    _check_pairs(kept + (expanded - len(pos)) // 2)
    owners = by_pos.take(pos)
    keys = np.empty(expanded, dtype=np.int64)
    offsets = np.add.accumulate(per_cell) - per_cell
    edges = [0, *offsets.searchsorted(np.arange(BLOCK, expanded, BLOCK)).tolist(), len(pos)]
    n = 0
    for a, b in zip(edges, edges[1:]):
        if a == b:
            continue
        at = _ranges(starts[a:b].ravel(), counts[a:b].ravel())
        partner = by_pos.take(at)
        owner = owners[a:b].repeat(per_cell[a:b])
        keep = at > pos[a:b].repeat(per_cell[a:b])
        keep |= ~changed.take(partner)
        partner, owner = partner.compress(keep), owner.compress(keep)
        lower = keys[n:n + len(partner)]
        np.minimum(owner, partner, out=lower)
        np.maximum(owner, partner, out=partner)
        lower <<= _SHIFT
        lower |= partner
        n += len(partner)
    return _sort_keys(keys[:n])


def _patch(keys: np.ndarray, container: CellContainer, changed: np.ndarray) -> np.ndarray:
    """The sorted keys with every key that touches a changed id (`changed`
    is a mask over ids) dropped and the Moore pairs of the changed cells in
    the current bins merged in."""
    side = keys >> _SHIFT  # the lower id of each key, then the higher
    touched = changed.take(side)
    np.bitwise_and(keys, _MASK, out=side)
    touched |= changed.take(side)
    del side
    keys = keys.compress(~touched)
    del touched
    new = _walk(container, changed, len(keys))
    _check_pairs(len(keys) + len(new))
    at = keys.searchsorted(new)
    at += np.arange(len(new))
    merged = np.empty(len(keys) + len(new), dtype=np.int64)
    merged[at] = new
    old = np.ones(len(merged), dtype=bool)
    old[at] = False
    merged[old] = keys
    return merged


def _directed(keys: np.ndarray, container: CellContainer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(partner, ptr, bin_pos): the storage rows of the neighbors of the
    cell at bin position p are `partner[ptr[p]:ptr[p + 1]]`, in ascending
    id; `bin_pos[row]` is the bin position of a storage row.  Each key is
    written in both directions, as (owner bin position, partner id), and
    sorted once."""
    n, pairs = len(container), len(keys)
    bin_pos = np.empty(n, dtype=np.intp)
    bin_pos[container.bin_rows] = np.arange(n)
    rows = _row_of_id(container)
    pos_of_id = bin_pos.take(rows)
    minor = np.empty(2 * pairs, dtype=np.int64)
    np.bitwise_and(keys, _MASK, out=minor[:pairs])
    np.right_shift(keys, _SHIFT, out=minor[pairs:])
    major = np.empty_like(minor)
    pos_of_id.take(minor[pairs:], out=major[:pairs])
    pos_of_id.take(minor[:pairs], out=major[pairs:])
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.add.accumulate(np.bincount(major, minlength=n), out=ptr[1:])
    major <<= _SHIFT
    major |= minor
    del minor
    major = _sort_keys(major)
    major &= _MASK
    return rows.take(major), ptr, bin_pos


class PairLists:
    """The pair lists of one container, kept for its whole life.

    `keys` lists every pair of distinct cells in Moore-adjacent voxels once,
    as the key `lower id << _SHIFT | higher id`, sorted.  They were walked
    in the bins `bins`, where the cell of id k was in voxel `voxel_of_id[k]`
    (-1 for none).  `rebin_cells` replaces `bin_rows` whenever it rebuilds
    the bins, so the first use after that compares the voxel of each id
    with `voxel_of_id` and patches the keys for the cells that changed
    voxel, were born or are gone (`_patch`).  The first use of all patches
    an empty key set with every cell born.

    The lists of storage rows are derived from the keys on first use after
    each rebuild of the bins: `forward` (lower-id row, higher-id row) in key
    order for the chunk that holds every cell, `directed` (`_directed`) for
    any other.
    """

    def __init__(self):
        self.keys = np.zeros(0, dtype=np.int64)
        self.voxel_of_id = np.zeros(0, dtype=np.int64)
        self.bins = None
        self.forward = self.directed = None

    def update(self, container: CellContainer) -> np.ndarray:
        """The keys of the current bins, patched if the bins were rebuilt
        since the last use."""
        if container.next_id >= 1 << 31:
            raise CapacityError(f"{container.next_id} cell ids do not fit a pair key")
        if container.bin_rows is not self.bins:
            voxel_of_id = np.full(container.next_id, -1, dtype=np.int64)
            voxel_of_id[container.ids] = container.voxels
            # ids at or past the old length were born since the last use
            changed = np.ones(container.next_id, dtype=bool)
            n = len(self.voxel_of_id)
            np.not_equal(voxel_of_id[:n], self.voxel_of_id, out=changed[:n])
            self.keys = _patch(self.keys, container, changed)
            self.voxel_of_id, self.bins = voxel_of_id, container.bin_rows
            self.forward = self.directed = None
        return self.keys

    def build_forward(self, container: CellContainer) -> tuple[np.ndarray, np.ndarray]:
        keys = self.update(container)
        if self.forward is None:
            rows = _row_of_id(container)
            side = keys & _MASK  # the higher id of each key, then the lower
            higher = rows.take(side)
            np.right_shift(keys, _SHIFT, out=side)
            self.forward = rows.take(side), higher
        return self.forward

    def build_directed(self, container: CellContainer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        keys = self.update(container)
        if self.directed is None:
            self.directed = _directed(keys, container)
        return self.directed


class PairKernel:
    """The pair kernel over the pair lists of one binned container state.

    The pair lists live on the container (`CellContainer.candidates`) and
    patch themselves on first use after `rebin_cells` rebuilt the bins.
    Their lists of storage rows let the kernel read the position and radius
    columns in place.  `split` derives the directed list before a dispatch
    whose chunks may not hold every cell, so no worker patches or derives
    it.
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
        if not len(d):
            return i, j, dvec
        p = self.params
        # repulsion acts inside the contact distance only: outside, the base
        # 1 - d/contact <= 0 is raised to 0.0, whose power libm returns at
        # once, and the term is -0.0, which adds to adh (>= +0.0) as 0.0 does
        rep = 1.0 - d / contact
        np.maximum(rep, 0.0, out=rep)
        np.float_power(rep, 2.0, out=rep)
        rep *= -p.repulsion
        adh = 1.0 - d / reach
        np.float_power(adh, 2.0, out=adh)
        adh *= p.adhesion
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
            if len(i):
                ops.add_at(out, i, c)


def update_velocities(container: CellContainer, mesh: CartesianMesh,
                      params: InteractionParams, schedule: MechanicsSchedule,
                      pool: WorkerPool,
                      alloc_mode: AllocationMode = AllocationMode.IN_PLACE) -> RegionRecord:
    """Recompute every cell's velocity from its in-range neighbors.

    The kernel takes the container's pair lists, patched for the cells that
    changed voxel, were born or are gone if `rebin_cells` rebuilt the bins
    since the last call, and derives the list of storage rows its chunks walk: a
    dispatch that can split the rows derives the directed list before it
    starts, and the chunk that holds every cell the forward list.
    """
    container.require_binned("velocity update")
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

    Each block first checks all its coordinates at once, against the
    largest lower and the smallest upper bound of the mesh, which every
    coordinate of a cubic box's interior passes.  Only a block that fails
    that check compares each axis with its own bounds and looks for the
    rows that left the mesh; only those rows are clamped.  A non-finite
    velocity gives a non-finite position, which fails both checks and
    raises `NumericError` naming the cell instead of being clamped back
    into the box.
    """
    if dt <= 0.0:
        raise DomainError("integration needs dt > 0")
    positions, velocities, ids = container.positions, container.velocities, container.ids
    lower, upper = mesh.lower_bounds, mesh.upper_bounds
    floor, ceiling = lower.max(), upper.min()

    def body(lo, hi, ctx):
        p = positions[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            p += dt * velocities[lo:hi]
        if p.min() >= floor and p.max() < ceiling:
            return
        inside = p >= lower
        inside &= p < upper
        out = (~inside.all(axis=1)).nonzero()[0]
        if len(out):
            moved = p[out]
            # NaN and inf fail the bounds check; clamping would hide an inf
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
