"""Diffusion-decay solver: operator-split implicit line solves over the mesh.

One step applies three one-dimensional implicit sweeps (x, then y, then z),
each solving a tridiagonal system per grid line with no-flux boundaries and a
third of the decay term.  Coefficients are constant per line length, so the
forward-elimination factors are computed once and the per-line solve reduces
to elementwise recurrences over a batch of lines.  All batch operations are
elementwise, which makes the field bit-identical however the lines are split
across workers or grouped by the traversal mode.

Each sweep solves its lines stored swept axis first, as an (n, lines)
array, so one recurrence step is one ufunc over a row of a block's lines.
The densities keep their native (z, y, x) layout throughout.  Lines are
numbered z*ny + y on the x sweep, z*nx + x on the y sweep and y*nx + x on
the z sweep, so a worker's share is a contiguous range of lines, which it
solves block by block in its own cache-sized tile (`SweepPlan`):

1. x: a block of rows of the (nz*ny, nx) density is transposed into the
   tile, solved and transposed back;
2. y: a block's runs of whole z slabs are copied into the tile with their
   y and z axes swapped, and a partial slab at either end of a collapsed
   range as one (ny, width) copy; solved and copied back;
3. z: the worker's columns of the (nz, ny*nx) density are solved in place,
   with no copy.

A tile holds at most `TILE` elements of lines, and never more than its
worker's largest share of one sweep, so no sweep allocates a copy of the
field.  The tiles, and every view of the tiles and densities that the
blocks use, are built once per mesh, worker count and traversal mode and
kept on `Microenvironment.sweep_plan`.  A block's recurrences write into
its rows in place and form each product in one scratch row, so a step on a
kept plan allocates nothing.

Both kernels write at unit stride: the gradients are stored planar, one
(voxels,) plane per component (`Microenvironment.gradient_planes`), and each
component is one flat difference written straight into its plane, with no
field-sized temporary.

The traversal mode sets only the chunk size, i.e. how many grid lines (or
gradient rows) one schedulable chunk holds; the per-chunk kernel is the same
under both modes.  OuterLoop hands out one outermost-axis slab per chunk (nz
chunks on the x and y sweeps, ny on the z sweep, nz for gradients), Collapsed
hands out one grid line per chunk (nz*ny, nz*nx, ny*nx respectively, nz*ny
for gradients).  Chunks never share output elements, so the schedule affects
only load balance, not results.
"""

from __future__ import annotations

import enum
from functools import lru_cache

import numpy as np

from .core import CartesianMesh, CellContainer, Microenvironment
from .errors import DomainError, NumericError
from .parallel import RegionRecord, WorkerPool, static_ranges


class TraversalMode(enum.Enum):
    OUTER_LOOP = "outer"
    COLLAPSED = "collapsed"

    def lines_per_chunk(self, middle: int) -> int:
        """Lines per chunk: a whole slab of `middle` lines, or a single line."""
        return middle if self is TraversalMode.OUTER_LOOP else 1


#: Elements of lines one worker's tile holds, unless one grid line is longer.
TILE = 2**17


@lru_cache(maxsize=64)
def _line_factors(n: int, r: float, lam3: float):
    """Precomputed reciprocal pivots and back-substitution factors for one axis.

    The line system has sub/super diagonal -r, interior diagonal 1+lam3+2r and
    boundary diagonal 1+lam3+r (no-flux), except the n=1 line, which has no
    neighbor terms at all.  Returns (inv, gamma, r): tuples of read-only 0-d
    float64 arrays and r as one, because a ufunc takes a 0-d array operand
    faster than a Python float.  The values are those of the float
    arithmetic below.
    """
    if n == 1:
        inv, gamma = [1.0 / (1.0 + lam3)], []
    else:
        diag = [1.0 + lam3 + 2.0 * r] * n
        diag[0] = diag[-1] = 1.0 + lam3 + r
        inv = [1.0 / diag[0]]
        gamma = [r * inv[0]]
        for i in range(1, n):
            inv.append(1.0 / (diag[i] - r * gamma[i - 1]))
            gamma.append(r * inv[i])

    def frozen(x):
        a = np.array(x, dtype=np.float64)
        a.flags.writeable = False
        return a
    return tuple(map(frozen, inv)), tuple(map(frozen, gamma)), frozen(r)


def _solve_lines(d: list, tmp: np.ndarray, inv, gamma, r) -> None:
    """In-place solve of lines stored swept axis first, one line per column.

    `d` lists the rows: d[i] holds entry i of every line.  Forward, d[i] =
    (d[i] + r*d[i-1]) * inv[i]; back, d[i] += gamma[i]*d[i+1].  Each product
    goes into the scratch row `tmp`, so a step allocates nothing.  The
    factors are `_line_factors`' 0-d arrays and every `out` is positional:
    a row of a block holds at most a few thousand lines, often a few dozen,
    so the fixed cost of a ufunc call is a large part of the solve.
    """
    add, mul = np.add, np.multiply
    mul(d[0], inv[0], d[0])
    for i in range(1, len(d)):
        mul(d[i - 1], r, tmp)
        add(d[i], tmp, d[i])
        mul(d[i], inv[i], d[i])
    for i in range(len(d) - 2, -1, -1):
        mul(d[i + 1], gamma[i], tmp)
        add(d[i], tmp, d[i])


def _cuts(a: int, b: int, width: int, align: int = 1) -> list[tuple[int, int]]:
    """[a, b) cut into blocks of at most `width`; if a block can hold
    `align` lines, each cut is on the last multiple of `align` it can reach."""
    cuts = []
    while a < b:
        end = min(a + width, b)
        if end < b and width >= align:
            end -= end % align
        cuts.append((a, end))
        a = end
    return cuts


def _slab_pairs(grid: np.ndarray, lines: np.ndarray, a: int, b: int) -> list:
    """(density view, tile view) pairs that copy y lines [a, b) into `lines`.

    Line z*nx + x is column (line - a) of the (ny, b - a) `lines`.  A run of
    whole z slabs is one pair, an axis swap; a partial slab at either end of
    the range is one pair of (ny, width) views.
    """
    _, ny, nx = grid.shape
    pairs = []
    while a < b:
        z, x = divmod(a, nx)
        k = 0 if x else (b - a) // nx
        if k:
            end = a + k * nx
            pairs.append((grid[z:z + k], lines[:, :end - a].reshape(ny, k, nx).transpose(1, 0, 2)))
        else:
            end = min(b, (z + 1) * nx)
            pairs.append((grid[z, :, x:x + end - a], lines[:, :end - a]))
        lines = lines[:, end - a:]
        a = end
    return pairs


class SweepPlan:
    """The scratch tiles and line blocks `lod_step` keeps for one mesh, worker
    count and traversal mode.

    Each worker owns one tile, allocated once with the plan.  Its first
    `size` elements hold a block's lines: at most `TILE` (more only if one
    line is longer), and never more than the largest share of one sweep the
    worker is given.  After them comes one scratch row, as wide as the
    worker's widest x or y block; a z block takes its scratch row from the
    tile's start.  `sweeps[s]` holds substrate s's x, y and z sweeps as
    (spacing, line length, items, blocks), where `blocks` maps a worker's
    first item to its (pairs, rows, tmp) blocks: a block's lines are solved
    in `rows`, swept axis first, with the scratch row `tmp`, and each
    (density view, tile view) pair copies the lines into the tile before
    the solve and back after it.
    - x: a block is the transpose of consecutive rows of the (nz*ny, nx)
      density.
    - y: a block is one axis swap per run of whole z slabs, and one copy per
      partial slab at either end of a collapsed range (`_slab_pairs`).
    - z: a block is columns of the (nz, ny*nx) density itself, with no pair.
    Every view is of the densities as they were when the plan was built.
    """

    __slots__ = ("mesh", "workers", "mode", "densities", "tiles", "sweeps")

    def __init__(self, micro: Microenvironment, mesh: CartesianMesh, workers: int,
                 mode: TraversalMode) -> None:
        nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
        self.mesh, self.workers, self.mode, self.densities = mesh, workers, mode, micro.densities
        # (spacing, line length, lines, lines per item) of the x, y and z sweeps
        axes = ((mesh.dx, nx, nz * ny, mode.lines_per_chunk(ny)),
                (mesh.dy, ny, nz * nx, mode.lines_per_chunk(nx)),
                (mesh.dz, nz, ny * nx, mode.lines_per_chunk(nx)))
        # per sweep, each worker's (first item, first line, end line)
        ranges = [[(lo, lo * per_item, hi * per_item)
                   for lo, hi in static_ranges(lines // per_item, workers)]
                  for _, _, lines, per_item in axes]
        # per worker, its tile's line size and, per sweep, its first item and
        # its blocks as line ranges
        layouts = []
        for (x_lo, xa, xb), (y_lo, ya, yb), (z_lo, za, zb) in zip(*ranges):
            size = min(max(TILE, nx, ny), max((xb - xa) * nx, (yb - ya) * ny, zb - za))
            layouts.append((size, (x_lo, _cuts(xa, xb, size // nx)),
                            (y_lo, _cuts(ya, yb, size // ny, nx)), (z_lo, _cuts(za, zb, size))))
        self.tiles = [np.empty(size + max((b - a for a, b in x_cuts + y_cuts), default=0))
                      for size, (_, x_cuts), (_, y_cuts), _ in layouts]
        self.sweeps = []
        for s in range(micro.substrate_count):
            grid = micro.grid_view(s)
            rows, columns = grid.reshape(nz * ny, nx), grid.reshape(nz, ny * nx)
            x_blocks, y_blocks, z_blocks = {}, {}, {}
            for tile, (size, (x_lo, x_cuts), (y_lo, y_cuts), (z_lo, z_cuts)) in zip(self.tiles,
                                                                                   layouts):
                x_blocks[x_lo] = []
                for a, b in x_cuts:
                    lines = tile[:nx * (b - a)].reshape(nx, b - a)
                    x_blocks[x_lo].append((((rows[a:b], lines.T),), list(lines),
                                           tile[size:size + b - a]))
                y_blocks[y_lo] = []
                for a, b in y_cuts:
                    lines = tile[:ny * (b - a)].reshape(ny, b - a)
                    y_blocks[y_lo].append((_slab_pairs(grid, lines, a, b), list(lines),
                                           tile[size:size + b - a]))
                z_blocks[z_lo] = [((), list(columns[:, a:b]), tile[:b - a]) for a, b in z_cuts]
            self.sweeps.append([(h, n, lines // per_item, blocks) for (h, n, lines, per_item), blocks
                                in zip(axes, (x_blocks, y_blocks, z_blocks))])

    def fits(self, micro: Microenvironment, mesh: CartesianMesh, workers: int,
             mode: TraversalMode) -> bool:
        return (micro.densities is self.densities and mesh is self.mesh
                and workers == self.workers and mode is self.mode)


def _sweep(blocks: dict, n_items: int, n: int, r: float, lam3: float,
           pool: WorkerPool) -> RegionRecord:
    """Solve every line of one sweep, block by block in each worker's tile."""
    inv, gamma, r = _line_factors(n, r, lam3)
    copyto = np.copyto

    def body(lo, hi, ctx):
        for pairs, rows, tmp in blocks[lo]:
            for native, tile in pairs:
                copyto(tile, native)
            _solve_lines(rows, tmp, inv, gamma, r)
            for native, tile in pairs:
                copyto(native, tile)
    return pool.run_static(n_items, body)


def lod_step(micro: Microenvironment, mesh: CartesianMesh, dt: float,
             mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """One operator-split step: implicit x, y, z sweeps with decay split λ/3 each.

    Returns one dispatch record per sweep per substrate.  The first call for
    a worker count, mode and mesh builds `micro.sweep_plan`; later calls
    reuse its tiles and views.
    """
    if dt <= 0.0:
        raise DomainError("diffusion step needs dt > 0")
    plan = micro.sweep_plan
    if plan is None or not plan.fits(micro, mesh, pool.workers, mode):
        plan = micro.sweep_plan = SweepPlan(micro, mesh, pool.workers, mode)
    records = []
    for s, sweeps in enumerate(plan.sweeps):
        lam3 = dt * micro.decay[s] / 3.0
        rate = dt * micro.diffusion[s]
        for h, n, n_items, blocks in sweeps:
            records.append(_sweep(blocks, n_items, n, rate / (h * h), lam3, pool))
    return records


def _rank_prefixes(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order segments longest first, and count those longer than each rank.

    Returns (order, longer): `order` lists the segments by descending length
    (stable), and `longer[r]` is the number of segments with more than r
    items, so the segments that have an item of rank r are
    `order[:longer[r]]`.  For non-empty `counts` the last entry is 0.  A
    recurrence over each segment's items then runs rank by rank, one vector
    step per rank over a contiguous prefix.
    """
    order = (-counts).argsort(kind="stable")
    longer = len(counts) - np.add.accumulate(np.bincount(counts))
    return order, longer


class ExchangePlan:
    """What the cell exchange keeps of one binned container state.

    `key` is (dt, secretion, uptake, saturation, voxel volume, workers).
    For each chunk of the static split of `nonempty_voxels` over the
    workers, `chunks` maps the chunk's first item to the chunk's voxels in
    rank order (`_rank_prefixes`), a density buffer as long, and one
    (density prefix, num, den) triple of views per rank.  The cells of rank
    r are the r-th of each voxel that has more than r cells, so their
    voxels are a prefix of the rank order.  Their factors are stored
    rank-major: `num = f * secretion * saturation` and `den = 1.0 + f *
    (secretion + uptake)`, with `f = dt * volume * inv_vol`.

    A plan fits the `bin_rows` array it was built from, which `rebin_cells`
    replaces whenever it rebuilds the bins, and its `key`.
    """

    __slots__ = ("bins", "key", "chunks")

    def __init__(self, container: CellContainer, key: tuple) -> None:
        dt, secretion, uptake, saturation, voxel_volume, workers = key
        self.bins, self.key = container.bin_rows, key
        voxels, bin_ptr = container.nonempty_voxels, container.bin_ptr
        chunks, entries = [], [np.zeros(0, dtype=np.intp)]
        for lo, hi in static_ranges(len(voxels), workers):
            if hi == lo:
                continue
            order, longer = _rank_prefixes(bin_ptr[lo + 1:hi + 1] - bin_ptr[lo:hi])
            per_rank = longer[:-1]
            # the bin positions of rank r are first[:per_rank[r]] + r, for
            # every rank in one pass
            first = bin_ptr[lo:hi].take(order)
            ends = np.add.accumulate(per_rank)
            at = np.arange(ends[-1]) - (ends - per_rank).repeat(per_rank)
            entries.append(first.take(at) + np.arange(len(per_rank)).repeat(per_rank))
            chunks.append((lo, voxels[lo:hi].take(order), per_rank.tolist()))
        rows = container.bin_rows.take(np.concatenate(entries))
        with np.errstate(over="ignore", invalid="ignore"):
            f = dt * container.volumes.take(rows) * (1.0 / voxel_volume)
            num = f * secretion * saturation
            den = 1.0 + f * (secretion + uptake)
        if (den <= 0.0).any():
            raise DomainError("exchange denominator must stay positive")
        self.chunks = {}
        a = 0
        for lo, chunk, per_rank in chunks:
            rho = np.empty(len(chunk))
            steps = []
            for n in per_rank:
                steps.append((rho[:n], num[a:a + n], den[a:a + n]))
                a += n
            self.chunks[lo] = chunk, rho, steps

    def fits(self, container: CellContainer, key: tuple) -> bool:
        return container.bin_rows is self.bins and key == self.key


def apply_cell_exchange(micro: Microenvironment, container: CellContainer, dt: float,
                        secretion: float, uptake: float, saturation: float,
                        pool: WorkerPool) -> RegionRecord:
    """Implicit per-cell secretion/uptake of substrate 0 at each cell's voxel.

    Within a voxel, cells apply in ascending id order, which is the order of
    the container's CSR bins, so the result does not depend on the storage
    order.  The update runs rank by rank: rank r applies the r-th cell of
    every voxel of the chunk in one vector step, rho = (rho + num) / den.
    Voxels are independent, so the non-empty list parallelizes without
    conflicts.

    The per-cell factors and the rank order are the `ExchangePlan` on
    `container.exchange_plan`, which is kept for as long as the bins, the
    parameters and the worker count: a call whose plan is stale builds a
    new one before the dispatch, so no worker builds one.  Stale bins raise
    `ContainerStateError` before anything is read.  A denominator
    that is not positive raises `DomainError` while the plan is built,
    before any density is written.  A density that leaves the finite range
    raises `NumericError` before it is written, so no later region of the
    step computes with it.
    """
    container.require_binned("cell exchange")
    if dt <= 0.0:
        raise DomainError("exchange needs dt > 0")
    dens = micro.densities[0]
    key = (dt, secretion, uptake, saturation, micro.mesh.voxel_volume, pool.workers)
    plan = container.exchange_plan
    if plan is None or not plan.fits(container, key):
        plan = container.exchange_plan = ExchangePlan(container, key)
    chunks = plan.chunks

    def body(lo, hi, ctx):
        _exchange_ranks(dens, *chunks[lo])

    return pool.run_static(len(container.nonempty_voxels), body)


@np.errstate(over="ignore", invalid="ignore")
def _exchange_ranks(dens: np.ndarray, chunk: np.ndarray, rho: np.ndarray, steps: list) -> None:
    """One chunk of `apply_cell_exchange`: gather, the rank steps, check, scatter."""
    dens.take(chunk, out=rho)
    add, divide = np.add, np.divide
    for r, num, den in steps:
        add(r, num, r)
        divide(r, den, r)
    finite = np.isfinite(rho)
    if not finite.all():
        v = chunk[~finite].min()
        raise NumericError(f"substrate density in voxel {v} left the finite range")
    dens[chunk] = rho


def compute_gradients(micro: Microenvironment, mesh: CartesianMesh,
                      mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """Central-difference gradients; boundary-face components are zero.

    One kernel computes the x, y and z differences vectorized over a run of
    consecutive (z, y) rows; the traversal mode sets only how many rows one
    chunk holds (ny under OuterLoop, 1 under Collapsed).  Each difference is
    written straight into its unit-stride plane of `micro.gradient_planes`,
    as (a - b) * s, and only the face entries are zeroed: the x ends of each
    row, the y = 0 and y = ny - 1 rows and the z = 0 and z = nz - 1 slabs.
    Writes stay inside the chunk's own rows and the density field is
    read-only here, so the values are identical for every chunk size and
    worker split.
    """
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    n, n_rows = mesh.voxel_count, nz * ny
    # flat offset of the x, y and z neighbours, and each axis' 1 / (2h)
    steps, scales = (1, nx, ny * nx), (0.5 / mesh.dx, 0.5 / mesh.dy, 0.5 / mesh.dz)
    x_ends = slice(None, None, max(nx - 1, 1))  # columns 0 and nx - 1
    rows_per_item = mode.lines_per_chunk(ny)
    records = []
    for s in range(micro.substrate_count):
        d, planes = micro.densities[s], micro.gradient_planes[s]
        diffs = tuple(zip(planes, steps, scales))
        gx, gy, gz = (p.reshape(n_rows, nx) for p in planes)

        def body(lo, hi, ctx, d=d, diffs=diffs, gx=gx, gy=gy, gz=gz):
            lo, hi = lo * rows_per_item, hi * rows_per_item
            # each component is one flat difference over the chunk's rows, so
            # every ufunc operand is contiguous and numpy allocates no buffer;
            # its face entries take a difference across a row end or a z slab
            # boundary, or none at all, and are zeroed below
            for g, step, scale in diffs:
                i, j = max(lo * nx, step), min(hi * nx, n - step)
                if j > i:
                    out = g[i:j]
                    np.subtract(d[i + step:j + step], d[i - step:j - step], out=out)
                    out *= scale
            gx[lo:hi, x_ends] = 0.0
            for first in (lo + -lo % ny, lo + (ny - 1 - lo) % ny):
                if first < hi:
                    gy[first:hi:ny] = 0.0
            for flo, fhi in ((lo, min(hi, ny)), (max(lo, n_rows - ny), hi)):
                if fhi > flo:
                    gz[flo:fhi] = 0.0
        records.append(pool.run_static(n_rows // rows_per_item, body))
    return records
