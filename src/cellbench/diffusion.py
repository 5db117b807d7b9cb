"""Diffusion-decay solver: operator-split implicit line solves over the mesh.

One step applies three one-dimensional implicit sweeps (x, then y, then z),
each solving a tridiagonal system per grid line with no-flux boundaries and a
third of the decay term.  Coefficients are constant per line length, so the
forward-elimination factors are computed once and the per-line solve reduces
to elementwise recurrences over a batch of lines.  All batch operations are
elementwise, which makes the field bit-identical however the lines are split
across workers or grouped by the traversal mode.

Each sweep stores its lines swept axis first, as an (n, lines) array, so one
recurrence step is one ufunc over a contiguous row of the chunk's lines.  A
substrate goes native -> x-first -> y-first -> native through one field-sized
buffer, `Microenvironment.line_buffer`, which lives as long as the fields, so
no sweep allocates a copy of the field:

1. the (z, y, x) grid is copied into the buffer as (x, z, y); the x lines
   are solved there;
2. the buffer is copied into the substrate's own density memory as
   (y, z, x); the y lines are solved there;
3. that is copied into the buffer as (z, y, x), rows of x staying
   contiguous; the z lines are solved there;
4. the buffer is copied back to the density row, one contiguous copy.

The first two copies are transposes that move every axis.  They run in
tiles of whole z slabs, at most `TILE` elements per call unless one slab is
larger, so a tile's source and destination stay in cache; a small mesh is
one call.  Lines are numbered z*ny + y on the x sweep, z*nx + x on the y
sweep and y*nx + x on the z sweep, so a chunk is a contiguous column range.
A chunk's recurrences write into its rows in place and form each product in
one scratch row, so no step allocates.

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


#: Elements one tiled transpose call copies, unless a single z slab is larger.
TILE = 4096


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


def _solve_columns(lines: np.ndarray, lo: int, hi: int, inv, gamma, r) -> None:
    """In-place solve of lines[:, lo:hi], one line per column, swept axis first.

    Forward, d[i] = (d[i] + r*d[i-1]) * inv[i]; back, d[i] += gamma[i]*d[i+1].
    Each product goes into one scratch row, so a step allocates nothing.  The
    factors are `_line_factors`' 0-d arrays and every `out` is positional:
    a row of a chunk holds at most a few thousand lines, often a few dozen,
    so the fixed cost of a ufunc call is a large part of the solve.
    """
    d = list(lines[:, lo:hi])
    tmp = np.empty_like(d[0])
    add, mul = np.add, np.multiply
    mul(d[0], inv[0], d[0])
    for i in range(1, len(d)):
        mul(d[i - 1], r, tmp)
        add(d[i], tmp, d[i])
        mul(d[i], inv[i], d[i])
    for i in range(len(d) - 2, -1, -1):
        mul(d[i + 1], gamma[i], tmp)
        add(d[i], tmp, d[i])


def _sweep(lines: np.ndarray, r: float, lam3: float, mode: TraversalMode,
           pool: WorkerPool) -> RegionRecord:
    """Solve every line of `lines`, an (n, outer, middle) array, in place."""
    n, n_outer, n_middle = lines.shape
    inv, gamma, r = _line_factors(n, r, lam3)
    columns = lines.reshape(n, n_outer * n_middle)
    per_item = mode.lines_per_chunk(n_middle)

    def body(lo, hi, ctx):
        _solve_columns(columns, lo * per_item, hi * per_item, inv, gamma, r)
    return pool.run_static(n_outer * n_middle // per_item, body)


def lod_step(micro: Microenvironment, mesh: CartesianMesh, dt: float,
             mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """One operator-split step: implicit x, y, z sweeps with decay split λ/3 each.

    Returns one dispatch record per sweep per substrate.  The density row
    holds the y-first layout while its y sweep runs and is native again on
    return.
    """
    if dt <= 0.0:
        raise DomainError("diffusion step needs dt > 0")
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    slabs = max(1, TILE // (nx * ny))
    buffer = micro.line_buffer
    x_first, z_first = buffer.reshape(nx, nz, ny), buffer.reshape(nz, ny, nx)
    records = []
    for s in range(micro.substrate_count):
        lam3 = dt * micro.decay[s] / 3.0
        rate = dt * micro.diffusion[s]
        density = micro.densities[s]
        grid, y_first = micro.grid_view(s), density.reshape(ny, nz, nx)
        for z in range(0, nz, slabs):
            np.copyto(x_first[:, z:z + slabs], grid[z:z + slabs].transpose(2, 0, 1))
        records.append(_sweep(x_first, rate / (mesh.dx * mesh.dx), lam3, mode, pool))
        for z in range(0, nz, slabs):
            np.copyto(y_first[:, z:z + slabs], x_first[:, z:z + slabs].transpose(2, 1, 0))
        records.append(_sweep(y_first, rate / (mesh.dy * mesh.dy), lam3, mode, pool))
        np.copyto(z_first, y_first.transpose(1, 0, 2))
        records.append(_sweep(z_first, rate / (mesh.dz * mesh.dz), lam3, mode, pool))
        np.copyto(density, buffer)
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
    replaces whenever it rebuilds the bins, and its `key`; while
    `rows_changed` is set, the rows were added or reordered since the bins
    were built, and no plan fits.
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
        return container.bin_rows is self.bins and not container.rows_changed and key == self.key


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
    new one before the dispatch, so no worker builds one.  A denominator
    that is not positive raises `DomainError` while the plan is built,
    before any density is written.  A density that leaves the finite range
    raises `NumericError` before it is written, so no later region of the
    step computes with it.
    """
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
