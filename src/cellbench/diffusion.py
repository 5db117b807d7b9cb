"""Diffusion-decay solver: operator-split implicit line solves over the mesh.

One step applies three one-dimensional implicit sweeps (x, then y, then z),
each solving a tridiagonal system per grid line with no-flux boundaries and a
third of the decay term.  Coefficients are constant per line length, so the
forward-elimination factors are computed once and the per-line solve reduces
to elementwise recurrences over a batch of lines.  All batch operations are
elementwise, which makes the field bit-identical however the lines are split
across workers or grouped by the traversal mode.

Each sweep stores its lines swept axis first, as an (n, lines) array, so one
recurrence step is one ufunc over a contiguous row of the chunk's lines.  The
z lines are the density grid itself, reshaped to (nz, ny*nx) and solved in
place; the x and y lines are solved in a contiguous transposed copy that is
written back.  Lines are numbered z*ny + y on the x sweep, z*nx + x on the y
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
from .parallel import RegionRecord, WorkerPool


class TraversalMode(enum.Enum):
    OUTER_LOOP = "outer"
    COLLAPSED = "collapsed"

    def lines_per_chunk(self, middle: int) -> int:
        """Lines per chunk: a whole slab of `middle` lines, or a single line."""
        return middle if self is TraversalMode.OUTER_LOOP else 1


@lru_cache(maxsize=64)
def _line_factors(n: int, r: float, lam3: float):
    """Precomputed reciprocal pivots and back-substitution factors for one axis.

    The line system has sub/super diagonal -r, interior diagonal 1+lam3+2r and
    boundary diagonal 1+lam3+r (no-flux), except the n=1 line, which has no
    neighbor terms at all.  Returned as tuples of Python floats, so the
    recurrences read a factor without creating a numpy scalar.
    """
    if n == 1:
        return (1.0 / (1.0 + lam3),), ()
    diag = [1.0 + lam3 + 2.0 * r] * n
    diag[0] = diag[-1] = 1.0 + lam3 + r
    inv = [1.0 / diag[0]]
    gamma = [r * inv[0]]
    for i in range(1, n):
        inv.append(1.0 / (diag[i] - r * gamma[i - 1]))
        gamma.append(r * inv[i])
    return tuple(inv), tuple(gamma)


def _solve_columns(lines: np.ndarray, lo: int, hi: int, inv, gamma, r: float) -> None:
    """In-place solve of lines[:, lo:hi], one line per column, swept axis first.

    Forward, d[i] = (d[i] + r*d[i-1]) * inv[i]; back, d[i] += gamma[i]*d[i+1].
    Each product goes into one scratch row, so a step allocates nothing.
    """
    d = list(lines[:, lo:hi])
    tmp = np.empty_like(d[0])
    d[0] *= inv[0]
    for i in range(1, len(d)):
        np.multiply(d[i - 1], r, out=tmp)
        d[i] += tmp
        d[i] *= inv[i]
    for i in range(len(d) - 2, -1, -1):
        np.multiply(d[i + 1], gamma[i], out=tmp)
        d[i] += tmp


def _sweep(lines: np.ndarray, lines_per_item: int, inv, gamma, r,
           pool: WorkerPool) -> RegionRecord:
    def body(lo, hi, ctx):
        _solve_columns(lines, lo * lines_per_item, hi * lines_per_item, inv, gamma, r)
    return pool.run_static(lines.shape[1] // lines_per_item, body)


def lod_step(micro: Microenvironment, mesh: CartesianMesh, dt: float,
             mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """One operator-split step: implicit x, y, z sweeps with decay split λ/3 each.

    Returns one dispatch record per sweep per substrate.
    """
    if dt <= 0.0:
        raise DomainError("diffusion step needs dt > 0")
    # Per sweep: the transpose of the (z, y, x) grid that puts the swept axis
    # first, its inverse (None for z, solved in place) and the mesh spacing.
    # `lines` is rebound to a view before `.copy()`, which frees the previous
    # sweep's copy: at most one line-order copy is alive at a time.
    axes = (((2, 0, 1), (1, 2, 0), mesh.dx),
            ((1, 0, 2), (1, 0, 2), mesh.dy),
            ((0, 1, 2), None, mesh.dz))
    records = []
    for s in range(micro.substrate_count):
        lam3 = dt * micro.decay[s] / 3.0
        grid = micro.grid_view(s)
        for transpose, inverse, h in axes:
            lines = grid.transpose(transpose)
            if inverse is not None:
                lines = lines.copy()
            n, n_outer, n_middle = lines.shape
            r = dt * micro.diffusion[s] / (h * h)
            inv, gamma = _line_factors(n, r, lam3)
            records.append(_sweep(lines.reshape(n, n_outer * n_middle),
                                  mode.lines_per_chunk(n_middle), inv, gamma, r, pool))
            if inverse is not None:
                grid[...] = lines.transpose(inverse)
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


def apply_cell_exchange(micro: Microenvironment, container: CellContainer, dt: float,
                        secretion: float, uptake: float, saturation: float,
                        pool: WorkerPool) -> RegionRecord:
    """Implicit per-cell secretion/uptake of substrate 0 at each cell's voxel.

    Within a voxel, cells apply in ascending id order, which is the order of
    the container's CSR bins, so the result does not depend on the storage
    order.  The update runs rank by rank: rank r applies the r-th cell of
    every voxel of the chunk in one vector step.  Voxels are independent, so
    the non-empty list parallelizes without conflicts.  A density that leaves
    the finite range raises `NumericError` before it is written, so no later
    region of the step computes with it.
    """
    if dt <= 0.0:
        raise DomainError("exchange needs dt > 0")
    dens = micro.densities[0]
    inv_vol = 1.0 / micro.mesh.voxel_volume
    f_rows = dt * container.volumes * inv_vol
    voxels = container.nonempty_voxels
    bin_ptr, bin_rows = container.bin_ptr, container.bin_rows

    def body(lo, hi, ctx):
        order, longer = _rank_prefixes(bin_ptr[lo + 1:hi + 1] - bin_ptr[lo:hi])
        first = bin_ptr[lo:hi][order]
        chunk = voxels[lo:hi][order]
        rho = dens[chunk]
        with np.errstate(over="ignore", invalid="ignore"):
            for rank, n in enumerate(longer[:-1].tolist()):
                f = f_rows[bin_rows[first[:n] + rank]]
                den = 1.0 + f * (secretion + uptake)
                if (den <= 0.0).any():
                    raise DomainError("exchange denominator must stay positive")
                rho[:n] = (rho[:n] + f * secretion * saturation) / den
        broken = ~np.isfinite(rho)
        if broken.any():
            v = chunk[broken].min()
            raise NumericError(f"substrate density in voxel {v} left the finite range")
        dens[chunk] = rho

    return pool.run_static(len(voxels), body)


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
