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
    neighbor terms at all.  Returned arrays are shared read-only.
    """
    if n == 1:
        return np.array([1.0 / (1.0 + lam3)]), np.zeros(0)
    diag = np.full(n, 1.0 + lam3 + 2.0 * r)
    diag[0] = diag[-1] = 1.0 + lam3 + r
    inv = np.empty(n)
    gamma = np.empty(n)
    inv[0] = 1.0 / diag[0]
    gamma[0] = r * inv[0]
    for i in range(1, n):
        inv[i] = 1.0 / (diag[i] - r * gamma[i - 1])
        gamma[i] = r * inv[i]
    return inv, gamma


def _solve_columns(lines: np.ndarray, lo: int, hi: int, inv: np.ndarray,
                   gamma: np.ndarray, r: float) -> None:
    """In-place solve of lines[:, lo:hi], one line per column, swept axis first."""
    d = lines[:, lo:hi]
    n = d.shape[0]
    d[0] *= inv[0]
    for i in range(1, n):
        d[i] += r * d[i - 1]
        d[i] *= inv[i]
    for i in range(n - 2, -1, -1):
        d[i] += gamma[i] * d[i + 1]


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
    chunk holds (ny under OuterLoop, 1 under Collapsed).  Writes stay inside
    the chunk's own rows and the density field is read-only here, so the
    values are identical for every chunk size and worker split.
    """
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    n_rows = nz * ny
    sx, sy, sz = 0.5 / mesh.dx, 0.5 / mesh.dy, 0.5 / mesh.dz
    rows_per_item = mode.lines_per_chunk(ny)
    records = []
    for s in range(micro.substrate_count):
        d = micro.densities[s].reshape(n_rows, nx)
        g = micro.gradients[s].reshape(n_rows, nx, 3)

        def body(lo, hi, ctx, d=d, g=g):
            lo, hi = lo * rows_per_item, hi * rows_per_item
            g[lo:hi] = 0.0
            g[lo:hi, 1:-1, 0] = (d[lo:hi, 2:] - d[lo:hi, :-2]) * sx
            # row z*ny + y has its y neighbours one row away; the rows of the
            # y = 0 and y = ny - 1 faces take a difference across a z boundary
            # here and are zeroed again below
            ylo, yhi = max(lo, 1), min(hi, n_rows - 1)
            if yhi > ylo:
                g[ylo:yhi, :, 1] = (d[ylo + 1:yhi + 1] - d[ylo - 1:yhi - 1]) * sy
            g[lo + -lo % ny:hi:ny, :, 1] = 0.0
            g[lo + (ny - 1 - lo) % ny:hi:ny, :, 1] = 0.0
            zlo, zhi = max(lo, ny), min(hi, n_rows - ny)
            if zhi > zlo:
                g[zlo:zhi, :, 2] = (d[zlo + ny:zhi + ny] - d[zlo - ny:zhi - ny]) * sz
        records.append(pool.run_static(n_rows // rows_per_item, body))
    return records
