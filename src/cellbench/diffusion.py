"""Diffusion-decay solver: operator-split implicit line solves over the mesh.

One step applies three one-dimensional implicit sweeps (x, then y, then z),
each solving a tridiagonal system per grid line with no-flux boundaries and a
third of the decay term.  Coefficients are constant per line length, so the
forward-elimination factors are computed once and the per-line solve reduces
to elementwise recurrences over a batch of lines.  All batch operations are
elementwise, which makes the field bit-identical however the lines are split
across workers or grouped by the traversal mode.

Traversal modes fix the schedulable chunk granularity of each sweep:
OuterLoop hands out one outermost-axis slab per chunk (nz chunks on the x and
y sweeps, ny on the z sweep), Collapsed hands out one grid line per chunk
(nz*ny, nz*nx, ny*nx respectively).  Chunks never share output elements, so
the schedule affects only load balance, not results.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .core import CartesianMesh, CellContainer, Microenvironment
from .errors import DomainError, NumericError
from .parallel import RegionRecord, WorkerPool


class TraversalMode(enum.Enum):
    OUTER_LOOP = "outer"
    COLLAPSED = "collapsed"


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


def _solve_rows(rows: np.ndarray, lo: int, hi: int, inv: np.ndarray,
                gamma: np.ndarray, r: float) -> None:
    """In-place solve of rows[lo:hi], one line per row, along the last axis."""
    d = rows[lo:hi]
    n = d.shape[1]
    d[:, 0] *= inv[0]
    for i in range(1, n):
        d[:, i] += r * d[:, i - 1]
        d[:, i] *= inv[i]
    for i in range(n - 2, -1, -1):
        d[:, i] += gamma[i] * d[:, i + 1]


def _sweep(rows: np.ndarray, n_items: int, rows_per_item: int, inv, gamma, r,
           pool: WorkerPool) -> RegionRecord:
    def body(lo, hi, ctx):
        _solve_rows(rows, lo * rows_per_item, hi * rows_per_item, inv, gamma, r)
    return pool.run_static(n_items, body)


def lod_step(micro: Microenvironment, mesh: CartesianMesh, dt: float,
             mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """One operator-split step: implicit x, y, z sweeps with decay split λ/3 each.

    Returns one dispatch record per sweep per substrate.
    """
    if dt <= 0.0:
        raise DomainError("diffusion step needs dt > 0")
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    records = []
    for s in range(micro.substrate_count):
        lam3 = dt * micro.decay[s] / 3.0
        grid = micro.grid_view(s)

        # x sweep: lines are contiguous rows of the flat array.
        rows = micro.densities[s].reshape(nz * ny, nx)
        r = dt * micro.diffusion[s] / (mesh.dx * mesh.dx)
        inv, gamma = _line_factors(nx, r, lam3)
        if mode is TraversalMode.OUTER_LOOP:
            records.append(_sweep(rows, nz, ny, inv, gamma, r, pool))
        else:
            records.append(_sweep(rows, nz * ny, 1, inv, gamma, r, pool))

        # y sweep: serial transpose to (z, x, y) scratch, solve, copy back.
        r = dt * micro.diffusion[s] / (mesh.dy * mesh.dy)
        inv, gamma = _line_factors(ny, r, lam3)
        scratch = grid.transpose(0, 2, 1).copy().reshape(nz * nx, ny)
        if mode is TraversalMode.OUTER_LOOP:
            records.append(_sweep(scratch, nz, nx, inv, gamma, r, pool))
        else:
            records.append(_sweep(scratch, nz * nx, 1, inv, gamma, r, pool))
        grid[:] = scratch.reshape(nz, nx, ny).transpose(0, 2, 1)

        # z sweep: serial transpose to (y, x, z) scratch, solve, copy back.
        r = dt * micro.diffusion[s] / (mesh.dz * mesh.dz)
        inv, gamma = _line_factors(nz, r, lam3)
        scratch = grid.transpose(1, 2, 0).copy().reshape(ny * nx, nz)
        if mode is TraversalMode.OUTER_LOOP:
            records.append(_sweep(scratch, ny, nx, inv, gamma, r, pool))
        else:
            records.append(_sweep(scratch, ny * nx, 1, inv, gamma, r, pool))
        grid[:] = scratch.reshape(ny, nx, nz).transpose(2, 0, 1)
    return records


def apply_cell_exchange(micro: Microenvironment, container: CellContainer, dt: float,
                        secretion: float, uptake: float, saturation: float,
                        substrate: int = 0,
                        pool: WorkerPool | None = None) -> RegionRecord | None:
    """Implicit per-cell secretion/uptake against each cell's voxel density.

    Within a voxel, cells apply in ascending id order, so the result does not
    depend on the container's storage order.  Voxels are independent, so the
    non-empty list parallelizes without conflicts.  A density that leaves the
    finite range raises `NumericError` before it is written, so no later
    region of the step computes with it.
    """
    if dt <= 0.0:
        raise DomainError("exchange needs dt > 0")
    dens = micro.densities[substrate]
    inv_vol = 1.0 / micro.mesh.voxel_volume
    by_id = container.by_id
    agent = container.agent
    voxels = container.nonempty_voxels

    def body(lo, hi, ctx):
        for v in voxels[lo:hi]:
            rho = dens[v]
            ids = agent[v]
            for cid in sorted(ids):
                f = dt * by_id[cid].volume * inv_vol
                den = 1.0 + f * (secretion + uptake)
                if den <= 0.0:
                    raise DomainError("exchange denominator must stay positive")
                rho = (rho + f * secretion * saturation) / den
            if not math.isfinite(rho):
                raise NumericError(f"substrate density in voxel {v} left the finite range")
            dens[v] = rho

    if pool is None:
        body(0, len(voxels), None)
        return None
    return pool.run_static(len(voxels), body)


def compute_gradients(micro: Microenvironment, mesh: CartesianMesh,
                      mode: TraversalMode, pool: WorkerPool) -> list[RegionRecord]:
    """Central-difference gradients; boundary-face components are zero.

    OuterLoop chunks are z slabs (vectorized over the slab); Collapsed chunks
    are single (z, y) rows.  Writes stay inside the chunk's own voxels and the
    density field is read-only here, so both paths commute with any worker
    split and produce identical values.
    """
    nx, ny, nz = mesh.nx, mesh.ny, mesh.nz
    sx, sy, sz = 0.5 / mesh.dx, 0.5 / mesh.dy, 0.5 / mesh.dz
    records = []
    for s in range(micro.substrate_count):
        d = micro.grid_view(s)
        g = micro.gradients[s].reshape(nz, ny, nx, 3)

        if mode is TraversalMode.OUTER_LOOP:
            def body(lo, hi, ctx, d=d, g=g):
                slab = g[lo:hi]
                slab[...] = 0.0
                if nx > 2:
                    slab[:, :, 1:-1, 0] = (d[lo:hi, :, 2:] - d[lo:hi, :, :-2]) * sx
                if ny > 2:
                    slab[:, 1:-1, :, 1] = (d[lo:hi, 2:, :] - d[lo:hi, :-2, :]) * sy
                zlo, zhi = max(lo, 1), min(hi, nz - 1)
                if zhi > zlo:
                    g[zlo:zhi, :, :, 2] = (d[zlo + 1:zhi + 1] - d[zlo - 1:zhi - 1]) * sz
            records.append(pool.run_static(nz, body))
        else:
            def body(lo, hi, ctx, d=d, g=g):
                for row in range(lo, hi):
                    z, y = divmod(row, ny)
                    line = g[z, y]
                    line[...] = 0.0
                    if nx > 2:
                        line[1:-1, 0] = (d[z, y, 2:] - d[z, y, :-2]) * sx
                    if 0 < y < ny - 1:
                        line[:, 1] = (d[z, y + 1, :] - d[z, y - 1, :]) * sy
                    if 0 < z < nz - 1:
                        line[:, 2] = (d[z + 1, y, :] - d[z - 1, y, :]) * sz
            records.append(pool.run_static(nz * ny, body))
    return records
