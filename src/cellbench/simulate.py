"""The step loop: diffusion substeps, mechanics, divisions, storage policy.

One mechanics step runs, in order: per diffusion substep, the cell exchange
and the operator-split solve; then a gradient refresh; the velocity update
under the configured schedule and allocation mode; position integration; the
serial division pass; a serial rebin, which has nothing left to do when
divisions rebinned; and, for the voxel-sorted storage policy, a periodic
resort.  Every region is timed per worker every step, including the
serial ones (attributed to worker 0) and the skipped ones (all-zero rows), so
the timing output always has the same shape.

Results are reproducible by construction: given a config, the final cells,
velocities, densities, and checksum are identical across worker counts,
schedules, traversal modes, allocation modes, and storage orders.
"""

from __future__ import annotations

import time
# `hashlib.blake2b` is this type; importing `hashlib` would also map OpenSSL's libcrypto
from _blake2 import blake2b
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import CellContainer, Microenvironment, rebin_cells
from .diffusion import apply_cell_exchange, compute_gradients, lod_step
from .mechanics import check_binning_exact, integrate_positions, update_velocities
from .parallel import RegionRecord, WorkerPool
from .population import (
    StorageKind,
    attempt_divisions,
    division_draws,
    sort_cells_by_voxel,
)

REGIONS = (
    "solver",
    "exchange",
    "gradients",
    "velocity",
    "integrate",
    "rebin",
    "divide",
    "resort",
)


def _add_timed(record: RegionRecord, t0: float, dispatches) -> None:
    """Add one region call's pool records and its wall time since t0."""
    for dispatch in dispatches:
        record.add(dispatch)
    record.elapsed += time.perf_counter() - t0


def _serial(workers: int, seconds: float, iterations: int) -> RegionRecord:
    """Record of a serial region: worker 0 was busy for all of it."""
    record = RegionRecord.empty(workers)
    record.workers[0].iterations = iterations
    record.elapsed = record.workers[0].busy = seconds
    return record


#: One cell as `state_checksum` hashes it: little-endian id, position, velocity.
_CHECKSUM_RECORD = np.dtype([("id", "<i8"), ("position", "<f8", 3), ("velocity", "<f8", 3)])


def state_checksum(container: CellContainer) -> str:
    """Order-independent digest of (id, position, velocity) over all cells."""
    records = np.empty(len(container), dtype=_CHECKSUM_RECORD)
    records["id"] = container.ids
    records["position"] = container.positions
    records["velocity"] = container.velocities
    blob = records.tobytes()
    size = _CHECKSUM_RECORD.itemsize
    acc = 0
    for lo in range(0, len(blob), size):
        digest = blake2b(blob[lo:lo + size], digest_size=16).digest()
        acc ^= int.from_bytes(digest, "little")
    return f"{acc:032x}"


def seed_cells(container: CellContainer, cfg: RunConfig) -> None:
    """Deterministic uniform seeding inside the configured box (whole mesh if unset)."""
    mesh = container.mesh
    if cfg.seed_box:
        x0, y0, z0, x1, y1, z1 = cfg.seed_box
    else:
        (x0, y0, z0), (x1, y1, z1) = mesh.origin, mesh.upper
    ids = np.arange(cfg.cell_count, dtype=np.uint64)
    ux, uy, uz = division_draws(cfg.seed ^ 0x5EED, ids, 0)
    positions = np.column_stack((x0 + ux * (x1 - x0), y0 + uy * (y1 - y0),
                                 z0 + uz * (z1 - z0)))
    mesh.clamp_inside(positions)
    container.add_cells(positions, radius=cfg.cell_radius, division_rate=cfg.division_rate)
    rebin_cells(container)


@dataclass
class RunResult:
    config: RunConfig
    container: CellContainer
    micro: Microenvironment
    checksum: str
    step_records: list  # one {region: RegionRecord} dict per step
    wall_seconds: float
    final_cell_count: int

    def region_totals(self, region: str) -> RegionRecord:
        total = RegionRecord.empty(self.config.workers)
        for step in self.step_records:
            total.add(step[region])
            total.elapsed += step[region].elapsed
        return total


def run_simulation(cfg: RunConfig) -> RunResult:
    """Execute the configured run; see the module docstring for the step shape."""
    mesh = cfg.mesh()
    micro = Microenvironment(mesh, [cfg.diffusion], [cfg.decay], [cfg.initial_density])
    container = CellContainer(mesh)
    seed_cells(container, cfg)
    params = cfg.interaction_params()
    check_binning_exact(container, mesh, params)
    strat = cfg.strategy
    substeps = cfg.substeps
    resort_every = strat.storage.every
    sorted_storage = strat.storage.kind is StorageKind.VOXEL_SORTED
    if sorted_storage:
        sort_cells_by_voxel(container)

    step_records: list = []
    clock = time.perf_counter
    t_run = clock()
    pool = WorkerPool(cfg.workers)
    try:
        for step in range(cfg.steps):
            records = {region: RegionRecord.empty(cfg.workers) for region in REGIONS}

            for _ in range(substeps):
                t0 = clock()
                rec = apply_cell_exchange(micro, container, cfg.dt_diffusion, cfg.secretion,
                                          cfg.uptake, cfg.saturation, pool=pool)
                _add_timed(records["exchange"], t0, [rec])

                t0 = clock()
                recs = lod_step(micro, mesh, cfg.dt_diffusion, strat.traversal, pool)
                _add_timed(records["solver"], t0, recs)

            t0 = clock()
            recs = compute_gradients(micro, mesh, strat.traversal, pool)
            _add_timed(records["gradients"], t0, recs)

            t0 = clock()
            rec = update_velocities(container, mesh, params, strat.schedule,
                                    pool, strat.allocation)
            _add_timed(records["velocity"], t0, [rec])

            t0 = clock()
            rec = integrate_positions(container, mesh, cfg.dt_mechanics, pool)
            _add_timed(records["integrate"], t0, [rec])

            # divisions read no bins, so they go first: their own rebin then
            # bins the moved cells too, and the step's rebin has nothing left
            moved = len(container)
            t0 = clock()
            daughters = attempt_divisions(container, cfg.seed, cfg.dt_mechanics,
                                          mesh, step, cap=cfg.cell_cap)
            records["divide"] = _serial(cfg.workers, clock() - t0, len(daughters))

            t0 = clock()
            rebin_cells(container)
            records["rebin"] = _serial(cfg.workers, clock() - t0, moved)

            if sorted_storage and (step + 1) % resort_every == 0:
                t0 = clock()
                sort_cells_by_voxel(container)
                records["resort"] = _serial(cfg.workers, clock() - t0, len(container))

            step_records.append(records)
            micro.check_state()
    finally:
        pool.shutdown()

    return RunResult(
        config=cfg,
        container=container,
        micro=micro,
        checksum=state_checksum(container),
        step_records=step_records,
        wall_seconds=clock() - t_run,
        final_cell_count=len(container),
    )
