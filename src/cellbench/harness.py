"""Sweep runner, equivalence verifier, and report writers.

A sweep runs every (strategy, worker count) cell several times, reports the
median wall time and its spread, and derives two speedup views: each
strategy against its own median at its lowest swept worker count (scaling)
and each cell against the first swept strategy, the baseline, at the same
worker count (the is-the-fix-worth-it view).  Both assume that strategy and
worker count never change the physics, so the first run that finishes is the
reference and every later run must match it bit for bit (`_first_divergence`,
which `verify_equivalence` also reports).  A cell whose run raises or
diverges fails, with no speedups or efficiency rows; a sweep never dies half way.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .config import STRATEGY_PARTS, RunConfig, StrategyConfig, parse_strategy_literal
from .errors import ConfigError
from .metrics import (
    RegionTiming,
    aggregate_timings,
    communication_efficiency,
    computation_scalability,
    load_balance,
    parallel_efficiency,
    timing_from_record,
)
from .parallel import WorkerPool
from .simulate import REGIONS, RunResult, run_simulation

#: Measurement-variability threshold quoted in sweep reports.
SPREAD_WARN = 0.05


def run_id_for(strategy: StrategyConfig, workers: int, repeat: int = 0) -> str:
    return f"{strategy.literal()}/w{workers}/r{repeat}"


# -- report writers ----------------------------------------------------------


def write_timings_csv(path: str, result: RunResult, run_id: str) -> None:
    """One row per step x region x worker (or per region x worker in aggregate mode)."""
    mode = result.config.timings
    if mode == "off":
        return
    if mode == "aggregate":
        steps = [("all", {region: result.region_totals(region) for region in REGIONS})]
    else:
        steps = enumerate(result.step_records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "run_id", "step", "region", "worker",
            "busy_s", "iterations", "alloc_events", "claims",
        ])
        for step, records in steps:
            for region in REGIONS:
                for w, stats in enumerate(records[region].workers):
                    writer.writerow([
                        run_id, step, region, w,
                        f"{stats.busy:.9f}", stats.iterations,
                        stats.alloc_events, stats.claims,
                    ])


def _active_timings(totals: dict) -> dict:
    """Timings of the regions with busy time, plus their "all" aggregate."""
    timings = {region: timing_from_record(region, total)
               for region, total in totals.items()
               if max(w.busy for w in total.workers) > 0.0}
    if timings:
        timings["all"] = aggregate_timings(list(timings.values()), region="all")
    return timings


def efficiency_rows(result: RunResult, run_id: str,
                    base: RunResult | None = None) -> list[dict]:
    """Per-region efficiency report rows; regions with no busy time are skipped."""
    strategy = result.config.strategy
    axes = {part: fmt(getattr(strategy, part)) for part, (_, fmt) in STRATEGY_PARTS.items()}
    totals = {region: result.region_totals(region) for region in REGIONS}
    alloc = {region: total.total_alloc_events for region, total in totals.items()}
    alloc["all"] = sum(alloc.values())
    base_timings = {}
    if base is not None:
        base_timings = _active_timings(
            {region: base.region_totals(region) for region in REGIONS})
    rows = []
    for region, timing in _active_timings(totals).items():
        comp = (f"{computation_scalability(base_timings[region], timing):.6f}"
                if region in base_timings else "")
        rows.append({
            "run_id": run_id,
            "region": region,
            "workers": timing.workers,
            **axes,
            "lb": f"{load_balance(timing):.6f}",
            "comm_eff": f"{communication_efficiency(timing):.6f}",
            "par_eff": f"{parallel_efficiency(timing):.6f}",
            "comp_scal": comp,
            "mean_busy_s": f"{timing.total_busy / timing.workers:.9f}",
            "max_busy_s": f"{max(timing.busy):.9f}",
            "elapsed_s": f"{timing.elapsed:.9f}",
            "alloc_events": alloc[region],
        })
    return rows


EFFICIENCY_FIELDS = [
    "run_id", "region", "workers", *STRATEGY_PARTS, "lb", "comm_eff", "par_eff",
    "comp_scal", "mean_busy_s", "max_busy_s", "elapsed_s", "alloc_events",
]


def write_efficiency_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=EFFICIENCY_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


# -- sweeps ------------------------------------------------------------------


@dataclass
class SweepCell:
    strategy: str
    workers: int
    wall_seconds: list = field(default_factory=list)
    median: float = 0.0
    spread: float = 0.0
    checksum: str = ""
    error: str = ""
    raised: Exception | None = None  # None unless a run raised

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class SweepResult:
    cells: list
    baseline: str
    efficiency_rows: list

    def cell(self, strategy: str, workers: int) -> SweepCell | None:
        for c in self.cells:
            if c.strategy == strategy and c.workers == workers:
                return c
        return None

    def speedup_vs_lowest_workers(self, strategy: str, workers: int) -> float | None:
        """The strategy's median at its lowest swept worker count over its median at `workers`."""
        low = min((c for c in self.cells if c.strategy == strategy),
                  key=lambda c: c.workers, default=None)
        cur = self.cell(strategy, workers)
        if not (low and cur and low.ok and cur.ok and cur.median > 0):
            return None
        return low.median / cur.median

    def speedup_vs_baseline(self, strategy: str, workers: int) -> float | None:
        base = self.cell(self.baseline, workers)
        cur = self.cell(strategy, workers)
        if not (base and cur and base.ok and cur.ok and cur.median > 0):
            return None
        return base.median / cur.median


def sweep(cfg: RunConfig) -> SweepResult:
    """Run the config's matrix: `sweep_strategies` (or the config's own
    strategy) x `sweep_workers`, `sweep_repeats` runs per cell; the first
    strategy is the baseline.  Failures and divergences are recorded, not raised."""
    strategies = cfg.sweep_strategies or (cfg.strategy.literal(),)
    repeats = cfg.sweep_repeats
    cells = []
    eff_rows: list[dict] = []
    reference: RunResult | None = None
    for literal in strategies:
        strategy = parse_strategy_literal(literal)
        strat_base: RunResult | None = None
        for workers in sorted(cfg.sweep_workers):
            cell = SweepCell(strategy=literal, workers=workers)
            cells.append(cell)
            run_cfg = replace(cfg, strategy=strategy, workers=workers)
            for rep in range(repeats):
                try:
                    result = run_simulation(run_cfg)
                except Exception as exc:  # sweep survives partial failures
                    cell.error, cell.raised = f"{type(exc).__name__}: {exc}", exc
                    break
                cell.wall_seconds.append(result.wall_seconds)
                if reference is None:
                    reference, reference_id = result, run_id_for(strategy, workers, rep)
                detail = _first_divergence(reference, result)
                if detail:
                    cell.error = f"differs from {reference_id}: {detail}"
                    break
            if cell.error:
                continue
            cell.checksum = result.checksum
            cell.median = statistics.median(cell.wall_seconds)
            if cell.median > 0 and len(cell.wall_seconds) > 1:
                cell.spread = (max(cell.wall_seconds) - min(cell.wall_seconds)) / cell.median
            # scalability base: the same strategy at its lowest worker count,
            # which scores 1.0 against itself by definition
            if strat_base is None:
                strat_base = result
            eff_rows.extend(efficiency_rows(
                result, run_id_for(strategy, workers, repeats - 1), base=strat_base,
            ))
    return SweepResult(cells=cells, baseline=strategies[0], efficiency_rows=eff_rows)


def write_speedup_tsv(path: str, result: SweepResult) -> None:
    """Plot-ready table: one row per worker count, one column pair per strategy."""
    strategies = list(dict.fromkeys(cell.strategy for cell in result.cells))
    workers = sorted({cell.workers for cell in result.cells})
    with open(path, "w", encoding="utf-8") as fh:
        header = ["workers"]
        for s in strategies:
            header.append(f"{s}:speedup")
            header.append(f"{s}:vs_base")
        fh.write("\t".join(header) + "\n")
        for w in workers:
            row = [str(w)]
            for s in strategies:
                up = result.speedup_vs_lowest_workers(s, w)
                vs = result.speedup_vs_baseline(s, w)
                row.append("" if up is None else f"{up:.4f}")
                row.append("" if vs is None else f"{vs:.4f}")
            fh.write("\t".join(row) + "\n")


# -- cross-strategy equivalence ----------------------------------------------


@dataclass
class EquivalenceReport:
    passed: bool
    detail: str
    checksum_a: str
    checksum_b: str


def _first_divergence(ra: RunResult, rb: RunResult) -> str:
    if ra.final_cell_count != rb.final_cell_count:
        return (f"cell counts differ: {ra.final_cell_count} vs {rb.final_cell_count}")
    ca, cb = ra.container, rb.container
    by_id_a, by_id_b = ca.ids.argsort(kind="stable"), cb.ids.argsort(kind="stable")
    if not np.array_equal(ca.ids[by_id_a], cb.ids[by_id_b]):
        return "cell id sets differ"
    pa, pb = ca.positions[by_id_a], cb.positions[by_id_b]
    va, vb = ca.velocities[by_id_a], cb.velocities[by_id_b]
    moved = (pa != pb).any(axis=1)
    differs = moved | (va != vb).any(axis=1)
    if differs.any():
        k = np.argmax(differs)  # the lowest id that differs
        cid = ca.ids[by_id_a[k]]
        if moved[k]:
            return f"cell {cid} position differs: {pa[k].tolist()} vs {pb[k].tolist()}"
        return f"cell {cid} velocity differs: {va[k].tolist()} vs {vb[k].tolist()}"
    if not np.array_equal(ra.micro.densities, rb.micro.densities):
        idx = np.argwhere(ra.micro.densities != rb.micro.densities)[0]
        return f"density differs first at (substrate, voxel) = {tuple(idx.tolist())}"
    if not np.array_equal(ra.micro.gradients, rb.micro.gradients):
        idx = np.argwhere(ra.micro.gradients != rb.micro.gradients)[0]
        return f"gradient differs first at (substrate, voxel, axis) = {tuple(idx.tolist())}"
    if ra.checksum != rb.checksum:
        return "checksums differ on identical fields (checksum logic error)"
    return ""


def verify_equivalence(cfg_a: RunConfig, cfg_b: RunConfig) -> EquivalenceReport:
    """Run both configs and require bit-identical physical state."""
    norm_a = replace(cfg_a, strategy=StrategyConfig(), workers=1)
    norm_b = replace(cfg_b, strategy=StrategyConfig(), workers=1)
    if norm_a != norm_b:
        raise ConfigError(
            "equivalence check requires configs identical up to strategy/workers"
        )
    ra = run_simulation(cfg_a)
    rb = run_simulation(cfg_b)
    detail = _first_divergence(ra, rb)
    return EquivalenceReport(
        passed=not detail,
        detail=detail or "bit-identical final state",
        checksum_a=ra.checksum,
        checksum_b=rb.checksum,
    )


# -- synthetic uniform-chunk workload ------------------------------------------


def uniform_chunk_benchmark(n_chunks: int, workers: int,
                            chunk_seconds: float = 0.002) -> RegionTiming:
    """Measured load balance of N equal-cost chunks under the static split.

    Chunk cost is a sleep, so chunks overlap on any core count and the
    measurement exercises only the scheduler's split, which is what the
    analytic model predicts.  Chunk k of a worker's range sleeps until
    k * chunk_seconds after the range started, not for chunk_seconds: the
    wake-up overshoot of one sleep shortens the next, so a worker's busy
    time carries one overshoot instead of one per chunk.
    """
    def body(lo, hi, ctx):
        t0 = time.perf_counter()
        for k in range(1, hi - lo + 1):
            time.sleep(max(0.0, t0 + k * chunk_seconds - time.perf_counter()))

    with WorkerPool(workers) as pool:
        record = pool.run_static(n_chunks, body)
    return timing_from_record("uniform_chunks", record)


def ensure_out_dir(path: str) -> str:
    """Create the output directory; a path that cannot be one is a config error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return path
