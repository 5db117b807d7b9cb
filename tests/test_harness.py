"""Report writers, sweep bookkeeping, and the equivalence verifier."""

import csv
import dataclasses
import hashlib
import os
import time

import numpy as np
import pytest

import cellbench as cb
import cellbench.mechanics
from cellbench import (
    EFFICIENCY_FIELDS,
    REGIONS,
    ConfigError,
    RunConfig,
    StrategyConfig,
    efficiency_rows,
    ensure_out_dir,
    parse_strategy_literal,
    run_id_for,
    run_simulation,
    sweep,
    uniform_chunk_benchmark,
    verify_equivalence,
    write_efficiency_csv,
    write_speedup_tsv,
    write_timings_csv,
)
from cellbench.harness import _first_divergence


def tiny_config(**over):
    base = dict(
        nx=5, ny=5, nz=5, cell_count=30, steps=3, seed=3,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
        sweep_workers=(1, 2), sweep_repeats=2,
    )
    base.update(over)
    return RunConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_id_format():
    assert run_id_for(StrategyConfig(), 4, 1) == "inplace/outer/cell_static/append/w4/r1"


# ---------------------------------------------------------------- timings csv

def test_timings_csv_full_mode_covers_every_cell(tmp_path):
    cfg = tiny_config(workers=2)
    result = run_simulation(cfg)
    path = tmp_path / "timings.csv"
    write_timings_csv(str(path), result, "demo")
    rows = read_csv(path)
    assert len(rows) == 3 * len(REGIONS) * 2  # steps x regions x workers
    seen = {(r["step"], r["region"], r["worker"]) for r in rows}
    assert len(seen) == len(rows)  # no duplicate cells
    assert {r["region"] for r in rows} == set(REGIONS)
    assert all(r["run_id"] == "demo" for r in rows)
    velocity_iters = sum(
        int(r["iterations"]) for r in rows if r["region"] == "velocity"
    )
    assert velocity_iters == 3 * 30


def test_timings_csv_aggregate_and_off_modes(tmp_path):
    result = run_simulation(tiny_config(timings="aggregate"))
    path = tmp_path / "agg.csv"
    write_timings_csv(str(path), result, "demo")
    rows = read_csv(path)
    assert len(rows) == len(REGIONS)  # one worker
    assert {r["step"] for r in rows} == {"all"}

    result = run_simulation(tiny_config(timings="off"))
    off_path = tmp_path / "off.csv"
    write_timings_csv(str(off_path), result, "demo")
    assert not off_path.exists()


# ---------------------------------------------------------------- efficiency

def test_efficiency_rows_schema_and_identity():
    result = run_simulation(tiny_config(workers=2))
    rows = efficiency_rows(result, "rid", base=result)
    regions = [r["region"] for r in rows]
    assert regions.count("all") == 1
    assert "resort" not in regions  # append storage never resorts
    for want in ("solver", "velocity", "integrate", "rebin"):
        assert want in regions
    for row in rows:
        assert list(row) == EFFICIENCY_FIELDS
        lb, comm, pe = (float(row[k]) for k in ("lb", "comm_eff", "par_eff"))
        assert 0.0 < lb <= 1.0
        assert 0.0 < comm <= 1.0
        assert pe == pytest.approx(lb * comm, abs=2e-6)  # 6-decimal rounding
        # base is the run itself, so computation scalability is unity
        assert float(row["comp_scal"]) == pytest.approx(1.0, abs=1e-6)
        assert int(row["alloc_events"]) == 0  # in-place default


def region_timings(result):
    """The metric inputs of each region with busy time, and their aggregate."""
    timings = {region: cb.timing_from_record(region, result.region_totals(region))
               for region in REGIONS}
    timings = {region: t for region, t in timings.items() if max(t.busy) > 0.0}
    timings["all"] = cb.aggregate_timings(list(timings.values()))
    return timings


def test_efficiency_rows_carry_the_hierarchy():
    base = run_simulation(tiny_config(workers=1))
    result = run_simulation(tiny_config(workers=2))
    base_t, cur_t = region_timings(base), region_timings(result)
    rows = efficiency_rows(result, "rid", base=base)
    assert [row["region"] for row in rows] == list(cur_t)
    for row in rows:
        t = cur_t[row["region"]]
        lb, comm = cb.load_balance(t), cb.communication_efficiency(t)
        assert row["workers"] == 2
        assert row["lb"] == f"{lb:.6f}"
        assert row["comm_eff"] == f"{comm:.6f}"
        assert row["par_eff"] == f"{lb * comm:.6f}"
        comp = cb.computation_scalability(base_t[row["region"]], t)
        assert row["comp_scal"] == f"{comp:.6f}"
        assert row["mean_busy_s"] == f"{t.total_busy / t.workers:.9f}"
    for row in efficiency_rows(result, "rid"):
        assert row["comp_scal"] == ""  # no base run, no scalability


def test_efficiency_csv_roundtrip(tmp_path):
    result = run_simulation(tiny_config())
    rows = efficiency_rows(result, "rid")
    path = tmp_path / "eff.csv"
    write_efficiency_csv(str(path), rows)
    back = read_csv(path)
    assert len(back) == len(rows)
    assert list(back[0]) == EFFICIENCY_FIELDS


# ---------------------------------------------------------------- sweep

def test_sweep_matrix_and_speedups(tmp_path):
    literals = ["inplace/outer/cell_static/append",
                "temp/collapsed/nonempty_voxel(8)/sorted(2)"]
    result = sweep(tiny_config(sweep_strategies=tuple(literals)))
    assert len(result.cells) == 4
    assert all(c.ok for c in result.cells)
    # one checksum across strategies and worker counts
    assert len({c.checksum for c in result.cells}) == 1
    assert all(len(c.wall_seconds) == 2 for c in result.cells)
    assert all(c.spread >= 0.0 for c in result.cells)
    assert result.baseline == literals[0]

    up = result.speedup_vs_lowest_workers(literals[0], 2)
    vs = result.speedup_vs_baseline(literals[1], 2)
    assert up is not None and up > 0.0
    assert vs is not None and vs > 0.0

    path = tmp_path / "speedup.tsv"
    write_speedup_tsv(str(path), result)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split("\t") == [
        "workers",
        f"{literals[0]}:speedup", f"{literals[0]}:vs_base",
        f"{literals[1]}:speedup", f"{literals[1]}:vs_base",
    ]
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["1", "2"]


def test_speedup_base_is_the_lowest_swept_worker_count(tmp_path):
    literal = "inplace/outer/cell_static/append"
    result = sweep(tiny_config(steps=1, sweep_strategies=(literal,),
                               sweep_workers=(2, 3), sweep_repeats=1))
    assert result.speedup_vs_lowest_workers(literal, 2) == 1.0
    assert result.speedup_vs_lowest_workers(literal, 3) > 0.0
    path = tmp_path / "speedup.tsv"
    write_speedup_tsv(str(path), result)
    rows = [ln.split("\t")[:2] for ln in path.read_text().strip().splitlines()[1:]]
    assert rows[0] == ["2", "1.0000"]
    assert rows[1][0] == "3" and rows[1][1] != ""


def test_sweep_records_failures_instead_of_raising():
    cfg = tiny_config(cell_radius=9.0,  # breaks the binning guard
                      sweep_strategies=("inplace/outer/cell_static/append",),
                      sweep_workers=(1,), sweep_repeats=1)
    result = sweep(cfg)
    cell = result.cells[0]
    assert not cell.ok
    assert "DomainError" in cell.error
    assert isinstance(cell.raised, cb.DomainError)
    assert result.efficiency_rows == []


def test_sweep_fails_every_run_that_differs_from_the_first(temp_add_drifts):
    literals = ("inplace/outer/cell_static/append", "temp/outer/cell_static/append",
                "inplace/collapsed/voxel(8)/sorted(2)", "temp/collapsed/voxel(8)/sorted(2)")
    result = sweep(tiny_config(sweep_strategies=literals))
    reference = run_simulation(tiny_config())
    failed = [(c.strategy, c.workers) for c in result.cells if not c.ok]
    assert failed == [(s, w) for s in literals if s.startswith("temp/") for w in (1, 2)]
    for strategy, workers in failed:
        cell = result.cell(strategy, workers)
        run = run_simulation(tiny_config(strategy=parse_strategy_literal(strategy),
                                         workers=workers))
        detail = _first_divergence(reference, run)
        assert detail
        assert cell.error == f"differs from {literals[0]}/w1/r0: {detail}"
        assert cell.raised is None
        assert result.speedup_vs_lowest_workers(strategy, workers) is None
        assert result.speedup_vs_baseline(strategy, workers) is None
    assert {c.checksum for c in result.cells if c.ok} == {reference.checksum}
    assert result.speedup_vs_baseline(literals[2], 2) is not None
    rows = {row["run_id"].rsplit("/w", 1)[0] for row in result.efficiency_rows}
    assert rows == {literals[0], literals[2]}


# ---------------------------------------------------------------- equivalence

def test_verify_equivalence_across_strategies():
    cfg_a = tiny_config()
    cfg_b = tiny_config(
        workers=3,
        strategy=parse_strategy_literal("temp/collapsed/voxel(8)/sorted(2)"),
    )
    report = verify_equivalence(cfg_a, cfg_b)
    assert report.passed, report.detail
    assert report.checksum_a == report.checksum_b
    assert report.detail == "bit-identical final state"


def test_verify_rejects_physically_different_configs():
    with pytest.raises(ConfigError):
        verify_equivalence(tiny_config(steps=3), tiny_config(steps=4))


def test_divergence_locator_names_the_first_difference():
    cfg = tiny_config(steps=2)
    ra = run_simulation(cfg)
    rb = run_simulation(cfg)
    assert _first_divergence(ra, rb) == ""

    rb.container.cells[5].velocity[2] += 1e-12
    assert "velocity differs" in _first_divergence(ra, rb)

    rb = run_simulation(cfg)
    rb.micro.densities[0, 17] *= 1.0 + 1e-15
    assert _first_divergence(ra, rb).endswith("(substrate, voxel) = (0, 17)")

    # the gradients are indexed (substrate, voxel, axis), whatever their storage
    rb = run_simulation(cfg)
    rb.micro.gradients[0, 17, 2] += 1.0
    rb.micro.gradients[0, 18, 0] += 1.0
    assert _first_divergence(ra, rb).endswith("(substrate, voxel, axis) = (0, 17, 2)")

    rb = run_simulation(cfg)
    rb.container.take(np.arange(len(rb.container) - 1))
    rb.final_cell_count -= 1
    assert "cell counts differ" in _first_divergence(ra, rb)


def test_broken_accumulation_order_is_caught(monkeypatch):
    # negative control: the one sort that orders the pair lists puts each
    # cell's partners in descending id in run B only; the float sums
    # reorder, so the verifier must flag the divergence
    cfg = tiny_config(steps=2)
    ra = run_simulation(cfg)
    sort_keys, minor = cellbench.mechanics._sort_keys, cellbench.mechanics._MASK

    def descending_partners(keys):
        keys ^= minor  # reverses the order of the minor halves; the second ^ restores them
        sort_keys(keys)
        keys ^= minor
        return keys

    monkeypatch.setattr(cellbench.mechanics, "_sort_keys", descending_partners)
    rb = run_simulation(cfg)
    detail = _first_divergence(ra, rb)
    assert detail != ""
    assert ra.checksum != rb.checksum


# ---------------------------------------------------------------- misc

def test_uniform_chunk_benchmark_measures_the_split():
    timing = uniform_chunk_benchmark(6, 2, chunk_seconds=0.002)
    assert timing.workers == 2
    # each worker sleeps to 3 absolute deadlines, 2 ms apart
    assert min(timing.busy) >= 3 * 0.002
    assert 0.5 < cb.load_balance(timing) <= 1.0


def test_ensure_out_dir(tmp_path):
    target = tmp_path / "a" / "b"
    assert ensure_out_dir(str(target)) == str(target)
    assert os.path.isdir(target)


# ---------------------------------------------------------------- accounting pin

class TickClock:
    """Deterministic stand-in for time.perf_counter: each call advances one
    dyadic tick, so every sum of durations is exact in any order."""

    def __init__(self):
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        return self.ticks / 1024.0


ACCOUNTING_RUNS = {
    "cell_static": dict(),
    "cell_dynamic": dict(strategy=parse_strategy_literal(
        "temp/outer/cell_dynamic(4)/append")),
    "voxel": dict(strategy=parse_strategy_literal(
        "inplace/collapsed/voxel(8)/append")),
    "nonempty_voxel": dict(strategy=parse_strategy_literal(
        "temp/outer/nonempty_voxel(4)/append")),
    "divide_sorted": dict(division_rate=0.4, steps=4, strategy=parse_strategy_literal(
        "temp/collapsed/cell_static/sorted(2)")),
    "no_cells": dict(cell_count=0),
}

#: sha256 prefixes of the report files of each run under TickClock.
ACCOUNTING_DIGESTS = {
    "cell_static": {
        "timings_full": "515705d8d6306882",
        "timings_aggregate": "1507447ea99ebf9c",
        "efficiency": "808dca303ea8219b",
        "efficiency_base": "c1e1456d5840d991",
    },
    "cell_dynamic": {
        "timings_full": "f351de0fdd2022bb",
        "timings_aggregate": "3eb3ffec1e329504",
        "efficiency": "2583bf9782d78944",
        "efficiency_base": "5ad70ae12c1ba600",
    },
    "voxel": {
        "timings_full": "bd115552f45aa023",
        "timings_aggregate": "87d6fa4aec6bc966",
        "efficiency": "d2475f34a6f47f41",
        "efficiency_base": "7768ca99be5b348b",
    },
    "nonempty_voxel": {
        "timings_full": "a231086634ed7433",
        "timings_aggregate": "c5b4954c30c80595",
        "efficiency": "767cf9a183c1a022",
        "efficiency_base": "71adae66851f19b9",
    },
    "divide_sorted": {
        "timings_full": "0b2d87098ad0571b",
        "timings_aggregate": "278e75e0a4bd8a6a",
        "efficiency": "29a91ad22d0526ec",
        "efficiency_base": "7f35bfff18711836",
    },
    "no_cells": {
        "timings_full": "bb30d202c31e174b",
        "timings_aggregate": "1f02321f2cffe60f",
        "efficiency": "d57fdd21ae147705",
        "efficiency_base": "72108d2aaf9f23cd",
    },
}


def _report_digests(tmp_path, result, base):
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]

    out = {}
    for mode in ("full", "aggregate"):
        view = dataclasses.replace(
            result, config=dataclasses.replace(result.config, timings=mode))
        path = tmp_path / f"timings-{mode}.csv"
        write_timings_csv(str(path), view, "pin")
        out[f"timings_{mode}"] = digest(path)
    for name, against in (("efficiency", None), ("efficiency_base", base)):
        path = tmp_path / f"{name}.csv"
        write_efficiency_csv(str(path), efficiency_rows(result, "pin", base=against))
        out[name] = digest(path)
    return out


@pytest.mark.parametrize("name", list(ACCOUNTING_RUNS))
def test_report_files_are_pinned_under_a_deterministic_clock(tmp_path, monkeypatch, name):
    # one worker only: with more, which thread reads the shared clock next
    # depends on which claims the next chunk
    monkeypatch.setattr(time, "perf_counter", TickClock())
    base = run_simulation(tiny_config(timings="full"))
    result = run_simulation(tiny_config(timings="full", **ACCOUNTING_RUNS[name]))
    assert _report_digests(tmp_path, result, base) == ACCOUNTING_DIGESTS[name]
