"""Step-loop orchestration: reproducibility, region records, and checksums."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellbench as cb
from cellbench import (
    REGIONS,
    RunConfig,
    parse_strategy_literal,
    run_simulation,
    seed_cells,
    state_checksum,
)

from conftest import run_python, total_iterations


def tiny_config(**over):
    base = dict(
        nx=5, ny=5, nz=5, cell_count=30, steps=4, seed=3,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
        sweep_workers=(1, 2), sweep_repeats=2,
    )
    base.update(over)
    return RunConfig(**base)


def test_zero_step_run_returns_the_seeded_state():
    cfg = tiny_config(steps=0)
    result = run_simulation(cfg)
    assert result.step_records == []
    assert result.final_cell_count == 30

    container = cb.CellContainer(cfg.mesh())
    seed_cells(container, cfg)
    assert result.checksum == state_checksum(container)


def test_runs_are_reproducible():
    cfg = tiny_config()
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.checksum == b.checksum
    assert run_simulation(tiny_config(seed=4)).checksum != a.checksum


schedules = st.one_of(
    st.just("cell_static"),
    st.builds("{}({})".format,
              st.sampled_from(["cell_dynamic", "voxel", "nonempty_voxel"]),
              st.integers(1, 8)),
)
storages = st.one_of(st.just("append"), st.integers(1, 5).map("sorted({})".format))
literals = st.builds("{}/{}/{}/{}".format, st.sampled_from(["temp", "inplace"]),
                     st.sampled_from(["outer", "collapsed"]), schedules, storages)


@settings(max_examples=300)
@given(shape=st.tuples(*[st.integers(1, 5)] * 3), cells=st.integers(0, 40),
       rate=st.floats(0.0, 0.3), steps=st.integers(1, 5), seed=st.integers(0, 99),
       literal=literals, workers=st.sampled_from([1, 2, 3]))
def test_any_strategy_and_worker_count_reproduce_the_default_checksum(
        shape, cells, rate, steps, seed, literal, workers):
    nx, ny, nz = shape
    base = RunConfig(nx=nx, ny=ny, nz=nz, cell_count=cells, division_rate=rate,
                     steps=steps, seed=seed)
    drawn = dataclasses.replace(base, strategy=parse_strategy_literal(literal),
                                workers=workers)
    assert run_simulation(drawn).checksum == run_simulation(base).checksum


def test_checksum_ignores_storage_order_but_not_state():
    result = run_simulation(tiny_config(steps=2))
    ref = state_checksum(result.container)
    result.container.take(np.arange(len(result.container))[::-1])
    assert state_checksum(result.container) == ref
    result.container.cells[0].velocity[1] += 1e-9
    assert state_checksum(result.container) != ref


def test_a_one_worker_run_loads_neither_openssl_nor_an_executor():
    # `state_checksum` takes blake2b from `_blake2`: `hashlib` would also
    # load `_hashlib` and map OpenSSL's libcrypto.  Only a pool of more than
    # one worker imports `concurrent.futures`, which loads `logging`.  The
    # run is in a fresh interpreter, since pytest may import either itself.
    code = ("import sys, cellbench as cb\n"
            "print(cb.run_simulation(cb.RunConfig(steps=2, cell_count=20)).checksum)\n"
            "print('_hashlib' in sys.modules, 'concurrent.futures' in sys.modules)\n")
    proc = run_python(code)
    assert proc.returncode == 0, proc.stderr
    checksum, *loaded = proc.stdout.split()
    assert len(checksum) == 32
    assert loaded == ["False", "False"]


def test_worker_count_does_not_change_the_checksum():
    checks = {w: run_simulation(tiny_config(workers=w)).checksum
              for w in (1, 3)}
    assert checks[1] == checks[3]


def test_every_region_is_recorded_every_step():
    result = run_simulation(tiny_config())
    assert len(result.step_records) == 4
    for records in result.step_records:
        assert set(records) == set(REGIONS)
        # inactive regions still report, as zeros
        assert total_iterations(records["divide"]) == 0
        assert records["resort"].elapsed == 0.0
        assert total_iterations(records["velocity"]) == 30
        assert total_iterations(records["rebin"]) == 30


def test_division_growth_is_accounted():
    cfg = tiny_config(division_rate=0.4, steps=6, cell_cap=5000)
    result = run_simulation(cfg)
    assert result.final_cell_count > 30
    assert result.final_cell_count == len(result.container.cells)
    divided = sum(total_iterations(records["divide"])
                  for records in result.step_records)
    assert divided == result.final_cell_count - 30


def traced_peak(call) -> int:
    """tracemalloc peak of one call, after a first call that warms up caches."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", ["inplace/outer/cell_static/append",
                                      "temp/collapsed/voxel(64)/sorted(3)"])
def test_velocity_memory_scales_with_cells_not_voxels(strategy):
    # 64^3 = 262,144 voxels and six cells: on top of what the dispatch itself
    # keeps (the voxel schedule logs one claim per chunk of voxels), one
    # velocity call may allocate what the cells need, not a byte per voxel
    strat = cb.parse_strategy_literal(strategy)
    cfg = RunConfig(nx=64, ny=64, nz=64, cell_count=6, seed=3,
                    seed_box=(20.0, 20.0, 20.0, 100.0, 100.0, 100.0), strategy=strat)
    mesh = cfg.mesh()
    cont = cb.CellContainer(mesh)
    seed_cells(cont, cfg)
    schedule = strat.schedule
    with cb.WorkerPool(1) as pool:
        def velocity():
            cb.update_velocities(cont, mesh, cfg.interaction_params(), schedule, pool,
                                 strat.allocation)

        def same_chunks_doing_nothing():
            if schedule.kind is cb.ScheduleKind.VOXEL:
                pool.run_dynamic(mesh.voxel_count, schedule.grain, lambda lo, hi, ctx: None)
            else:
                pool.run_static(len(cont), lambda lo, hi, ctx: None)

        extra = traced_peak(velocity) - traced_peak(same_chunks_doing_nothing)
    assert extra < mesh.voxel_count // 8


def test_substeps_multiply_solver_dispatches():
    cfg = tiny_config(dt_mechanics=0.2, dt_diffusion=0.1, steps=1)
    assert cfg.substeps == 2
    result = run_simulation(cfg)
    records = result.step_records[0]
    # outer traversal on a 5^3 mesh: 5 + 5 + 5 slabs per sweep pass
    assert records["solver"].total_claims == 2 * 15
    assert records["gradients"].total_claims == 5  # once per step


def test_resort_cadence_follows_the_period():
    cfg = tiny_config(
        steps=5,
        strategy=cb.parse_strategy_literal("inplace/outer/cell_static/sorted(2)"),
    )
    result = run_simulation(cfg)
    active = [i for i, records in enumerate(result.step_records)
              if total_iterations(records["resort"]) > 0]
    assert active == [1, 3]


def test_region_totals_accumulate_across_steps():
    result = run_simulation(tiny_config())
    total = result.region_totals("velocity")
    assert total_iterations(total) == 4 * 30
    assert total.elapsed >= max(w.busy for w in total.workers)


def test_binning_guard_blocks_oversized_cells():
    with pytest.raises(cb.DomainError):
        run_simulation(tiny_config(cell_radius=9.0))  # reach 22.5 > 20 um edge


def test_capacity_cap_aborts_the_run():
    cfg = tiny_config(division_rate=3.0, steps=10, cell_cap=40)
    with pytest.raises(cb.CapacityError):
        run_simulation(cfg)
