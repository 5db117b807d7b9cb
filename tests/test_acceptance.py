"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Each test prints a `criterion N: PASS` line with the measured numbers (visible
under `pytest -s`); the per-test PASSED/FAILED verdict in `pytest -v` output is
the authoritative pass/fail line.  Criterion 7 is hardware-gated and skips on
boxes with fewer than four cores.
"""

import itertools
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import cellbench as cb
from cellbench import (
    AllocationMode,
    InteractionParams,
    MechanicsSchedule,
    RegionTiming,
    RunConfig,
    ScheduleKind,
    TraversalMode,
    WorkerPool,
    WorkerStats,
    chunk_lb_model,
    communication_efficiency,
    load_balance,
    lod_step,
    parallel_efficiency,
    parse_strategy_literal,
    run_simulation,
    uniform_chunk_benchmark,
    update_velocities,
    vector_ops,
)

from conftest import make_container
from test_diffusion import line_solve_worst_error


# --------------------------------------------------------------- criterion 1

def test_criterion_1_allocation_accounting():
    """Temp-mode bound scaled-displacement expression: exactly 4 events; in-place region: 0."""
    t0 = time.perf_counter()

    # v = 0.25 * (b - a), bound as the velocity program binds a sum of
    # scaled displacements: the displacement, the product, acc = acc + term
    # and v = acc, one event each
    counter = WorkerStats()
    ops = vector_ops(AllocationMode.TEMPORARY_ALLOCATING, counter)
    v = np.zeros((1, 3))
    ops.add_at(v, np.zeros(1, np.intp),
               ops.scale(0.25, ops.sub([5.0, 7.0, 9.0], [1.0, 2.0, 3.0]))[None])
    expr_events = counter.alloc_events
    assert expr_events == 4
    assert v.tolist() == [[1.0, 1.25, 1.5]]

    mesh = cb.CartesianMesh(4, 4, 4)
    positions = []
    for i in range(80):
        u1, u2, u3 = cb.division_draws(17, i, 0)
        positions.append((10.0 + 60.0 * u1, 10.0 + 60.0 * u2, 10.0 + 60.0 * u3))
    region_events = {}
    for mode in AllocationMode:
        cont = make_container(mesh, positions, radius=8.0)
        with WorkerPool(2) as pool:
            record = update_velocities(cont, mesh, InteractionParams(),
                                       MechanicsSchedule(ScheduleKind.CELL_STATIC), pool,
                                       alloc_mode=mode)
        region_events[mode] = record.total_alloc_events
        assert any(v != [0.0, 0.0, 0.0] for v in cont.velocities.tolist())
    assert region_events[AllocationMode.IN_PLACE] == 0
    assert region_events[AllocationMode.TEMPORARY_ALLOCATING] > 0

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"criterion 1: PASS - expression events={expr_events}, in-place "
          f"velocity events=0 (temp={region_events[AllocationMode.TEMPORARY_ALLOCATING]}), "
          f"{dt:.2f}s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_chunk_model_and_measurement():
    """Frozen model values to 1e-12; measured synthetic LB within 0.03."""
    t0 = time.perf_counter()

    assert chunk_lb_model(75, 48) == pytest.approx(0.78125, abs=1e-12)
    assert chunk_lb_model(5625, 48) == pytest.approx(5625.0 / 5664.0, abs=1e-12)

    diffs = {}
    for workers in (4, 8):
        timing = uniform_chunk_benchmark(75, workers, chunk_seconds=0.002)
        measured = load_balance(timing)
        model = chunk_lb_model(75, workers)
        diffs[workers] = abs(measured - model)
        assert diffs[workers] <= 0.03, (workers, measured, model)

    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 2: PASS - model(75,48)=0.78125, "
          f"model(5625,48)={5625.0 / 5664.0:.6f}, measured-model "
          f"|diff| w4={diffs[4]:.4f} w8={diffs[8]:.4f}, {dt:.2f}s")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_efficiency_identities():
    """PE factorizes exactly, on the reference trace and on measured regions."""
    ref = RegionTiming("solver", busy=(10.0, 10.0, 20.0), elapsed=25.0)
    lb = load_balance(ref)
    comm = communication_efficiency(ref)
    pe = parallel_efficiency(ref)
    assert lb == pytest.approx(0.6667, abs=5e-5)
    assert comm == pytest.approx(0.8, abs=5e-5)
    assert pe == pytest.approx(0.5333, abs=5e-5)
    assert pe == lb * comm  # identical floats, not approximately

    # measured traces from a real run factorize the same way
    result = run_simulation(RunConfig(
        nx=5, ny=5, nz=5, cell_count=30, steps=2, seed=3, workers=2,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
    ))
    checked = 0
    for region in cb.REGIONS:
        t = cb.timing_from_record(region, result.region_totals(region))
        if max(t.busy) == 0.0:
            continue
        assert parallel_efficiency(t) == load_balance(t) * communication_efficiency(t)
        checked += 1
    assert checked >= 5
    print(f"criterion 3: PASS - LB={lb:.4f} CommE={comm:.4f} PE={pe:.4f}, "
          f"{checked} measured regions factor exactly")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_numerical_oracles(pool2):
    """Dense-solve oracle 1e-12; mass 1e-10/100 steps; decay 1e-14; exact gradients."""
    worst = line_solve_worst_error(np.random.default_rng(42))
    assert worst <= 1e-12

    mesh = cb.CartesianMesh(8, 8, 8)
    micro = cb.Microenvironment(mesh, [100000.0], [0.0])
    micro.densities[0] = np.random.default_rng(5).uniform(0.0, 50.0, 512)
    mass0 = micro.densities[0].sum()
    for _ in range(100):
        lod_step(micro, mesh, 0.1, TraversalMode.OUTER_LOOP, pool2)
    mass_drift = abs(micro.densities[0].sum() - mass0) / mass0
    assert mass_drift <= 1e-10

    micro = cb.Microenvironment(mesh, [0.0], [1.3], [38.0])
    dt, steps = 0.1, 20
    for _ in range(steps):
        lod_step(micro, mesh, dt, TraversalMode.COLLAPSED, pool2)
    expected = 38.0 / (1.0 + dt * 1.3 / 3.0) ** (3 * steps)
    decay_err = float(np.max(np.abs(micro.densities[0] - expected) / expected))
    assert decay_err <= 1e-14

    micro = cb.Microenvironment(mesh, [100.0], [0.0])
    grid = micro.grid_view(0)
    for ix in range(8):
        grid[:, :, ix] = 3.0 * (10.0 + 20.0 * ix)  # rho = 3x, exact floats
    cb.compute_gradients(micro, mesh, TraversalMode.OUTER_LOOP, pool2)
    gx = micro.gradients[0].reshape(8, 8, 8, 3)[..., 0]
    assert np.all(gx[:, :, 1:-1] == 3.0)
    assert np.all(gx[:, :, 0] == 0.0) and np.all(gx[:, :, -1] == 0.0)

    print(f"criterion 4: PASS - oracle worst rel={worst:.2e}, mass "
          f"drift={mass_drift:.2e}/100 steps, decay err={decay_err:.2e}, "
          f"linear-field gradient exact")


# --------------------------------------------------------------- criterion 5

#: The checksum every combination must reproduce: the benchmark's `crowded`
#: workload at its default seed 11.
CRIT5_GOLDEN = "33a3c906a3b45fe49cd3c9d4ab25909f"


def test_criterion_5_strategy_determinism_matrix():
    """All 128 strategy/worker combos produce one bit-identical checksum."""
    t0 = time.perf_counter()
    base = RunConfig(
        cell_count=500, steps=200, seed=11,
        seed_box=(20.0, 20.0, 20.0, 300.0, 300.0, 300.0),
    )
    combos = list(itertools.product(
        ("temp", "inplace"),
        ("outer", "collapsed"),
        ("cell_static", "cell_dynamic(16)", "voxel(16)", "nonempty_voxel(16)"),
        ("append", "sorted(50)"),
        (1, 2, 4, 8),
    ))
    assert len(combos) == 128
    checksums = {}
    for alloc, trav, sched, storage, workers in combos:
        literal = f"{alloc}/{trav}/{sched}/{storage}"
        cfg = replace(base, strategy=parse_strategy_literal(literal),
                      workers=workers)
        checksums[(literal, workers)] = run_simulation(cfg).checksum
    unique = set(checksums.values())
    dt = time.perf_counter() - t0
    assert len(unique) == 1, f"{len(unique)} distinct checksums: {unique}"
    # pinned, so a change that shifts every combination alike fails too
    assert unique == {CRIT5_GOLDEN}
    assert dt < 600.0
    print(f"criterion 5: PASS - 128/128 combos checksum "
          f"{next(iter(unique))[:16]}..., {dt:.1f}s")


# --------------------------------------------------------------- criterion 6

CRIT6 = dict(
    nx=10, ny=10, nz=10, cell_count=60, steps=100, seed=5,
    division_rate=0.13,
    seed_box=(20.0, 20.0, 20.0, 180.0, 180.0, 180.0),
)
CRIT6_GOLDEN = "da3d741ab6b31cb4e6efa5f8034952bf"
CRIT6_GOLDEN_CELLS = 238
#: locality_metric of the two final states (append, sorted(50)), pinned: a
#: change to the pair walk or to the order of the mean's sum moves them
CRIT6_LOCALITY = (80.69868240962666, 11.78113058853403)


def test_criterion_6_growth_and_locality():
    """Population triples; appended storage scatters; daughters append at the end."""
    append_cfg = RunConfig(**CRIT6)
    sorted_cfg = RunConfig(**CRIT6, strategy=parse_strategy_literal(
        "inplace/outer/cell_static/sorted(50)"))

    ra = run_simulation(append_cfg)
    rb = run_simulation(sorted_cfg)
    assert ra.final_cell_count >= 3 * 60
    assert ra.checksum == rb.checksum  # same physical trajectory
    assert (ra.checksum, ra.final_cell_count) == (CRIT6_GOLDEN, CRIT6_GOLDEN_CELLS)

    l_append = cb.locality_metric(ra.container, append_cfg.interaction_params())
    l_sorted = cb.locality_metric(rb.container, sorted_cfg.interaction_params())
    assert l_append > l_sorted
    assert (l_append, l_sorted) == CRIT6_LOCALITY

    # daughters always land at the top of storage before any resort: replay
    # the division sequence (draws depend on ids and steps, not positions)
    mesh = append_cfg.mesh()
    cont = cb.CellContainer(mesh)
    cb.seed_cells(cont, append_cfg)
    total_daughters = 0
    for step in range(append_cfg.steps):
        n_before = len(cont)
        daughters = cb.attempt_divisions(cont, append_cfg.seed,
                                         append_cfg.dt_mechanics, mesh, step)
        assert cont.ids[n_before:].tolist() == list(daughters)
        total_daughters += len(daughters)
    assert total_daughters == ra.final_cell_count - 60

    print(f"criterion 6: PASS - cells 60->{ra.final_cell_count}, "
          f"L(append)={l_append:.2f} > L(sorted50)={l_sorted:.2f}, "
          f"{total_daughters} daughters all appended at the top")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_performance_expectations():
    """Soft, hardware-gated: report wall-time and LB orderings, never hard-fail."""
    cores = os.cpu_count() or 1
    if cores < 4:
        print(f"criterion 7: SKIP - needs >= 4 cores, found {cores}")
        pytest.skip(f"needs >= 4 cores for meaningful timing, found {cores}")

    workers = min(8, cores)
    base = RunConfig(cell_count=500, steps=20, seed=11, workers=workers,
                     seed_box=(20.0, 20.0, 20.0, 300.0, 300.0, 300.0))
    walls = {}
    for alloc in ("temp", "inplace"):
        cfg = replace(base, strategy=parse_strategy_literal(
            f"{alloc}/outer/cell_static/append"))
        result = run_simulation(cfg)
        walls[alloc] = result.region_totals("velocity").elapsed
    verdict_alloc = "confirmed" if walls["inplace"] <= walls["temp"] else "NOT confirmed"

    mesh = cb.CartesianMesh(75, 75, 75)
    lbs = {}
    if 75 % workers == 0:
        verdict_lb = f"not applicable (workers {workers} divides 75)"
    else:
        for mode in TraversalMode:
            micro = cb.Microenvironment(mesh, [100000.0], [0.1], [38.0])
            with WorkerPool(workers) as pool:
                records = lod_step(micro, mesh, 0.1, mode, pool)
            lbs[mode] = min(
                load_balance(cb.timing_from_record("sweep", r)) for r in records
            )
        ok = lbs[TraversalMode.COLLAPSED] >= lbs[TraversalMode.OUTER_LOOP]
        verdict_lb = (
            f"collapsed LB {lbs[TraversalMode.COLLAPSED]:.3f} vs outer "
            f"{lbs[TraversalMode.OUTER_LOOP]:.3f}: "
            + ("confirmed" if ok else "NOT confirmed")
        )

    # reported, deliberately not asserted: scheduling noise must not fail CI
    print(f"criterion 7: REPORT - in-place {walls['inplace']:.2f}s vs temp "
          f"{walls['temp']:.2f}s ({verdict_alloc}); {verdict_lb}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_reproducibility_and_spread():
    """Identical configs reproduce checksums; spread reported with 5% flag."""
    cfg = RunConfig(
        nx=5, ny=5, nz=5, cell_count=30, steps=3, seed=3,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
        sweep_strategies=("inplace/outer/cell_static/append",),
        sweep_workers=(1, 2, 4), sweep_repeats=3,
    )
    result = cb.sweep(cfg)
    assert all(c.ok for c in result.cells), [c.error for c in result.cells]
    unique = {c.checksum for c in result.cells}
    assert len(unique) == 1  # repeats AND worker counts agree

    lines = []
    for c in result.cells:
        flag = " FLAGGED(>5%)" if c.spread > cb.harness.SPREAD_WARN else ""
        lines.append(f"w{c.workers} spread={c.spread:.1%}{flag}")
    print(f"criterion 8: PASS - one checksum over 9 runs; " + "; ".join(lines))
