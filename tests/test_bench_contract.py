"""The benchmark's hooks into the package: wrapped names resolve, layers trace.

`bench/` rebinds module-level names of the package to time each layer.  A
renamed or deleted name, or a layer that stops going through the module
name, would silently drop out of the traced breakdown; these tests fail
instead.  `bench/run.py` also reads fields of a run's result (the
step records, the pool records, the report writers); a change to those
types fails here rather than in the benchmark pipeline.  The gated
workloads must reproduce their pinned golden values, so a change that shifts
every strategy alike fails here too.  The bench modules are imported from
their files, unedited.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import pytest

import cellbench as cb

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")
sys.path.insert(0, str(BENCH))  # run.py imports its siblings by name
bench_run = load_bench_module("run")


def two_step_config():
    return cb.RunConfig(
        nx=5, ny=5, nz=5, cell_count=30, steps=2, seed=3,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
        strategy=cb.parse_strategy_literal("inplace/outer/cell_static/sorted(1)"),
    )


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in tracing.WRAPPED])
def test_every_wrapped_name_resolves(module, attr):
    assert callable(getattr(getattr(cb, module), attr))


def test_traced_run_records_every_layer():
    cfg = two_step_config()
    tracer = tracing.Tracer(cb)
    traced = tracer.run(cfg)
    required = set(workloads.ALWAYS_RUN)
    for wl in workloads.WORKLOADS.values():
        required.update(wl.must_run)
    assert required - set(tracer.span_counts()) == set()
    # the wrappers are restored and change nothing
    assert cb.simulate.lod_step is cb.diffusion.lod_step
    assert traced.checksum == cb.run_simulation(cfg).checksum


@pytest.mark.parametrize("name", ["mesh", "growth"])
def test_workload_reproduces_its_golden_values(name):
    wl = workloads.WORKLOADS[name]
    result = cb.run_simulation(wl.config(cb, wl.run_seed(cb, wl.default_seed)))
    assert result.checksum == wl.golden_checksum
    assert result.final_cell_count == wl.golden_cells


def kernel_pair_counts(container, params):
    """(candidate, interacting) pairs of one velocity call, counted by the kernel."""
    kernel = cb.mechanics.PairKernel(container, params)
    lower, higher = kernel.lists.build_forward(container)
    interacting, _, _ = kernel.contributions(lower, higher, cb.InPlaceVectorOps(None))
    # the kernel lists each unordered pair once; the velocity call uses both directions
    return 2 * len(lower), 2 * len(interacting)


def test_pair_counter_agrees_with_the_kernel():
    # the pair counts bench reports come from `container.cells`: their
    # positions, radii and voxels must still describe what the kernel sees
    cfg = two_step_config()
    final = cb.run_simulation(cfg).container
    dense = cb.CellContainer(cb.CartesianMesh(6, 6, 6))
    dense.add_cells([(10.0 + 100.0 * u1, 10.0 + 100.0 * u2, 10.0 + 100.0 * u3)
                     for u1, u2, u3 in (cb.division_draws(11, i, 0) for i in range(300))])
    cb.rebin_cells(dense)
    for container in (final, dense):
        counter = tracing.PairCounter(cb)
        counter(container, container.mesh, cfg.interaction_params())
        expected = kernel_pair_counts(container, cfg.interaction_params())
        assert (counter.candidates, counter.interacting) == expected
        assert counter.interacting > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_run_reads_finite_numbers_from_a_run(tmp_path, workers):
    cfg = dataclasses.replace(two_step_config(), workers=workers)
    ledger = bench_run.Ledger()
    sample = bench_run.untraced_run(cb, cfg, ledger, None)
    assert ledger.problems == []
    assert len(sample["step_s"]) == cfg.steps
    tracer = bench_run.Tracer(cb)
    result = tracer.run(cfg)
    traced = bench_run.traced_sample(cb, tracer, cfg, result)
    report = bench_run.report_seconds(cb, cfg, result, tmp_path)
    numbers = [sample["wall_s"], sample["cpu_s"], sample["loop_overhead_s"],
               *sample["step_s"], *traced["times"].values(),
               *traced["counts"].values(), report]
    assert all(math.isfinite(x) for x in numbers)
    assert traced["counts"]["parallel.claims"] > 0
    assert (tmp_path / "timings.csv").exists() and (tmp_path / "efficiency.csv").exists()
