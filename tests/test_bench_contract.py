"""The benchmark's hooks into the package: wrapped names resolve, layers trace.

`bench/` rebinds module-level names of the package to time each layer.  A
renamed or deleted name, or a layer that stops going through the module
name, would silently drop out of the traced breakdown; these tests fail
instead.  The bench modules are imported from their files, unedited.
"""

import importlib.util
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


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracing.WRAPPED],
                         ids=[f"{m}.{a}" for m, a, _ in tracing.WRAPPED])
def test_every_wrapped_name_resolves(module, attr):
    assert callable(getattr(getattr(cb, module), attr))


def test_traced_run_records_every_layer():
    cfg = cb.RunConfig(
        nx=5, ny=5, nz=5, cell_count=30, steps=2, seed=3,
        seed_box=(10.0, 10.0, 10.0, 90.0, 90.0, 90.0),
        strategy=cb.parse_strategy_literal("inplace/outer/cell_static/sorted(1)"),
    )
    tracer = tracing.Tracer(cb)
    traced = tracer.run(cfg)
    required = set(workloads.ALWAYS_RUN)
    for wl in workloads.WORKLOADS.values():
        required.update(wl.must_run)
    assert required - set(tracer.span_counts()) == set()
    # the wrappers are restored and change nothing
    assert cb.simulate.lod_step is cb.diffusion.lod_step
    assert traced.checksum == cb.run_simulation(cfg).checksum
