"""Shared fixtures and hypothesis settings for the test suite."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

import cellbench as cb

# Property tests spawn worker pools and solve small systems; wall time per
# example is noisy under load, so the deadline is disabled globally.  The
# explain phase line-traces every shrunk example, which makes a failing
# property test over the velocity kernel run for minutes and hundreds of
# MiB before it reports, so it is left out.
settings.register_profile(
    "cellbench",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[p for p in Phase if p is not Phase.explain],
)
settings.load_profile("cellbench")

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running.  Pool helpers are not
    daemon threads, so a pool a test forgets to shut down would otherwise
    live, unnoticed, until the interpreter exits."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    if leaked:
        pytest.fail(f"threads left running: {leaked}")


def run_python(code: str, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=timeout)


@pytest.fixture
def small_mesh():
    return cb.CartesianMesh(4, 4, 4)


@pytest.fixture
def pool2():
    pool = cb.WorkerPool(2)
    yield pool
    pool.shutdown()


def make_container(mesh, positions, **cell_kwargs):
    """Build a container with cells at the given positions, binned."""
    cont = cb.CellContainer(mesh)
    cont.add_cells(positions, **cell_kwargs)
    cb.rebin_cells(cont)
    return cont


def check_consistent(cont):
    """Assert the container invariants: every row's voxel is current, and the
    CSR bins list each row once, in ascending id within ascending voxels."""
    assert (cont.voxels == cont.mesh.voxels_of(cont.positions)).all()
    assert (np.diff(cont.nonempty_voxels) > 0).all()
    assert cont.bin_ptr[-1] == len(cont) == len(cont.bin_rows)
    assert sorted(cont.bin_rows.tolist()) == list(range(len(cont)))
    for k, v in enumerate(cont.nonempty_voxels.tolist()):
        rows = cont.bin_rows[cont.bin_ptr[k]:cont.bin_ptr[k + 1]]
        assert len(rows), f"bin of voxel {v} is empty but present"
        assert (cont.voxels[rows] == v).all()
        assert (np.diff(cont.ids[rows]) > 0).all()


def total_iterations(record):
    """The iterations of a `RegionRecord`, summed over its workers."""
    return sum(w.iterations for w in record.workers)


@pytest.fixture
def temp_add_drifts(monkeypatch):
    """Make `temp` allocation compute different physics: each add into its
    velocity sums moves their x components one ulp up, while `inplace` stays
    exact."""
    add_at = cb.TempAllocVectorOps.add_at

    def drifting_add(self, out, rows, *args, **kwargs):
        add_at(self, out, rows, *args, **kwargs)
        out[rows, 0] = np.nextafter(out[rows, 0], np.inf)

    monkeypatch.setattr(cb.TempAllocVectorOps, "add_at", drifting_add)
