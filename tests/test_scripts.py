"""Each example script under scripts/ runs to exit 0 on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path, script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("locality_experiment.py", ["--cells", "20", "--steps", "5"]),
])
def test_script_runs(tmp_path, script, args):
    assert run_script(tmp_path, script, args)


def test_locality_experiment_prints_every_checkpoint(tmp_path):
    # 25 steps: a checkpoint every 25 // 10 = 2 steps, and one at the end
    out = run_script(tmp_path, "locality_experiment.py",
                     ["--cells", "20", "--steps", "25", "--every", "4"])
    table, summary = out.split("\n\n")
    header, *rows = table.splitlines()
    assert header.split("\t") == ["steps", "L[append]", "L[sorted(4)]"]
    assert [int(row.split("\t")[0]) for row in rows] == [*range(2, 25, 2), 25]
    assert all(len(row.split("\t")) == 3 for row in rows)
    assert summary.splitlines()[-1] == (
        "trajectories identical: storage order changed layout only")
