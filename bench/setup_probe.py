"""Child process of the set-up measurement: run one workload up to its first step.

Usage: python3 bench/setup_probe.py <workload> <run seed>

Imports cellbench from the checkout, builds the workload's config, and lets
`run_simulation` seed the cells and start the worker pool.  The first call
into a per-step layer prints `time.perf_counter()` and stops the run; the
parent took its own reading of the same system-wide monotonic clock just
before starting this process.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

STEP_LAYERS = (
    "apply_cell_exchange", "lod_step", "compute_gradients",
    "update_velocities", "integrate_positions", "attempt_divisions",
)


class FirstStep(Exception):
    pass


def main() -> int:
    sys.path.insert(0, str(SRC))
    import cellbench as cb
    from workloads import WORKLOADS

    cfg = WORKLOADS[sys.argv[1]].config(cb, int(sys.argv[2]))

    def first_step(*args, **kwargs):
        raise FirstStep(time.perf_counter())

    for name in STEP_LAYERS:
        setattr(cb.simulate, name, first_step)
    try:
        cb.run_simulation(cfg)
    except FirstStep as stop:
        print(repr(stop.args[0]))
        return 0
    print("setup probe: the run finished without calling a step layer", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
