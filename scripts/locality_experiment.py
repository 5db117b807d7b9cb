"""Grow a population by division and watch storage locality drift.

Two runs share one trajectory (identical checksums): one keeps daughters
where division appended them, the other resorts storage by voxel every k
steps.  The locality metric is the mean storage-index distance between
interacting cells, so lower is tighter.  Appended daughters scatter the
index space; periodic sorting pulls it back.  The metric is printed every
steps // 10 steps and at the end, each value the final state of a run of
that many steps.

Usage:
    python3 scripts/locality_experiment.py
    python3 scripts/locality_experiment.py --steps 150 --rate 0.1 --every 25
"""

import argparse
from dataclasses import replace

from cellbench import (
    RunConfig,
    locality_metric,
    parse_strategy_literal,
    run_simulation,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cells", type=int, default=60)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--rate", type=float, default=0.13,
                    help="division rate per unit time")
    ap.add_argument("--every", type=int, default=50,
                    help="resort period for the sorted-storage run")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    base = RunConfig(
        nx=10, ny=10, nz=10, cell_count=args.cells, steps=args.steps,
        seed=args.seed, division_rate=args.rate,
        seed_box=(20.0, 20.0, 20.0, 180.0, 180.0, 180.0),
    )
    runs = {
        "append": base,
        f"sorted({args.every})": replace(base, strategy=parse_strategy_literal(
            f"inplace/outer/cell_static/sorted({args.every})")),
    }

    # each run of k steps is a prefix of the same deterministic trajectory,
    # so its final state is the longest run's state after k steps
    params = base.interaction_params()
    stride = max(1, args.steps // 10)
    checkpoints = [*range(stride, args.steps, stride), args.steps]
    series = {name: [] for name in runs}
    identical = True
    for k in checkpoints:
        results = {name: run_simulation(replace(cfg, steps=k)) for name, cfg in runs.items()}
        for name, r in results.items():
            series[name].append(locality_metric(r.container, params))
        identical &= len({r.checksum for r in results.values()}) == 1

    print("steps\t" + "\t".join(f"L[{n}]" for n in runs))
    for k, row in zip(checkpoints, zip(*series.values())):
        print(f"{k}\t" + "\t".join(f"{val:.2f}" for val in row))

    print()
    for name, r in results.items():
        print(f"{name:>12}: cells {args.cells} -> {r.final_cell_count}, "
              f"final locality {series[name][-1]:.2f}, checksum {r.checksum[:16]}")

    if identical:
        print("trajectories identical: storage order changed layout only")
        return 0
    print("WARNING: checksums differ, storage order leaked into physics")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
