"""Run a small strategy sweep and print the speedup table plus efficiency metrics.

Every cell of the strategy x workers matrix must reproduce one bit-identical
checksum; wall time and the efficiency hierarchy are what the strategies are
allowed to change.  Writes speedup.tsv and efficiency.csv under --out and
prints both to stdout with a short reading of the numbers.

Usage:
    python3 scripts/sweep_demo.py --out /tmp/sweep_demo
    python3 scripts/sweep_demo.py --workers 1 2 4 8 --repeats 3
"""

import argparse
import os

from cellbench import (
    RunConfig,
    ensure_out_dir,
    sweep,
    write_efficiency_csv,
    write_speedup_tsv,
)

STRATEGIES = [
    "inplace/outer/cell_static/append",
    "temp/outer/cell_static/append",
    "inplace/collapsed/nonempty_voxel(8)/sorted(50)",
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/sweep_demo")
    ap.add_argument("--cells", type=int, default=200)
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--repeats", type=int, default=2)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    cfg = RunConfig(
        cell_count=args.cells, steps=args.steps, seed=args.seed,
        seed_box=(20.0, 20.0, 20.0, 300.0, 300.0, 300.0),
        sweep_strategies=tuple(STRATEGIES), sweep_workers=tuple(args.workers),
        sweep_repeats=args.repeats,
    )
    result = sweep(cfg)

    ensure_out_dir(args.out)
    tsv = os.path.join(args.out, "speedup.tsv")
    csv_path = os.path.join(args.out, "efficiency.csv")
    write_speedup_tsv(tsv, result)
    write_efficiency_csv(csv_path, result.efficiency_rows)

    checksums = set()
    print(f"baseline: {result.baseline}")
    print("strategy\tworkers\tmedian_s\tspread\tstatus")
    for cell in result.cells:
        if cell.ok:
            checksums.add(cell.checksum)
            print(f"{cell.strategy}\t{cell.workers}\t{cell.median:.3f}\t"
                  f"{cell.spread:.1%}\tok")
        else:
            print(f"{cell.strategy}\t{cell.workers}\t-\t-\t{cell.error}")

    print(f"\ndistinct checksums: {len(checksums)} "
          f"({'bit-identical physics' if len(checksums) == 1 else 'DIVERGED'})")

    print(f"\nspeedup table ({tsv}):")
    with open(tsv, encoding="utf-8") as fh:
        print(fh.read().rstrip())
    print(f"\nefficiency rows written to {csv_path} "
          f"({len(result.efficiency_rows)} rows)")
    if os.cpu_count() == 1:
        print("note: single-core box, thread speedups reflect scheduling "
              "overlap, not parallel compute")
    return 0 if len(checksums) == 1 and all(c.ok for c in result.cells) else 1


if __name__ == "__main__":
    raise SystemExit(main())
