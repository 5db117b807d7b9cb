"""Command-line front end.

Subcommands: `run` (one simulation, timing + efficiency reports), `sweep`
(strategy x workers matrix with repeats and speedup tables), `verify`
(bit-identity check between two strategies), and `model` (the analytic
chunk-count load-balance table).  Exit codes: 0 success, 2 configuration
error, 3 verification failure (`verify` sides differ; a `sweep` run differs
from the first), 4 capacity exceeded, 5 internal error.  Code 2 also covers
an unreadable config file or output directory, a parameter the model rejects
once the run starts (`DomainError`, e.g. a cell too large for the voxel
binning) and a field gone non-finite (`NumericError`).  Code 5 is any other
package error (`ContainerStateError`, `InconsistentTraceError`,
`UndefinedMetricError`): a broken invariant of the program, not of the
input.  Each error prints one line on stderr; `sweep` prints every row
first, and a divergence outranks the first error a cell raised.

`run`, `sweep` and each side of `verify` build their config in one step:
config-file lines, then `--set` pairs, then the command's own flags (`--out`;
sweep's `--workers`, `--repeats` and `--strategies`; the side's `--workers-a`
or `--workers-b`), validated once.  `verify` writes no file and takes no
`--out`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import (
    MAX_WORKERS,
    RunConfig,
    build_config,
    format_config,
    load_config,
    parse_strategy_literal,
)
from .errors import (
    CapacityError,
    CellBenchError,
    ConfigError,
    DomainError,
    NumericError,
)
from .harness import (
    SPREAD_WARN,
    efficiency_rows,
    ensure_out_dir,
    run_id_for,
    sweep,
    uniform_chunk_benchmark,
    verify_equivalence,
    write_efficiency_csv,
    write_speedup_tsv,
    write_timings_csv,
)
from .metrics import chunk_lb_model, chunk_speedup_model, load_balance
from .simulate import run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFY = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5


def _parse_sets(pairs: list[str]) -> dict:
    entries: dict[str, str] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _load(args, flags: dict) -> RunConfig:
    """The command's config: file lines, then `--set` pairs, then the config
    keys of the flags it was given, built and validated once."""
    overrides = {**_parse_sets(args.set),
                 **{key: value for key, value in flags.items() if value is not None}}
    if args.config:
        return load_config(args.config, overrides)
    return build_config(overrides)


def _cmd_run(args) -> int:
    cfg = _load(args, {"out": args.out})
    out = ensure_out_dir(cfg.out)
    result = run_simulation(cfg)
    run_id = run_id_for(cfg.strategy, cfg.workers)
    timings, efficiency, resolved = (
        os.path.join(out, name)
        for name in ("timings.csv", "efficiency.csv", "config.resolved.txt"))
    write_timings_csv(timings, result, run_id)
    write_efficiency_csv(efficiency, efficiency_rows(result, run_id))
    with open(resolved, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))
    written = [efficiency, resolved]
    if cfg.timings != "off":
        written.insert(0, timings)
    print(f"run_id    {run_id}")
    print(f"steps     {cfg.steps}")
    print(f"cells     {result.final_cell_count}")
    print(f"checksum  {result.checksum}")
    print(f"wall_s    {result.wall_seconds:.3f}")
    print(f"outputs   {' '.join(written)}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args, {"out": args.out, "sweep.workers": args.workers,
                       "sweep.repeats": args.repeats, "sweep.strategies": args.strategies})
    out = ensure_out_dir(cfg.out)
    result = sweep(cfg)
    write_efficiency_csv(os.path.join(out, "efficiency.csv"), result.efficiency_rows)
    write_speedup_tsv(os.path.join(out, "speedup.tsv"), result)
    print(f"baseline  {result.baseline}")
    print("strategy\tworkers\tmedian_s\tspread\tspeedup\tvs_base\tstatus")
    for cell in result.cells:
        if not cell.ok:
            print(f"{cell.strategy}\t{cell.workers}\t-\t-\t-\t-\tFAIL: {cell.error}")
            continue
        up = result.speedup_vs_lowest_workers(cell.strategy, cell.workers)
        vs = result.speedup_vs_baseline(cell.strategy, cell.workers)
        flag = " (spread>5%)" if cell.spread > SPREAD_WARN else ""
        print(
            f"{cell.strategy}\t{cell.workers}\t{cell.median:.3f}\t"
            f"{cell.spread:.3f}{flag}\t"
            f"{'-' if up is None else f'{up:.3f}'}\t"
            f"{'-' if vs is None else f'{vs:.3f}'}\tok"
        )
    print(f"outputs   {out}/efficiency.csv {out}/speedup.tsv")
    failed = [cell for cell in result.cells if not cell.ok]
    if failed and all(cell.raised is not None for cell in failed):
        raise failed[0].raised
    return EXIT_VERIFY if failed else EXIT_OK


def _side(args, literal: str, workers: str | None) -> RunConfig:
    return replace(_load(args, {"workers": workers}), strategy=parse_strategy_literal(literal))


def _cmd_verify(args) -> int:
    cfg_a = _side(args, args.strategy_a, args.workers_a)
    cfg_b = _side(args, args.strategy_b, args.workers_b)
    report = verify_equivalence(cfg_a, cfg_b)
    print(f"A {args.strategy_a} (workers={cfg_a.workers})  checksum {report.checksum_a}")
    print(f"B {args.strategy_b} (workers={cfg_b.workers})  checksum {report.checksum_b}")
    print(("PASS: " if report.passed else "FAIL: ") + report.detail)
    if not report.passed:
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_model(args) -> int:
    n = args.chunks
    if n < 1 or args.max_workers < 1:
        raise ConfigError("model needs --chunks >= 1 and --max-workers >= 1")
    if args.measure and args.max_workers > MAX_WORKERS:
        raise ConfigError(f"model --measure needs --max-workers <= {MAX_WORKERS}")
    print("workers\tchunks_per_worker\tmodel_lb\tmodel_speedup"
          + ("\tmeasured_lb\tdiff" if args.measure else ""))
    for t in range(1, args.max_workers + 1):
        lb = chunk_lb_model(n, t)
        row = f"{t}\t{-(-n // t)}\t{lb:.6f}\t{chunk_speedup_model(n, t):.4f}"
        if args.measure:
            measured = load_balance(uniform_chunk_benchmark(n, t))
            row += f"\t{measured:.6f}\t{measured - lb:+.4f}"
        print(row)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cellbench",
        description="Strategy-swappable cell simulation kernel and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry (repeatable)")
        if out:
            p.add_argument("--out", help="output directory (overrides config)")

    p_run = sub.add_parser("run", help="run one simulation and write reports")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a strategy x workers matrix")
    common(p_sweep)
    p_sweep.add_argument("--repeats", help="runs per cell (overrides sweep.repeats)")
    p_sweep.add_argument("--workers",
                         help="comma list, e.g. 1,2,4,8 (overrides sweep.workers)")
    p_sweep.add_argument("--strategies", help="semicolon-separated strategy literals, "
                                              "the first is the baseline "
                                              "(overrides sweep.strategies)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="check two strategies for bit-identity")
    common(p_verify, out=False)
    p_verify.add_argument("-A", "--strategy-a", required=True,
                          help="strategy literal, e.g. temp/outer/cell_static/append")
    p_verify.add_argument("-B", "--strategy-b", required=True)
    p_verify.add_argument("--workers-a", help="side A workers (overrides workers)")
    p_verify.add_argument("--workers-b", help="side B workers (overrides workers)")
    p_verify.set_defaults(fn=_cmd_verify)

    p_model = sub.add_parser("model", help="print the chunk-count load-balance table")
    p_model.add_argument("--chunks", type=int, default=75)
    p_model.add_argument("--max-workers", type=int, default=48)
    p_model.add_argument("--measure", action="store_true",
                         help="add the load balance measured on equal sleeping chunks")
    p_model.set_defaults(fn=_cmd_model)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DomainError, NumericError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CellBenchError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
