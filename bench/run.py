#!/usr/bin/env python3
"""cellbench benchmark: four frozen workloads, end-to-end metrics, traced layers.

Usage (from the root of a cellbench checkout):

    python3 bench/run.py                     # every workload at its default seed
    python3 bench/run.py --workload crowded --seed 11 --seconds 20 --trace 0

One invocation measures one workload for `--seconds` seconds and prints a
table of its metrics, then, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

`--trace 0` measures the end-to-end metrics with no instrumentation: the
median wall time and CPU time of a run, the 95th percentile over steps of
each step's median time, the median set-up time of a fresh process (one
before each run), and the process's peak resident memory.  `--trace 1`
alternates untraced runs with traced ones, in which every layer function
`run_simulation` calls records a span, and reports per-layer self times and
exact counts.  Without `--workload`, each workload runs in its own process,
untraced then traced.  `--seconds` defaults to `run_seconds` of
BENCHMARK.json, which also lists the metrics and their units.

Every run's checksum and final cell count must equal those of the first run
(at a workload's default seed: the pinned golden values; on `contended`:
the `crowded` run at the same seed).  A run that raises or mismatches counts
as failed.  Exact counts must repeat across runs, and every layer the
workload needs must have recorded spans.

Outputs under `.bench_build/`: `results/` (metrics, samples, counts and the
environment of each invocation), `trace/` (Chrome trace-event JSON of the
traced runs, for Perfetto) and `out/` (the report files the traced runs
write).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import PairCounter, Tracer, count_pairs
from workloads import ALWAYS_RUN, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

#: Bytes one solver step moves per voxel and substrate, computed from array
#: sizes (not measured): forward elimination and back substitution each read
#: and write every float64 once on each of the three sweeps (3 x 32 B), and
#: the y and z sweeps copy the field into line order and back (2 x 32 B).
SOLVER_BYTES_PER_VOXEL = 160


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics one section of BENCHMARK.json lists."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


#: Span self time reported under each per-layer time metric.
LAYER_TIMES = {
    "diffusion.solver_s": "diffusion.solver",
    "diffusion.gradients_s": "diffusion.gradients",
    "diffusion.exchange_s": "diffusion.exchange",
    "mechanics.velocity_s": "mechanics.velocity",
    "mechanics.integrate_s": "mechanics.integrate",
    "core.rebin_s": "core.rebin",
    "population.divide_s": "population.divide",
    "population.resort_s": "population.resort",
}


def load_cellbench():
    """Import cellbench from this checkout's source tree, never from elsewhere."""
    package = SRC / "cellbench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no cellbench sources at {package}; "
                         "run from the root of a cellbench checkout")
    sys.path.insert(0, str(SRC))
    import cellbench

    if Path(cellbench.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported cellbench from {cellbench.__file__}, "
                         f"not from {package}")
    return cellbench


class Ledger:
    """Attempted and failed runs, plus every failed check, of one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def problem(self, message: str) -> None:
        self.problems.append(message)

    def run(self, label: str, fn, expect):
        """Call fn() -> RunResult; it fails if it raises or misses `expect`."""
        self.attempted += 1
        try:
            result = fn()
        except Exception:  # a failing run is counted and reported, not fatal
            self.failed += 1
            self.problem(f"{label} raised: {traceback.format_exc(limit=-3)}")
            return None
        got = (result.checksum, result.final_cell_count)
        if expect is not None and got != expect:
            self.failed += 1
            self.problem(f"{label}: checksum/cells {got} != expected {expect}")
            return None
        return result


def reference(cb, wl, seed: int, cfg, ledger: Ledger):
    """Untimed first run, which also warms up; later runs must reproduce it."""
    golden = None
    if seed == wl.default_seed:
        golden = (wl.golden_checksum, wl.golden_cells)
    if wl.same_physics_as:
        ref = WORKLOADS[wl.same_physics_as]
        cfg = ref.config(cb, ref.run_seed(cb, seed))
    result = ledger.run(f"reference run (seed {cfg.seed}, {cfg.strategy.literal()}, "
                        f"{cfg.workers} worker(s))",
                        lambda: cb.run_simulation(cfg), golden)
    if result is None:
        return None
    return (result.checksum, result.final_cell_count)


def untraced_run(cb, cfg, ledger: Ledger, expect):
    cpu0 = time.process_time()
    result = ledger.run("untraced run", lambda: cb.run_simulation(cfg), expect)
    cpu = time.process_time() - cpu0
    if result is None:
        return None
    steps = [sum(acc.elapsed for acc in step.values()) for step in result.step_records]
    return {
        "wall_s": result.wall_seconds,
        "cpu_s": cpu,
        "step_s": steps,
        "loop_overhead_s": result.wall_seconds - sum(steps),
    }


def setup_seconds(wl, run_seed: int, ledger: Ledger) -> float | None:
    """Fresh-process time to the first step (None if the probe failed).

    The child may write bytecode whatever the caller's environment says, so
    after the first probe the caches are warm.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), wl.name, str(run_seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        ledger.problem(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return float(proc.stdout.strip()) - t0


def repeat_for(seconds: float, body, minimum: int = 1) -> None:
    """Call body() for about `seconds`: stop once the next call would overrun
    by more than half a call, after at least `minimum` calls, or as soon as
    body() returns False."""
    deadline = time.perf_counter() + seconds
    calls = 0
    while True:
        t0 = time.perf_counter()
        if body() is False:
            return
        calls += 1
        now = time.perf_counter()
        if calls >= minimum and deadline - now < (now - t0) / 2:
            return


def median(values):
    return statistics.median(values) if values else float("nan")


# -- --trace 0 -----------------------------------------------------------------


def bench_untraced(cb, wl, seed: int, cfg, seconds: float, ledger: Ledger):
    if setup_seconds(wl, cfg.seed, ledger) is None:  # fills the bytecode caches
        return {}, {}
    expect = reference(cb, wl, seed, cfg, ledger)
    if expect is None:
        return {}, {}
    runs, setup = [], []

    # A set-up probe before each run spreads the probes over the whole
    # measurement, as the runs are, instead of bunching them in one moment.
    def one_run():
        probe = setup_seconds(wl, cfg.seed, ledger)
        if probe is None:
            return False
        setup.append(probe)
        sample = untraced_run(cb, cfg, ledger, expect)
        if sample is not None:
            runs.append(sample)
        return True

    repeat_for(seconds, one_run, minimum=3)
    if not runs:
        return {}, {}
    # A step's median over the runs keeps the spikes the program makes at that
    # step (divisions, resorts) and drops the ones the host makes at random.
    profile = [statistics.median(step) * 1e3
               for step in zip(*[r["step_s"] for r in runs], strict=True)]
    p95 = statistics.quantiles(profile, n=20)[-1] if len(profile) > 1 else float("nan")
    metrics = {
        "wall_s": median([r["wall_s"] for r in runs]),
        "step_p95_ms": p95,
        "setup_s": median(setup),
        "cpu_s": median([r["cpu_s"] for r in runs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(runs)} runs",
        "step_p95_ms": f"p95 over {len(profile)} steps of each step's median over "
                       f"{len(runs)} runs, {sum(1 for t in profile if t > p95)} beyond it",
        "setup_s": f"median of {len(setup)} fresh processes",
        "cpu_s": f"median of {len(runs)} runs, user+sys of all threads",
        "peak_rss_mb": f"process peak over {ledger.attempted} runs of this workload",
    }
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setup,
    }
    return metrics, {"notes": notes, "samples": samples}


# -- --trace 1 -----------------------------------------------------------------


def traced_sample(cb, tracer: Tracer, cfg, result) -> dict:
    """Per-layer times and exact counts of the traced run just finished."""
    self_times = tracer.self_times(tracer.run_id)
    records = [r for recs in tracer.records.values() for r in recs]
    busy = [sum(r.workers[w].busy for r in records) for w in range(cfg.workers)]
    velocity = [cb.timing_from_record("velocity", r)
                for r in tracer.records.get("mechanics.velocity", [])]
    times = {name: self_times.get(layer, 0.0) for name, layer in LAYER_TIMES.items()}
    times.update({
        "parallel.fork_join_s": sum(r.elapsed - max(w.busy for w in r.workers)
                                    for r in records),
        "parallel.busy_s.w0": busy[0],
        "parallel.busy_s.w1": busy[1] if cfg.workers > 1 else 0.0,
        "parallel.load_balance.velocity":
            cb.load_balance(cb.aggregate_timings(velocity)) if velocity else float("nan"),
    })
    counts = {
        "diffusion.voxel_updates": tracer.voxel_updates,
        "smallvec.alloc_events": sum(r.total_alloc_events for r in records),
        "population.daughters": tracer.daughters,
        "population.final_cells": result.final_cell_count,
        "parallel.dispatches": len(records),
        "parallel.claims": sum(r.total_claims for r in records),
    }
    return {"wall_s": result.wall_seconds, "times": times, "counts": counts}


def report_seconds(cb, cfg, result, out_dir: Path) -> float:
    """Time the harness report path: efficiency rows plus both CSV writers."""
    run_id = cb.run_id_for(cfg.strategy, cfg.workers)
    t0 = time.perf_counter()
    rows = cb.efficiency_rows(result, run_id)
    cb.write_timings_csv(str(out_dir / "timings.csv"), result, run_id)
    cb.write_efficiency_csv(str(out_dir / "efficiency.csv"), rows)
    return time.perf_counter() - t0


def check_coverage(tracer: Tracer, wl, daughters: int, ledger: Ledger) -> None:
    spans = tracer.span_counts()
    for layer in ALWAYS_RUN + wl.must_run:
        if not spans.get(layer):
            ledger.problem(f"layer {layer} recorded no spans on {wl.name}: "
                           "the run bypassed the wrapped function")
    if wl.must_divide:
        if daughters == 0:
            ledger.problem(f"attempt_divisions returned no daughters on {wl.name}")
        if not tracer.has_child("population.divide", "core.rebin"):
            ledger.problem(f"division pass on {wl.name} recorded no nested rebin span")


def bench_traced(cb, wl, seed: int, cfg, seconds: float, ledger: Ledger, label: str):
    expect = reference(cb, wl, seed, cfg, ledger)
    if expect is None:
        return {}, {}
    out_dir = Path(cb.ensure_out_dir(str(OUT / "out" / wl.name)))
    tracer = Tracer(cb)
    untraced, traced, report = [], [], []

    def one_pair():
        sample = untraced_run(cb, cfg, ledger, expect)
        result = ledger.run("traced run", lambda: tracer.run(cfg), expect)
        if sample is None or result is None:
            return False
        untraced.append(sample)
        traced.append(traced_sample(cb, tracer, cfg, result))
        report.append(report_seconds(cb, cfg, result, out_dir))
        return True

    repeat_for(seconds, one_pair, minimum=2)
    if len(traced) < 2:
        return {}, {}
    counts = traced[0]["counts"]
    for sample in traced[1:]:
        if sample["counts"] != counts:
            ledger.problem(f"exact counts differ between runs: {counts} vs {sample['counts']}")
    check_coverage(tracer, wl, counts["population.daughters"], ledger)
    trace_path = OUT / "trace" / f"{label}.json"
    tracer.write_chrome_trace(trace_path, label)

    pairs = PairCounter(cb)
    counted = ledger.run("pair-count run", lambda: count_pairs(cb, cfg, pairs), expect)
    locality = (cb.locality_metric(counted.container, cfg.interaction_params())
                if counted is not None else float("nan"))
    del counted

    metrics = {name: median([s["times"][name] for s in traced]) for name in traced[0]["times"]}
    metrics.update(counts)
    voxel_updates = counts["diffusion.voxel_updates"]
    traced_wall = median([s["wall_s"] for s in traced])
    untraced_wall = median([u["wall_s"] for u in untraced])
    metrics.update({
        "diffusion.solver_ns_per_voxel_update":
            metrics["diffusion.solver_s"] / voxel_updates * 1e9,
        "diffusion.solver_bytes_computed": voxel_updates // 3 * SOLVER_BYTES_PER_VOXEL,
        "mechanics.candidate_pairs": pairs.candidates,
        "mechanics.interacting_pairs": pairs.interacting,
        "mechanics.pair_hit_ratio":
            pairs.interacting / pairs.candidates if pairs.candidates else float("nan"),
        "mechanics.velocity_ns_per_candidate":
            metrics["mechanics.velocity_s"] / pairs.candidates * 1e9
            if pairs.candidates else float("nan"),
        "population.locality": locality,
        "simulate.loop_overhead_s": median([u["loop_overhead_s"] for u in untraced]),
        "harness.report_s": median(report),
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    })
    n = len(traced)
    notes = {name: f"median of {n} traced runs" for name in traced[0]["times"]}
    notes.update({name: f"exact, identical in all {n} traced runs" for name in counts})
    notes.update({
        "mechanics.candidate_pairs": "exact, counted from the container each step",
        "mechanics.interacting_pairs": "exact, counted from the container each step",
        "mechanics.pair_hit_ratio": "interacting / candidate pairs",
        "diffusion.solver_bytes_computed":
            f"computed: {SOLVER_BYTES_PER_VOXEL} B per voxel per solver step",
        "population.locality": "mean storage distance of interacting cells, final state",
        "bench.trace_overhead_s": f"median traced - median untraced wall, {n} runs each",
        "harness.report_s": f"median of {n}, efficiency_rows + CSV writers",
        "simulate.loop_overhead_s": f"median of {n} untraced runs, wall - sum of regions",
    })
    extra = {
        "notes": notes,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "counts": {k: v for k, v in metrics.items() if isinstance(v, int)},
        "samples": {"traced_wall_s": [s["wall_s"] for s in traced],
                    "untraced_wall_s": [u["wall_s"] for u in untraced]},
    }
    return metrics, extra


# -- environment ---------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def getconf(name: str) -> int | None:
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(proc.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(cb, cfg) -> dict:
    import numpy

    l3 = getconf("LEVEL3_CACHE_SIZE")
    voxels = cfg.nx * cfg.ny * cfg.nz
    field_bytes = voxels * 8 * 4  # density plus three gradient components
    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cellbench": cb.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "field_bytes": field_bytes,
    }
    if l3:
        env["bandwidth_note"] = (
            f"the {cfg.nx}x{cfg.ny}x{cfg.nz} field ({voxels * 8 / 2**20:.1f} MiB density, "
            f"{voxels * 24 / 2**20:.1f} MiB gradients) is "
            f"{'not ' if field_bytes < 4 * l3 else ''}4x the {l3 / 2**20:.0f} MiB L3, "
            "so solver bytes are computed from array sizes, not measured bandwidth"
        )
    return env


# -- entry points --------------------------------------------------------------


def bench_one(args) -> int:
    cb = load_cellbench()
    wl = WORKLOADS[args.workload]
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    ledger = Ledger()
    cfg = wl.config(cb, wl.run_seed(cb, args.seed))
    if args.trace:
        metrics, extra = bench_traced(cb, wl, args.seed, cfg, args.seconds, ledger, label)
        units = metric_units("per_layer")
    else:
        metrics, extra = bench_untraced(cb, wl, args.seed, cfg, args.seconds, ledger)
        units = metric_units("end_to_end")
    env = environment(cb, cfg)
    missing = [name for name in units if name not in metrics]
    if missing:
        ledger.problem(f"metrics not measured: {', '.join(missing)}")
    for name, value in list(metrics.items()):
        if not math.isfinite(value):
            ledger.problem(f"metric {name} is not a finite number: {value}")
            del metrics[name]
    correct = not ledger.problems

    notes = extra.get("notes", {})
    print(f"# {wl.name}  seed={args.seed} (run seed {cfg.seed})  trace={args.trace}  "
          f"strategy={wl.strategy}  workers={cfg.workers}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:>16.6g} {unit:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':40s} {ledger.failed:>10d}/{ledger.attempted:<5d} "
          f"failed/attempted runs (raised or checksum mismatch)")
    if "trace_file" in extra:
        print(f"  trace: {extra['trace_file']}")
    for problem in ledger.problems:
        print(f"  FAIL: {problem}")
    print(f"  env: {json.dumps(env)}")

    record = {
        "workload": wl.name, "seed": args.seed, "run_seed": cfg.seed, "trace": args.trace,
        "seconds": args.seconds, "correct": correct,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": ledger.problems, "env": env, **extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }))
    return 0


def bench_all(seconds: float) -> int:
    """Each workload at its default seed, untraced then traced, one process each."""
    load_cellbench()  # fail early, and warm the bytecode caches the children use
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS.values():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
                 "--seed", str(wl.default_seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                total["correct"] = False
                continue
            part = json.loads(lines[-1])
            total["correct"] = total["correct"] and part["correct"]
            total["attempted"] += part["attempted"]
            total["failed"] += part["failed"]
            for name, value in part["metrics"].items():
                total["metrics"][f"{wl.name}/{name}"] = value
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="measurement time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload is None:
        return bench_all(args.seconds)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return bench_one(args)


if __name__ == "__main__":
    sys.exit(main())
