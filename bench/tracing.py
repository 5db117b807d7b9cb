"""In-memory span recording around cellbench's layer functions.

`run_simulation` calls each layer through a name in its own module, so
rebinding those names for the duration of a run puts a span around every
call while the real step loop runs unchanged.  `attempt_divisions` and
`sort_cells_by_voxel` call `rebin_cells` through the population module, so
that name is wrapped too, and their self time excludes the nested rebin.

A span is (layer, start, end, parent index, run id).  All wrapped calls
happen on the calling thread (worker bodies are closures inside the layer
functions), so one stack gives every span its parent.  Counts are taken
from what the calls return: the pool's `RegionRecord`s, the daughters of a
division pass, and the mesh size of each solver step.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np

#: (module, attribute, layer) for every function the benchmark wraps.
WRAPPED = (
    ("simulate", "seed_cells", "simulate.seed_cells"),
    ("simulate", "apply_cell_exchange", "diffusion.exchange"),
    ("simulate", "lod_step", "diffusion.solver"),
    ("simulate", "compute_gradients", "diffusion.gradients"),
    ("simulate", "update_velocities", "mechanics.velocity"),
    ("simulate", "integrate_positions", "mechanics.integrate"),
    ("simulate", "rebin_cells", "core.rebin"),
    ("population", "rebin_cells", "core.rebin"),
    ("simulate", "attempt_divisions", "population.divide"),
    ("simulate", "sort_cells_by_voxel", "population.resort"),
    ("simulate", "state_checksum", "simulate.checksum"),
)

ROOT_LAYER = "simulate.run_simulation"


class Tracer:
    """Spans and layer outputs of the traced runs, kept in memory."""

    def __init__(self, cb):
        self.cb = cb
        self.spans: list[list] = []  # [layer, start, end, parent, run_id]
        self.records: dict[str, list] = {}  # layer -> RegionRecords returned
        self.daughters = 0
        self.voxel_updates = 0
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        entry = [layer, time.perf_counter(), 0.0, parent, self.run_id]
        self.spans.append(entry)
        self._stack.append(index)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            with self.span(layer):
                out = fn(*args, **kwargs)
            self._observe(layer, args, out)
            return out
        return traced

    def _observe(self, layer: str, args, out) -> None:
        record_type = self.cb.RegionRecord
        if isinstance(out, record_type):
            self.records.setdefault(layer, []).append(out)
        elif isinstance(out, list) and out and isinstance(out[0], record_type):
            self.records.setdefault(layer, []).extend(out)
        if layer == "population.divide":
            self.daughters += len(out)
        elif layer == "diffusion.solver":
            micro, mesh = args[0], args[1]
            # each of the three line sweeps rewrites every voxel once
            self.voxel_updates += 3 * micro.substrate_count * mesh.voxel_count

    @contextlib.contextmanager
    def installed(self):
        """Rebind the wrapped names for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in WRAPPED:
                module = getattr(self.cb, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # the coverage check reports the missing layer
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def run(self, cfg):
        """One traced `run_simulation`; its spans share a fresh run id.

        Records and counts describe the latest run only; spans accumulate.
        """
        self.run_id += 1
        self.records = {}
        self.daughters = 0
        self.voxel_updates = 0
        with self.installed(), self.span(ROOT_LAYER):
            return self.cb.run_simulation(cfg)

    # -- analysis ----------------------------------------------------------

    def self_times(self, run_id: int) -> dict[str, float]:
        """Per-layer sum, over one run's spans, of span time minus child span time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (layer, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id:
                totals[layer] = totals.get(layer, 0.0) + (end - start) - child[i]
        return totals

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for layer, *_ in self.spans:
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def has_child(self, parent_layer: str, child_layer: str) -> bool:
        return any(
            layer == child_layer and parent >= 0 and self.spans[parent][0] == parent_layer
            for layer, _, _, parent, _ in self.spans
        )

    def write_chrome_trace(self, path: Path, label: str) -> None:
        """Chrome trace-event JSON (complete events), openable in Perfetto."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": f"cellbench {label}"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "main (worker 0)"}},
        ]
        for layer, start, end, parent, rid in self.spans:
            events.append({
                "name": layer,
                "cat": layer.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "run": rid,
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class PairCounter:
    """Counts the velocity kernel's candidate and in-range pairs, per call.

    Computed from the container outside the program: a candidate pair is two
    distinct cells in the same 3x3x3 voxel neighbourhood, and it interacts
    when its distance is at least EPS_SKIP and below the adhesion reach,
    evaluated with the kernel's own float operations in the same order.
    """

    def __init__(self, cb):
        self.eps = cb.EPS_SKIP
        self.candidates = 0
        self.interacting = 0

    def __call__(self, container, mesh, params, *rest, **kwargs) -> None:
        cells = container.cells
        if len(cells) < 2:
            return
        pos = np.array([c.position for c in cells], dtype=np.float64)
        rad = np.array([c.radius for c in cells], dtype=np.float64)
        vox = np.array([c.voxel_index for c in cells], dtype=np.int64)
        ix = vox % mesh.nx
        iy = (vox // mesh.nx) % mesh.ny
        iz = vox // (mesh.nx * mesh.ny)
        near = (
            (np.abs(ix[:, None] - ix[None, :]) <= 1)
            & (np.abs(iy[:, None] - iy[None, :]) <= 1)
            & (np.abs(iz[:, None] - iz[None, :]) <= 1)
        )
        np.fill_diagonal(near, False)
        i, j = np.nonzero(near)
        dx = pos[j, 0] - pos[i, 0]
        dy = pos[j, 1] - pos[i, 1]
        dz = pos[j, 2] - pos[i, 2]
        d = np.sqrt(dx * dx + dy * dy + dz * dz)
        reach = params.adhesion_multiplier * (rad[i] + rad[j])
        self.candidates += int(i.size)
        self.interacting += int(np.count_nonzero((d >= self.eps) & (d < reach)))


def count_pairs(cb, cfg, counter: PairCounter):
    """One untimed run with `counter` hooked in front of every velocity call."""
    simulate = cb.simulate
    update = simulate.update_velocities

    def counted(*args, **kwargs):
        counter(*args, **kwargs)
        return update(*args, **kwargs)

    simulate.update_velocities = counted
    try:
        return cb.run_simulation(cfg)
    finally:
        simulate.update_velocities = update
