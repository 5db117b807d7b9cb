"""Run configuration: flat "key = value" text files with dotted key paths.

The format is deliberately primitive -- one `key = value` per line, `#`
comments, no sections, no nesting -- so configs stay diff-friendly and any
tool can generate them.  CLI `--set key=value` pairs override file entries.

Strategy literals name one point of the optimization space in a single
slash-joined token, e.g. ``temp/outer/cell_static/append`` or
``inplace/collapsed/nonempty_voxel(16)/sorted(50)``: allocation mode,
solver/gradient traversal, mechanics schedule, and cell storage order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

from .core import CartesianMesh
from .diffusion import TraversalMode
from .errors import ConfigError, DomainError
from .mechanics import InteractionParams, MechanicsSchedule, ScheduleKind
from .population import DEFAULT_CELL_CAP, StorageKind, StorageOrder
from .smallvec import AllocationMode

_ALLOCATION = {
    "temp": AllocationMode.TEMPORARY_ALLOCATING,
    "inplace": AllocationMode.IN_PLACE,
}
_TRAVERSAL = {
    "outer": TraversalMode.OUTER_LOOP,
    "collapsed": TraversalMode.COLLAPSED,
}
_TIMINGS_MODES = ("full", "aggregate", "off")

#: Most diffusion substeps one mechanics step may ask for.
MAX_SUBSTEPS = 1_000_000
#: Most worker threads one run may start.
MAX_WORKERS = 256
#: Most mesh voxels (nx * ny * nz); a density field this large is 128 MiB.
MAX_VOXELS = 2 ** 24

_GRAIN_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def parse_allocation(text: str) -> AllocationMode:
    try:
        return _ALLOCATION[text.strip()]
    except KeyError:
        raise ConfigError(f"allocation mode must be temp or inplace, got {text!r}") from None


def parse_traversal(text: str) -> TraversalMode:
    try:
        return _TRAVERSAL[text.strip()]
    except KeyError:
        raise ConfigError(f"traversal must be outer or collapsed, got {text!r}") from None


def parse_schedule(text: str) -> MechanicsSchedule:
    m = _GRAIN_RE.match(text.strip())
    if not m:
        raise ConfigError(f"unparseable schedule {text!r}")
    name, grain = m.group(1), m.group(2)
    try:
        kind = ScheduleKind(name)
    except ValueError:
        raise ConfigError(f"unknown schedule {name!r}") from None
    if kind is ScheduleKind.CELL_STATIC:
        if grain is not None:
            raise ConfigError("cell_static takes no grain size")
        return MechanicsSchedule(kind)
    try:
        return MechanicsSchedule(kind, int(grain)) if grain else MechanicsSchedule(kind)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


def parse_storage(text: str) -> StorageOrder:
    m = _GRAIN_RE.match(text.strip())
    if not m:
        raise ConfigError(f"unparseable storage order {text!r}")
    name, every = m.group(1), m.group(2)
    try:
        kind = StorageKind(name)
    except ValueError:
        raise ConfigError(f"unknown storage order {name!r}") from None
    if kind is StorageKind.APPEND_ORDER:
        if every is not None:
            raise ConfigError("append order takes no resort period")
        return StorageOrder(kind)
    try:
        return StorageOrder(kind, int(every)) if every else StorageOrder(kind)
    except DomainError as exc:
        raise ConfigError(str(exc)) from None


@dataclass(frozen=True)
class StrategyConfig:
    """One point of the optimization space."""

    allocation: AllocationMode = AllocationMode.IN_PLACE
    traversal: TraversalMode = TraversalMode.OUTER_LOOP
    schedule: MechanicsSchedule = field(default_factory=MechanicsSchedule.cell_static)
    storage: StorageOrder = field(default_factory=StorageOrder.append_order)

    def literal(self) -> str:
        alloc = "temp" if self.allocation is AllocationMode.TEMPORARY_ALLOCATING else "inplace"
        trav = "outer" if self.traversal is TraversalMode.OUTER_LOOP else "collapsed"
        if self.schedule.kind is ScheduleKind.CELL_STATIC:
            sched = "cell_static"
        else:
            sched = f"{self.schedule.kind.value}({self.schedule.grain})"
        if self.storage.kind is StorageKind.APPEND_ORDER:
            store = "append"
        else:
            store = f"sorted({self.storage.every})"
        return f"{alloc}/{trav}/{sched}/{store}"


def parse_strategy_literal(text: str) -> StrategyConfig:
    parts = text.strip().split("/")
    if len(parts) != 4:
        raise ConfigError(
            f"strategy literal needs allocation/traversal/schedule/storage, got {text!r}"
        )
    return StrategyConfig(
        allocation=parse_allocation(parts[0]),
        traversal=parse_traversal(parts[1]),
        schedule=parse_schedule(parts[2]),
        storage=parse_storage(parts[3]),
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; identical configs give identical results."""

    nx: int = 16
    ny: int = 16
    nz: int = 16
    dx: float = 20.0
    dy: float = 20.0
    dz: float = 20.0
    diffusion: float = 100000.0
    decay: float = 0.1
    initial_density: float = 38.0
    secretion: float = 1.0
    uptake: float = 5.0
    saturation: float = 38.0
    cell_count: int = 500
    cell_radius: float = 8.0
    division_rate: float = 0.0
    cell_cap: int = DEFAULT_CELL_CAP
    seed_box: tuple = ()  # (x0,y0,z0,x1,y1,z1) um; empty = whole mesh
    repulsion: float = 10.0
    adhesion: float = 0.4
    adhesion_multiplier: float = 1.25
    dt_mechanics: float = 0.1
    dt_diffusion: float = 0.1
    steps: int = 100
    seed: int = 42
    workers: int = 1
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    sweep_workers: tuple = (1, 2, 4, 8)
    sweep_repeats: int = 5
    sweep_strategies: tuple = ()
    timings: str = "full"
    out: str = "runs"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not all(math.isfinite(v) for v in self.seed_box):
            raise ConfigError(f"seed box must be finite, got {self.seed_box}")
        if min(self.nx, self.ny, self.nz) < 1:
            raise ConfigError("mesh dimensions must be >= 1")
        if self.nx * self.ny * self.nz > MAX_VOXELS:
            raise ConfigError(f"mesh has {self.nx * self.ny * self.nz} voxels, "
                              f"more than {MAX_VOXELS}")
        if min(self.dx, self.dy, self.dz) <= 0:
            raise ConfigError("voxel spacing must be > 0")
        if self.cell_count < 0:
            raise ConfigError("cell count must be >= 0")
        if self.cell_radius <= 0:
            raise ConfigError("cell radius must be > 0")
        if min(self.secretion, self.uptake, self.saturation) < 0:
            raise ConfigError("secretion, uptake and saturation must be >= 0")
        if self.cell_cap < 1:
            raise ConfigError("cell cap must be >= 1")
        if self.cell_count > self.cell_cap:
            raise ConfigError(f"cell count {self.cell_count} exceeds the cell cap {self.cell_cap}")
        if self.steps < 0:
            raise ConfigError("step count must be >= 0")
        if not all(1 <= w <= MAX_WORKERS for w in (self.workers, *self.sweep_workers)):
            raise ConfigError(f"worker counts must be in 1..{MAX_WORKERS}")
        if self.sweep_repeats < 1:
            raise ConfigError("sweep repeats must be >= 1")
        for literal in self.sweep_strategies:
            parse_strategy_literal(literal)  # fails before the sweep runs any cell
        if self.dt_mechanics <= 0 or self.dt_diffusion <= 0:
            raise ConfigError("time steps must be > 0")
        if self.timings not in _TIMINGS_MODES:
            raise ConfigError(f"timings mode must be one of {_TIMINGS_MODES}")
        if self.seed_box:
            if len(self.seed_box) != 6:
                raise ConfigError("seed box needs six numbers: x0,y0,z0,x1,y1,z1")
            x0, y0, z0, x1, y1, z1 = self.seed_box
            if x0 > x1 or y0 > y1 or z0 > z1:
                raise ConfigError("seed box lower corner must not exceed upper corner")
        self.substeps  # validate the dt ratio eagerly

    @property
    def substeps(self) -> int:
        ratio = self.dt_mechanics / self.dt_diffusion
        if not ratio < MAX_SUBSTEPS + 0.5:  # an infinite ratio fails here too
            raise ConfigError(f"dt.mechanics / dt.diffusion = {ratio:g} exceeds "
                              f"{MAX_SUBSTEPS} diffusion substeps per step")
        n = max(1, round(ratio))
        if abs(ratio - n) > 1e-9 * n:
            raise ConfigError(
                "dt.mechanics must be an integer multiple of dt.diffusion "
                f"(ratio {ratio})"
            )
        return n

    def mesh(self) -> CartesianMesh:
        return CartesianMesh(self.nx, self.ny, self.nz, self.dx, self.dy, self.dz)

    def interaction_params(self) -> InteractionParams:
        return InteractionParams(self.repulsion, self.adhesion, self.adhesion_multiplier)


def _parse_workers_list(value: str) -> tuple:
    try:
        parsed = tuple(int(p) for p in value.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"worker list must be comma-separated ints, got {value!r}") from None
    if not parsed:
        raise ConfigError("worker list must not be empty")
    return parsed


def _parse_box(value: str) -> tuple:
    parts = value.replace(",", " ").split()
    if not parts:
        return ()
    try:
        box = tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"seed box must be six numbers, got {value!r}") from None
    return box


_SETTERS = {
    "mesh.nx": ("nx", int),
    "mesh.ny": ("ny", int),
    "mesh.nz": ("nz", int),
    "mesh.dx": ("dx", float),
    "mesh.dy": ("dy", float),
    "mesh.dz": ("dz", float),
    "substrate.diffusion": ("diffusion", float),
    "substrate.decay": ("decay", float),
    "substrate.initial": ("initial_density", float),
    "substrate.secretion": ("secretion", float),
    "substrate.uptake": ("uptake", float),
    "substrate.saturation": ("saturation", float),
    "cells.count": ("cell_count", int),
    "cells.radius": ("cell_radius", float),
    "cells.division_rate": ("division_rate", float),
    "cells.cap": ("cell_cap", int),
    "cells.box": ("seed_box", _parse_box),
    "forces.repulsion": ("repulsion", float),
    "forces.adhesion": ("adhesion", float),
    "forces.multiplier": ("adhesion_multiplier", float),
    "dt.mechanics": ("dt_mechanics", float),
    "dt.diffusion": ("dt_diffusion", float),
    "steps": ("steps", int),
    "seed": ("seed", int),
    "workers": ("workers", int),
    "strategy.allocation": ("strategy.allocation", parse_allocation),
    "strategy.traversal": ("strategy.traversal", parse_traversal),
    "strategy.schedule": ("strategy.schedule", parse_schedule),
    "strategy.storage": ("strategy.storage", parse_storage),
    "sweep.workers": ("sweep_workers", _parse_workers_list),
    "sweep.repeats": ("sweep_repeats", int),
    "sweep.strategies": (
        "sweep_strategies",
        lambda v: tuple(s.strip() for s in v.split(";") if s.strip()),
    ),
    "timings": ("timings", str),
    "out": ("out", str),
}


def parse_config_text(text: str) -> dict:
    """Key/value pairs from config text; later lines override earlier ones."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def build_config(entries: dict, base: RunConfig | None = None) -> RunConfig:
    """Apply key/value entries on top of a base config (defaults if omitted)."""
    cfg = base or RunConfig()
    plain: dict = {}
    strategy_updates: dict = {}
    for key, value in entries.items():
        setter = _SETTERS.get(key)
        if setter is None:
            raise ConfigError(f"unknown config key {key!r}")
        name, convert = setter
        try:
            converted = convert(value) if convert is not str else value
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None
        if name.startswith("strategy."):
            strategy_updates[name.split(".", 1)[1]] = converted
        else:
            plain[name] = converted
    if strategy_updates:
        plain["strategy"] = replace(cfg.strategy, **strategy_updates)
    try:
        return replace(cfg, **plain)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        entries = parse_config_text(fh.read())
    cfg = build_config(entries)
    if overrides:
        cfg = build_config(overrides, base=cfg)
    return cfg


def format_config(cfg: RunConfig) -> str:
    """Resolved config in the same flat format, for archiving next to outputs."""
    strat = cfg.strategy
    lines = [
        f"mesh.nx = {cfg.nx}",
        f"mesh.ny = {cfg.ny}",
        f"mesh.nz = {cfg.nz}",
        f"mesh.dx = {cfg.dx}",
        f"mesh.dy = {cfg.dy}",
        f"mesh.dz = {cfg.dz}",
        f"substrate.diffusion = {cfg.diffusion}",
        f"substrate.decay = {cfg.decay}",
        f"substrate.initial = {cfg.initial_density}",
        f"substrate.secretion = {cfg.secretion}",
        f"substrate.uptake = {cfg.uptake}",
        f"substrate.saturation = {cfg.saturation}",
        f"cells.count = {cfg.cell_count}",
        f"cells.radius = {cfg.cell_radius}",
        f"cells.division_rate = {cfg.division_rate}",
        f"cells.cap = {cfg.cell_cap}",
        f"cells.box = {','.join(str(v) for v in cfg.seed_box)}",
        f"forces.repulsion = {cfg.repulsion}",
        f"forces.adhesion = {cfg.adhesion}",
        f"forces.multiplier = {cfg.adhesion_multiplier}",
        f"dt.mechanics = {cfg.dt_mechanics}",
        f"dt.diffusion = {cfg.dt_diffusion}",
        f"steps = {cfg.steps}",
        f"seed = {cfg.seed}",
        f"workers = {cfg.workers}",
        f"strategy.allocation = {'temp' if strat.allocation is AllocationMode.TEMPORARY_ALLOCATING else 'inplace'}",
        f"strategy.traversal = {'outer' if strat.traversal is TraversalMode.OUTER_LOOP else 'collapsed'}",
        f"strategy.schedule = {strat.literal().split('/')[2]}",
        f"strategy.storage = {strat.literal().split('/')[3]}",
        f"sweep.workers = {','.join(str(w) for w in cfg.sweep_workers)}",
        f"sweep.repeats = {cfg.sweep_repeats}",
        f"sweep.strategies = {';'.join(cfg.sweep_strategies)}",
        f"timings = {cfg.timings}",
        f"out = {cfg.out}",
    ]
    return "\n".join(lines) + "\n"
