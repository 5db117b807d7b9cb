"""Run configuration: flat "key = value" text files with dotted key paths.

The format is deliberately primitive -- one `key = value` per line, `#`
comments, no sections, no nesting -- so configs stay diff-friendly and any
tool can generate them.  A command merges file entries, then CLI
`--set key=value` pairs, then its own flags into one dict, and
`build_config` turns that dict into a `RunConfig` and validates it once.

Strategy literals name one point of the optimization space in a single
slash-joined token, e.g. ``temp/outer/cell_static/append`` or
``inplace/collapsed/nonempty_voxel(16)/sorted(50)``: allocation mode,
solver/gradient traversal, mechanics schedule, and cell storage order.  Each
part is spelled by its enum value, with ``(n)`` for the schedule grain or the
resort period.  `STRATEGY_PARTS` is the one place that spells a part, and
each `RunConfig` field declares its own key; `CONFIG_KEYS` is built from
both, and parsing, `StrategyConfig.literal()` and `format_config` all read
them.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field, fields
from functools import partial, reduce
from typing import Any, Callable, NamedTuple

from .core import CartesianMesh
from .diffusion import TraversalMode
from .errors import ConfigError, DomainError
from .mechanics import InteractionParams, MechanicsSchedule, ScheduleKind
from .population import DEFAULT_CELL_CAP, StorageKind, StorageOrder
from .smallvec import AllocationMode

_TIMINGS_MODES = ("full", "aggregate", "off")

#: Most diffusion substeps one mechanics step may ask for.
MAX_SUBSTEPS = 1_000_000
#: Most worker threads one run may start.
MAX_WORKERS = 256
#: Most mesh voxels (nx * ny * nz); a density field this large is 128 MiB.
MAX_VOXELS = 2 ** 24

_SIZED_RE = re.compile(r"^([a-z_]+)(?:\((\d+)\))?$")


def _parse_enum(kind: type[enum.Enum], text: str):
    try:
        return kind(text.strip())
    except ValueError:
        accepted = ", ".join(member.value for member in kind)
        raise ConfigError(f"must be one of {accepted}, got {text!r}") from None


def _format_enum(member: enum.Enum) -> str:
    return member.value


def _sized(cls, bare: enum.Enum):
    """Parser and formatter of `name` / `name(n)` values of `cls`.

    `name` is a kind, `n` the second field of `cls`; every kind but `bare`
    takes `n` and falls back to the field default without it.
    """
    size = fields(cls)[1].name

    def parse(text: str):
        m = _SIZED_RE.match(text.strip())
        if not m:
            raise ConfigError(f"expected name or name(n), got {text!r}")
        kind, n = _parse_enum(type(bare), m.group(1)), m.group(2)
        if kind is bare and n is not None:
            raise ConfigError(f"{bare.value} takes no number")
        try:
            return cls(kind, int(n)) if n else cls(kind)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None

    def fmt(value) -> str:
        kind = value.kind.value
        return kind if value.kind is bare else f"{kind}({getattr(value, size)})"

    return parse, fmt


#: part -> (parser, formatter) of each strategy part, in literal order.
STRATEGY_PARTS = {
    "allocation": (partial(_parse_enum, AllocationMode), _format_enum),
    "traversal": (partial(_parse_enum, TraversalMode), _format_enum),
    "schedule": _sized(MechanicsSchedule, ScheduleKind.CELL_STATIC),
    "storage": _sized(StorageOrder, StorageKind.APPEND_ORDER),
}


def _convert(name: str, parse: Callable[[str], Any], text: str):
    try:
        return parse(text)
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
        raise ConfigError(f"bad value for {name}: {exc}") from None


@dataclass(frozen=True)
class StrategyConfig:
    """One point of the optimization space."""

    allocation: AllocationMode = AllocationMode.IN_PLACE
    traversal: TraversalMode = TraversalMode.OUTER_LOOP
    schedule: MechanicsSchedule = MechanicsSchedule(ScheduleKind.CELL_STATIC)
    storage: StorageOrder = StorageOrder(StorageKind.APPEND_ORDER)

    def literal(self) -> str:
        return "/".join(fmt(getattr(self, part)) for part, (_, fmt) in STRATEGY_PARTS.items())


def parse_strategy_literal(text: str) -> StrategyConfig:
    tokens = text.strip().split("/")
    if len(tokens) != len(STRATEGY_PARTS):
        raise ConfigError(f"strategy literal needs {'/'.join(STRATEGY_PARTS)}, got {text!r}")
    return StrategyConfig(**{
        part: _convert(part, parse, token)
        for (part, (parse, _)), token in zip(STRATEGY_PARTS.items(), tokens)
    })


def _numbers(convert: Callable[[str], Any]) -> Callable[[str], tuple]:
    """Parser of a comma- or space-separated list of numbers."""
    return lambda text: tuple(convert(p) for p in text.replace(",", " ").split())


def _literals(text: str) -> tuple:
    """Parser of a semicolon-separated list of strategy literals."""
    return tuple(s.strip() for s in text.split(";") if s.strip())


def _joined(sep: str) -> Callable[[tuple], str]:
    return lambda values: sep.join(str(v) for v in values)


def _setting(key: str, default, parse: Callable[[str], Any] | None = None,
             fmt: Callable[[Any], str] = str):
    """A `RunConfig` field read and written as config key `key`; `parse`
    defaults to the parser of the field's declared type."""
    return field(default=default, metadata={"key": key, "parse": parse, "format": fmt})


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; identical configs give identical results.

    Each field but `strategy` names its config key; `strategy` is set by
    the `strategy.<part>` keys, one per `STRATEGY_PARTS` entry.
    """

    nx: int = _setting("mesh.nx", 16)
    ny: int = _setting("mesh.ny", 16)
    nz: int = _setting("mesh.nz", 16)
    dx: float = _setting("mesh.dx", 20.0)
    dy: float = _setting("mesh.dy", 20.0)
    dz: float = _setting("mesh.dz", 20.0)
    diffusion: float = _setting("substrate.diffusion", 100000.0)
    decay: float = _setting("substrate.decay", 0.1)
    initial_density: float = _setting("substrate.initial", 38.0)
    secretion: float = _setting("substrate.secretion", 1.0)
    uptake: float = _setting("substrate.uptake", 5.0)
    saturation: float = _setting("substrate.saturation", 38.0)
    cell_count: int = _setting("cells.count", 500)
    cell_radius: float = _setting("cells.radius", 8.0)
    division_rate: float = _setting("cells.division_rate", 0.0)
    cell_cap: int = _setting("cells.cap", DEFAULT_CELL_CAP)
    # (x0,y0,z0,x1,y1,z1) um; empty = whole mesh
    seed_box: tuple = _setting("cells.box", (), _numbers(float), _joined(","))
    repulsion: float = _setting("forces.repulsion", 10.0)
    adhesion: float = _setting("forces.adhesion", 0.4)
    adhesion_multiplier: float = _setting("forces.multiplier", 1.25)
    dt_mechanics: float = _setting("dt.mechanics", 0.1)
    dt_diffusion: float = _setting("dt.diffusion", 0.1)
    steps: int = _setting("steps", 100)
    seed: int = _setting("seed", 42)
    workers: int = _setting("workers", 1)
    strategy: StrategyConfig = StrategyConfig()
    sweep_workers: tuple = _setting("sweep.workers", (1, 2, 4, 8), _numbers(int), _joined(","))
    sweep_repeats: int = _setting("sweep.repeats", 5)
    sweep_strategies: tuple = _setting("sweep.strategies", (), _literals, _joined(";"))
    timings: str = _setting("timings", "full")
    out: str = _setting("out", "runs")

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
        if self.division_rate < 0:
            raise ConfigError("division rate must be >= 0")
        if min(self.initial_density, self.secretion, self.uptake, self.saturation) < 0:
            raise ConfigError("initial density, secretion, uptake and saturation must be >= 0")
        if self.cell_cap < 1:
            raise ConfigError("cell cap must be >= 1")
        if self.cell_count > self.cell_cap:
            raise ConfigError(f"cell count {self.cell_count} exceeds the cell cap {self.cell_cap}")
        if self.steps < 0:
            raise ConfigError("step count must be >= 0")
        if not self.sweep_workers:
            raise ConfigError("sweep worker list must not be empty")
        if not all(1 <= w <= MAX_WORKERS for w in (self.workers, *self.sweep_workers)):
            raise ConfigError(f"worker counts must be in 1..{MAX_WORKERS}")
        if len(set(self.sweep_workers)) < len(self.sweep_workers):
            raise ConfigError(f"sweep worker counts repeat: {self.sweep_workers}")
        if self.sweep_repeats < 1:
            raise ConfigError("sweep repeats must be >= 1")
        # parsing fails before the sweep runs any cell, and two spellings of
        # one strategy share a canonical literal
        literals = [parse_strategy_literal(literal).literal() for literal in self.sweep_strategies]
        if len(set(literals)) < len(literals):
            raise ConfigError(f"sweep strategies repeat: {';'.join(literals)}")
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


class _Key(NamedTuple):
    field: str  # RunConfig field, or strategy.<part>
    parse: Callable[[str], Any]
    format: Callable[[Any], str]


def _config_keys() -> dict:
    keys = {}
    for f in fields(RunConfig):
        if f.name == "strategy":
            keys.update({f"strategy.{part}": _Key(f"strategy.{part}", parse, fmt)
                         for part, (parse, fmt) in STRATEGY_PARTS.items()})
        else:
            parse = f.metadata["parse"] or {"int": int, "float": float, "str": str}[f.type]
            keys[f.metadata["key"]] = _Key(f.name, parse, f.metadata["format"])
    return keys


#: key -> (field, parser, formatter) of every config key, in the order
#: `format_config` writes them: `RunConfig` field order.
CONFIG_KEYS = _config_keys()


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


def build_config(entries: dict) -> RunConfig:
    """The config that key/value `entries` make of the defaults, validated once."""
    plain: dict = {}
    strategy: dict = {}
    for key, value in entries.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse, _ = CONFIG_KEYS[key]
        converted = _convert(key, parse, value)
        if name.startswith("strategy."):
            strategy[name.split(".", 1)[1]] = converted
        else:
            plain[name] = converted
    try:
        return RunConfig(**plain, strategy=StrategyConfig(**strategy))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The config of a file's lines with `overrides` on top, built once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return build_config({**parse_config_text(text), **(overrides or {})})


def format_config(cfg: RunConfig) -> str:
    """Resolved config in the same flat format, for archiving next to outputs."""
    return "".join(f"{key} = {fmt(reduce(getattr, name.split('.'), cfg))}\n"
                   for key, (name, _, fmt) in CONFIG_KEYS.items())
