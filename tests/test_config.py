"""Config file parsing, strategy literals, and override layering."""

import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

import cellbench as cb
from cellbench import (
    AllocationMode,
    ConfigError,
    RunConfig,
    ScheduleKind,
    StorageKind,
    StrategyConfig,
    TraversalMode,
    build_config,
    format_config,
    load_config,
    parse_config_text,
    parse_strategy_literal,
)
from cellbench.config import (
    CONFIG_KEYS,
    MAX_SUBSTEPS,
    MAX_VOXELS,
    MAX_WORKERS,
    STRATEGY_PARTS,
)


# ---------------------------------------------------------------- literals

ALL_LITERALS = [
    "temp/outer/cell_static/append",
    "inplace/collapsed/cell_dynamic(8)/sorted(25)",
    "inplace/outer/voxel(16)/append",
    "temp/collapsed/nonempty_voxel(4)/sorted(50)",
]


@pytest.mark.parametrize("literal", ALL_LITERALS)
def test_strategy_literal_roundtrip(literal):
    strat = parse_strategy_literal(literal)
    assert strat.literal() == literal
    assert parse_strategy_literal(strat.literal()) == strat


def test_strategy_literal_fields():
    strat = parse_strategy_literal("temp/collapsed/nonempty_voxel(4)/sorted(9)")
    assert strat.allocation is AllocationMode.TEMPORARY_ALLOCATING
    assert strat.traversal is TraversalMode.COLLAPSED
    assert strat.schedule.kind is ScheduleKind.NONEMPTY_VOXEL
    assert strat.schedule.grain == 4
    assert strat.storage.kind is StorageKind.VOXEL_SORTED
    assert strat.storage.every == 9


def test_default_strategy_literal():
    assert StrategyConfig().literal() == "inplace/outer/cell_static/append"


@pytest.mark.parametrize("bad", [
    "temp/outer/cell_static",  # missing storage part
    "warp/outer/cell_static/append",  # unknown allocation
    "temp/zigzag/cell_static/append",  # unknown traversal
    "temp/outer/cell_static(8)/append",  # static takes no grain
    "temp/outer/voxel(0)/append",  # grain must be >= 1
    "temp/outer/voxel(x)/append",
    "temp/outer/cell_static/append(10)",  # append takes no period
    "temp/outer/cell_static/sorted(0)",
])
def test_bad_strategy_literals_raise(bad):
    with pytest.raises(ConfigError):
        parse_strategy_literal(bad)


def test_strategy_errors_name_the_part_and_its_spellings():
    with pytest.raises(ConfigError, match=r"allocation: must be one of temp, inplace, got 'warp'"):
        parse_strategy_literal("warp/outer/cell_static/append")
    with pytest.raises(ConfigError, match=r"schedule: must be one of cell_static, cell_dynamic"):
        parse_strategy_literal("temp/outer/zigzag(4)/append")
    with pytest.raises(ConfigError, match=r"strategy.storage: append takes no number"):
        build_config({"strategy.storage": "append(3)"})


# ---------------------------------------------------------------- file format

SAMPLE = """
# mesh geometry
mesh.nx = 8
mesh.ny = 8
mesh.nz = 8
cells.count = 100        # inline comment
dt.mechanics = 0.2
dt.diffusion = 0.05
strategy.schedule = voxel(32)
strategy.allocation = temp
sweep.workers = 1,2,4
cells.box = 10,10,10,150,150,150
"""


def test_parse_and_build_from_text():
    cfg = build_config(parse_config_text(SAMPLE))
    assert (cfg.nx, cfg.ny, cfg.nz) == (8, 8, 8)
    assert cfg.cell_count == 100
    assert cfg.dt_mechanics == 0.2
    assert cfg.substeps == 4
    assert cfg.strategy.schedule.kind is ScheduleKind.VOXEL
    assert cfg.strategy.schedule.grain == 32
    assert cfg.strategy.allocation is AllocationMode.TEMPORARY_ALLOCATING
    assert cfg.strategy.traversal is TraversalMode.OUTER_LOOP  # untouched default
    assert cfg.sweep_workers == (1, 2, 4)
    assert cfg.seed_box == (10.0, 10.0, 10.0, 150.0, 150.0, 150.0)


def test_later_lines_override_earlier_ones():
    entries = parse_config_text("steps = 5\nsteps = 9\n")
    assert build_config(entries).steps == 9


def test_unknown_key_raises():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_config({"mesh.nw": "4"})


def test_bad_value_raises():
    with pytest.raises(ConfigError, match="bad value"):
        build_config({"mesh.nx": "many"})
    with pytest.raises(ConfigError):
        build_config({"cells.box": "1,2,3"})  # needs 6 floats


def test_malformed_line_raises():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("steps = 5\nnot a key value line\n")


def test_format_config_roundtrips(tmp_path):
    cfg = build_config(parse_config_text(SAMPLE))
    text = format_config(cfg)
    again = build_config(parse_config_text(text))
    assert again == cfg

    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert load_config(str(path)) == cfg


# format_config output over these configs is pinned byte for byte: the
# default, every strategy part and list key set, and the kinds whose grain or
# period is left to its default
PINNED_CONFIGS = [
    {},
    {
        "strategy.allocation": "temp",
        "strategy.traversal": "collapsed",
        "strategy.schedule": "nonempty_voxel(4)",
        "strategy.storage": "sorted(9)",
        "cells.box": "10,10,10,150,150,150",
        "sweep.workers": "1,2,4",
        "sweep.strategies": "temp/outer/cell_static/append; inplace/collapsed/voxel(8)/sorted(3)",
        "dt.mechanics": "0.2",
        "dt.diffusion": "0.05",
        "timings": "aggregate",
        "out": "elsewhere",
    },
    {"strategy.schedule": "cell_dynamic", "strategy.storage": "sorted"},
]
FORMAT_DIGEST = "6d7a129ca12bfa295447bad372df53733382d14756e98bac6566411fdfefac4c"


def test_format_config_output_is_pinned():
    text = "".join(format_config(build_config(entries)) for entries in PINNED_CONFIGS)
    assert hashlib.sha256(text.encode()).hexdigest() == FORMAT_DIGEST


def test_key_table_reaches_every_field_once():
    reached = sorted(key.field for key in CONFIG_KEYS.values())
    expected = sorted([f.name for f in fields(RunConfig) if f.name != "strategy"]
                      + [f"strategy.{f.name}" for f in fields(StrategyConfig)])
    assert reached == expected
    assert list(STRATEGY_PARTS) == [f.name for f in fields(StrategyConfig)]


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text("steps = 50\ncells.count = 10\n")
    cfg = load_config(str(path), overrides={"steps": "7"})
    assert cfg.steps == 7
    assert cfg.cell_count == 10


def test_load_config_builds_once_with_the_overrides(tmp_path):
    # the file alone is refused; only the merged config is validated
    path = tmp_path / "broken.cfg"
    path.write_text("cells.count = 300000\ndt.diffusion = 0.07\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    cfg = load_config(str(path), overrides={"cells.count": "10", "dt.mechanics": "0.14"})
    assert (cfg.cell_count, cfg.dt_mechanics, cfg.substeps) == (10, 0.14, 2)


# ---------------------------------------------------------------- validation

def test_substep_ratio_must_be_integral():
    cfg = RunConfig(dt_mechanics=0.1, dt_diffusion=0.05)
    assert cfg.substeps == 2
    with pytest.raises(ConfigError):
        RunConfig(dt_mechanics=0.1, dt_diffusion=0.03)


def test_diffusion_step_cannot_exceed_mechanics_step():
    with pytest.raises(ConfigError):
        RunConfig(dt_mechanics=0.1, dt_diffusion=0.2)


def test_substep_count_is_bounded():
    # constructing the config is the whole check: a run would never end
    assert RunConfig(dt_mechanics=MAX_SUBSTEPS * 0.125, dt_diffusion=0.125).substeps \
        == MAX_SUBSTEPS
    for dt_mechanics, dt_diffusion in [((MAX_SUBSTEPS + 1) * 0.125, 0.125),
                                       (1e300, 0.1), (1e300, 1e-300)]:
        with pytest.raises(ConfigError, match="substeps"):
            RunConfig(dt_mechanics=dt_mechanics, dt_diffusion=dt_diffusion)


@pytest.mark.parametrize("over", [
    dict(workers=MAX_WORKERS + 1),
    dict(workers=100_000),
    dict(sweep_workers=(1, MAX_WORKERS + 1)),
    dict(sweep_workers=()),
    dict(nx=MAX_VOXELS + 1, ny=1, nz=1),
    dict(nx=100_000, ny=100_000, nz=100_000),  # 1e15 voxels
    dict(cell_count=11, cell_cap=10),
], ids=lambda over: " ".join(f"{k}={v}" for k, v in over.items()))
def test_run_size_is_bounded(over):
    # constructing the config is the whole check: no run and no pool starts
    with pytest.raises(ConfigError):
        RunConfig(**over)


def test_run_size_limits_are_inclusive():
    cfg = RunConfig(workers=MAX_WORKERS, sweep_workers=(1, MAX_WORKERS),
                    nx=MAX_VOXELS // 4, ny=2, nz=2, cell_count=10, cell_cap=10)
    assert cfg.mesh().voxel_count == MAX_VOXELS


@pytest.mark.parametrize("field", ["cell_radius", "secretion", "uptake", "saturation",
                                   "division_rate", "initial_density"])
def test_negative_cell_and_exchange_parameters_raise(field):
    with pytest.raises(ConfigError):
        RunConfig(**{field: -3.0})
    if field == "cell_radius":
        with pytest.raises(ConfigError):
            RunConfig(cell_radius=0.0)
    else:
        RunConfig(**{field: 0.0})


def test_basic_field_validation():
    with pytest.raises(ConfigError):
        RunConfig(nx=0)
    with pytest.raises(ConfigError):
        RunConfig(cell_count=-1)
    with pytest.raises(ConfigError):
        RunConfig(workers=0)
    with pytest.raises(ConfigError):
        RunConfig(steps=-1)
    with pytest.raises(ConfigError):
        RunConfig(timings="sometimes")
    with pytest.raises(ConfigError):
        RunConfig(seed_box=(0.0, 0.0, 0.0, 1.0, 1.0))  # not 6 values
    with pytest.raises(ConfigError):
        RunConfig(seed_box=(50.0, 0.0, 0.0, 10.0, 1.0, 1.0))  # lo > hi


def test_mesh_and_params_builders():
    cfg = RunConfig(nx=5, ny=6, nz=7, repulsion=3.0)
    mesh = cfg.mesh()
    assert (mesh.nx, mesh.ny, mesh.nz) == (5, 6, 7)
    assert cfg.interaction_params().repulsion == 3.0


def test_readme_lists_the_true_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.splitlines():
        keys, sep, rest = line.partition("=")
        if sep:  # the strategy.* keys point at the strategy table instead
            for key in keys.split("/"):
                documented[key.strip()] = rest.split()[0]
    actual = dict(line.split(" = ", 1) for line in format_config(RunConfig()).splitlines())
    # these default to empty; the README shows their format instead
    for key in ("cells.box", "sweep.strategies"):
        assert actual.pop(key) == ""
        documented.pop(key)
    actual = {k: v for k, v in actual.items() if not k.startswith("strategy.")}
    assert documented == actual
