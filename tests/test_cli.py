"""Exit codes, report files, and output shape of the command-line front end."""

import csv
import subprocess
import sys
import warnings

import pytest

import cellbench.cli as cli
from cellbench import (
    ContainerStateError,
    EquivalenceReport,
    InconsistentTraceError,
    UndefinedMetricError,
    load_config,
)

CFG_TEXT = """
mesh.nx = 5
mesh.ny = 5
mesh.nz = 5
cells.count = 30
cells.box = 10,10,10,90,90,90
steps = 2
seed = 3
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(CFG_TEXT)
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------- model

def test_model_table(capsys):
    assert run_cli("model", "--chunks", "75", "--max-workers", "12") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["workers", "chunks_per_worker", "model_lb",
                                    "model_speedup"]
    table = {int(r[0]): r for r in (ln.split("\t") for ln in lines[1:])}
    assert table[8][2] == "0.937500"
    assert table[11][2] == "0.974026"  # more workers, better balance
    assert table[11][3] == table[12][3]  # shared ceiling, shared plateau


def test_model_measure_adds_measured_columns(capsys):
    assert run_cli("model", "--chunks", "8", "--max-workers", "2", "--measure") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["workers", "chunks_per_worker", "model_lb",
                                    "model_speedup", "measured_lb", "diff"]
    assert len(lines) == 3
    for line in lines[1:]:
        row = line.split("\t")
        assert row[2] == "1.000000"  # 8 chunks split evenly over 1 and 2 workers
        measured, diff = float(row[4]), float(row[5])
        assert 0.0 < measured <= 1.0
        assert diff == pytest.approx(measured - 1.0, abs=1e-4)


def test_model_measure_caps_the_worker_count(capsys):
    # refused before any worker starts
    assert run_cli("model", "--max-workers", "257", "--measure") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-workers <= 256" in captured.err


@pytest.mark.parametrize("flag, value", [("--max-workers", "-1"), ("--max-workers", "0"),
                                         ("--chunks", "0")])
def test_bad_model_flag_is_a_config_error(capsys, flag, value):
    assert run_cli("model", flag, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # not even the header
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- run

def test_run_writes_reports(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = run_cli("run", "--config", cfg_file, "--set", "steps=1",
                   "--out", out)
    assert code == 0
    stdout = capsys.readouterr().out
    assert "checksum" in stdout
    for name in ("timings.csv", "efficiency.csv", "config.resolved.txt"):
        assert (tmp_path / "out" / name).exists()
    resolved = load_config(str(tmp_path / "out" / "config.resolved.txt"))
    assert resolved.steps == 1  # --set wins over the file
    assert resolved.out == out


@pytest.mark.parametrize("mode, names", [
    ("full", ["timings.csv", "efficiency.csv", "config.resolved.txt"]),
    ("off", ["efficiency.csv", "config.resolved.txt"]),
], ids=["full", "off"])
def test_run_lists_only_the_files_it_wrote(cfg_file, tmp_path, capsys, mode, names):
    out = tmp_path / "out"
    out.mkdir()
    (out / "timings.csv").write_text("stale\n")
    assert run_cli("run", "--config", cfg_file, "--out", str(out),
                   "--set", f"timings={mode}") == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [ln.split()[1:] for ln in lines if ln.startswith("outputs")]
    assert listed == [[str(out / name) for name in names]]
    assert ((out / "timings.csv").read_text() == "stale\n") == (mode == "off")


def test_resolved_config_reproduces_the_run(cfg_file, tmp_path, capsys):
    out = tmp_path / "out"
    settings = ["strategy.allocation=temp", "strategy.traversal=collapsed",
                "strategy.schedule=nonempty_voxel(4)", "strategy.storage=sorted(1)"]
    argv = ["run", "--config", cfg_file, "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert run_cli(*argv) == 0
    first = capsys.readouterr().out
    resolved = (out / "config.resolved.txt").read_bytes()
    assert b"cells.box = 10.0,10.0,10.0,90.0,90.0,90.0\n" in resolved

    assert run_cli("run", "--config", str(out / "config.resolved.txt")) == 0
    second = capsys.readouterr().out
    checksum = [line for line in first.splitlines() if line.startswith("checksum")]
    assert checksum and checksum == [ln for ln in second.splitlines()
                                     if ln.startswith("checksum")]
    assert (out / "config.resolved.txt").read_bytes() == resolved


VERIFY_SIDES = ["-A", "inplace/outer/cell_static/append",
                "-B", "temp/outer/cell_static/append"]


# each file line alone is a config error; the later layer repairs it, and
# only the merged config is validated
@pytest.mark.parametrize("line, argv, field, value", [
    ("cells.count = 300000", ["run", "--set", "cells.count=10"], "cell_count", 10),
    ("dt.diffusion = 0.07", ["run", "--set", "dt.mechanics=0.14"], "dt_mechanics", 0.14),
    ("sweep.workers = 1,1", ["sweep", "--workers", "1,2", "--repeats", "1"],
     "sweep_workers", (1, 2)),
    ("", ["sweep", "--set", "sweep.repeats=0", "--repeats", "1", "--workers", "1"],
     "sweep_repeats", 1),
    ("workers = 300", ["verify", *VERIFY_SIDES, "--workers-a", "1", "--workers-b", "2"],
     "workers", 1),
], ids=["set-count", "set-dt", "sweep-workers", "flag-over-set", "verify-workers"])
def test_each_command_validates_only_its_merged_config(tmp_path, capsys, monkeypatch,
                                                       line, argv, field, value):
    path = tmp_path / "layered.cfg"
    path.write_text(f"{CFG_TEXT}{line}\n")
    built = []

    def spy(*args):
        built.append(load_config(*args))
        return built[-1]

    monkeypatch.setattr(cli, "load_config", spy)
    out = [] if argv[0] == "verify" else ["--out", str(tmp_path / "o")]
    assert run_cli(*argv, "--config", str(path), *out) == 0
    assert capsys.readouterr().err == ""
    assert getattr(built[0], field) == value
    assert len(built) == (2 if argv[0] == "verify" else 1)


def test_verify_takes_no_out_dir(cfg_file, tmp_path, capsys):
    # verify writes no file, so an --out would be dropped without a word
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--config", cfg_file, *VERIFY_SIDES, "--out", str(tmp_path / "o"))
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_unusable_out_dir_fails_before_any_run(cfg_file, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run_cli(command, "--config", cfg_file, "--out", str(blocker / "out")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing ran
    assert captured.err.startswith("config error: cannot create output directory")
    assert captured.err.count("\n") == 1


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert run_cli("run", "--config", str(tmp_path / "missing.cfg")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: cannot read config file")
    assert captured.err.count("\n") == 1


def test_unknown_set_key_is_a_config_error(cfg_file, capsys):
    assert run_cli("run", "--config", cfg_file, "--set", "mesh.nw=9") == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "cells.radius=nan", "mesh.dx=nan", "forces.adhesion=inf",
    "cells.box=10,10,10,nan,90,90",
])
def test_non_finite_value_is_a_config_error(cfg_file, capsys, setting):
    assert run_cli("run", "--config", cfg_file, "--set", setting) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("settings", [
    ["substrate.uptake=-1000"],
    ["substrate.decay=-1"],
    ["forces.multiplier=0.5"],
    ["forces.repulsion=-1"],
    ["cells.radius=15"],  # reach 37.5 um > 20 um voxel edge
    ["cells.radius=-3"],
    ["substrate.secretion=-1"],
    ["substrate.saturation=-1"],
    ["substrate.secretion=1e300", "substrate.saturation=1e300"],  # field overflows
    ["cells.cap=20"],  # below the 30 seeded cells
    ["cells.division_rate=-1"],
    ["substrate.initial=-5"],
], ids=" ".join)
def test_out_of_domain_value_is_a_config_error(cfg_file, tmp_path, capsys, settings):
    argv = ["run", "--config", cfg_file, "--out", str(tmp_path / "o"), "--set", "steps=1"]
    for setting in settings:
        argv += ["--set", setting]
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_overflowing_exchange_stops_before_numpy_sees_it(cfg_file, tmp_path, capsys):
    # the exchange raises at the first non-finite density, so neither the
    # solver nor the gradients ever compute with inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("run", "--config", cfg_file, "--out", str(tmp_path / "o"),
                       "--set", "substrate.secretion=1e300",
                       "--set", "substrate.saturation=1e300")
    assert code == 2
    assert "left the finite range" in capsys.readouterr().err


def test_non_finite_velocity_is_a_numeric_error(cfg_file, tmp_path, capsys):
    # packed cells under a huge repulsion sum infinite terms to NaN; the
    # integration stops there instead of binning a NaN position
    code = run_cli("run", "--config", cfg_file, "--out", str(tmp_path / "o"),
                   "--set", "forces.repulsion=1e308",
                   "--set", "cells.box=40,40,40,41,41,41")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "non-finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("error", [ContainerStateError, InconsistentTraceError,
                                   UndefinedMetricError], ids=lambda e: e.__name__)
def test_other_package_errors_are_internal_errors(cfg_file, capsys, monkeypatch, error):
    def broken(args):
        raise error("invariant broken")

    monkeypatch.setattr(cli, "_cmd_run", broken)
    assert run_cli("run", "--config", cfg_file) == 5
    err = capsys.readouterr().err
    assert err == f"internal error: {error.__name__}: invariant broken\n"


def test_malformed_set_flag(cfg_file, capsys):
    assert run_cli("run", "--config", cfg_file, "--set", "steps") == 2


def test_capacity_exhaustion_exit_code(cfg_file, tmp_path, capsys):
    code = run_cli(
        "run", "--config", cfg_file, "--out", str(tmp_path / "o"),
        "--set", "cells.division_rate=5.0", "--set", "cells.cap=35",
        "--set", "steps=10",
    )
    assert code == 4
    assert "capacity error" in capsys.readouterr().err


def test_too_many_candidate_pairs_is_a_capacity_error(tmp_path, capsys):
    # 5,000 cells in one voxel: more candidate pairs than the pair lists may hold
    argv = ["run", "--out", str(tmp_path / "o")]
    for setting in ("cells.count=5000", "cells.box=21,21,21,38,38,38", "mesh.nx=4",
                    "mesh.ny=4", "mesh.nz=4", "steps=1"):
        argv += ["--set", setting]
    assert run_cli(*argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and "candidate pairs" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------- sweep

def test_sweep_outputs(cfg_file, tmp_path, capsys):
    out = str(tmp_path / "sw")
    code = run_cli(
        "sweep", "--config", cfg_file, "--out", out,
        "--workers", "1,2", "--repeats", "1",
        "--strategies",
        "inplace/outer/cell_static/append;temp/outer/voxel(16)/append",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "baseline  inplace/outer/cell_static/append" in stdout
    assert stdout.count("\tok") == 4
    assert (tmp_path / "sw" / "speedup.tsv").exists()
    # every row of a sweep has a base run, so no efficiency column is blank
    with open(tmp_path / "sw" / "efficiency.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {(row["allocation"], row["workers"]) for row in rows} == {
        ("inplace", "1"), ("inplace", "2"), ("temp", "1"), ("temp", "2")}
    assert {key for row in rows for key, value in row.items() if value == ""} == set()


@pytest.mark.parametrize("flag, value", [
    ("--workers", "a"),
    ("--workers", "1,0"),
    ("--repeats", "0"),
    ("--repeats", "-1"),
    ("--repeats", "a"),
    ("--strategies", "temp/sideways/cell_static/append"),
    ("--workers", "1,1"),
    ("--strategies", "inplace/outer/cell_dynamic/append;inplace/outer/cell_dynamic(16)/append"),
])
def test_bad_sweep_matrix_is_a_config_error(cfg_file, tmp_path, capsys, flag, value):
    code = run_cli("sweep", "--config", cfg_file, "--out", str(tmp_path / "sw"),
                   flag, value)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ")
    assert captured.out == ""  # no matrix row was run or printed


def test_sweep_exits_3_when_a_strategy_diverges(cfg_file, tmp_path, capsys, temp_add_drifts):
    # the config clusters its cells, so they interact and the drift shows
    base, temp = "inplace/outer/cell_static/append", "temp/outer/cell_static/append"
    out = tmp_path / "sw"
    code = run_cli("sweep", "--config", cfg_file, "--out", str(out),
                   "--workers", "1,2", "--repeats", "1", "--strategies", f"{base};{temp}")
    assert code == 3
    rows = [ln.split("\t") for ln in capsys.readouterr().out.splitlines()
            if ln.startswith((base, temp))]
    assert [(r[0], r[1]) for r in rows] == [(base, "1"), (base, "2"), (temp, "1"), (temp, "2")]
    for row in rows:
        if row[0] == base:
            assert row[-1] == "ok"
        else:
            assert row[2:6] == ["-"] * 4
            assert row[-1].startswith(f"FAIL: differs from {base}/w1/r0: cell ")
    table = [ln.split("\t") for ln in (out / "speedup.tsv").read_text().splitlines()]
    assert table[0][3:] == [f"{temp}:speedup", f"{temp}:vs_base"]
    assert all(row[3:] == ["", ""] and row[1] for row in table[1:])
    with open(out / "efficiency.csv", newline="") as fh:
        assert {row["allocation"] for row in csv.DictReader(fh)} == {"inplace"}


def test_sweep_reraises_a_failed_cell_after_printing_every_row(cfg_file, tmp_path, capsys):
    code = run_cli("sweep", "--config", cfg_file, "--out", str(tmp_path / "sw"),
                   "--workers", "1,2", "--repeats", "1", "--set", "cells.radius=9")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out.count("\tFAIL: DomainError: ") == 2
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------- verify

def test_verify_pass(cfg_file, capsys):
    code = run_cli(
        "verify", "--config", cfg_file,
        "-A", "inplace/outer/cell_static/append",
        "-B", "temp/collapsed/nonempty_voxel(4)/sorted(1)",
        "--workers-b", "3",
    )
    assert code == 0
    assert "PASS: bit-identical final state" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--workers-a", "--workers-b"])
@pytest.mark.parametrize("value", ["0", "-1", "257"])
def test_bad_verify_workers_are_a_config_error(cfg_file, capsys, flag, value):
    code = run_cli("verify", "--config", cfg_file,
                   "-A", "inplace/outer/cell_static/append",
                   "-B", "inplace/outer/cell_static/append", flag, value)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # neither side ran
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


def test_verify_failure_exit_code(cfg_file, capsys, monkeypatch):
    # wiring check: a failed report must surface as exit code 3
    monkeypatch.setattr(
        cli, "verify_equivalence",
        lambda a, b: EquivalenceReport(False, "cell 0 velocity differs",
                                       "aaaa", "bbbb"),
    )
    code = run_cli("verify", "--config", cfg_file,
                   "-A", "inplace/outer/cell_static/append",
                   "-B", "temp/outer/cell_static/append")
    assert code == 3
    assert "FAIL: cell 0 velocity differs" in capsys.readouterr().out


# ---------------------------------------------------------------- packaging

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cellbench", "model", "--chunks", "6",
         "--max-workers", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("workers\t")
