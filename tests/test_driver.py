import csv
import os

import numpy as np
import pytest

from kepes import driver
from kepes.cli import main
from kepes.config import config_from_dict
from kepes.diagnostics import BudgetReport
from kepes.driver import run
from kepes.presets import preset
from kepes.thermo import GasModel, PrimState, physical_entropy


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


@pytest.fixture(scope="module")
def sod_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sod")
    result = run(preset("sod"), str(out))
    assert result.status == 0
    return result


class TestRunArtifacts:
    def test_sod_completes_with_full_snapshot(self, sod_run):
        final = os.path.join(sod_run.output_dir, "snapshot_final.csv")
        assert os.path.exists(final)
        data = read_csv(final)
        assert len(data["x"]) == 100
        assert set(data) == {"x", "rho", "u", "p", "T", "s"}

    def test_initial_snapshot_written(self, sod_run):
        first = os.path.join(sod_run.output_dir, "snapshot_0000.csv")
        data = read_csv(first)
        assert np.all(data["rho"][:50] == 1.0)

    def test_budget_columns_fixed_order(self, sod_run):
        with open(sod_run.budget_path) as fh:
            header = fh.readline().strip()
        assert header == BudgetReport.csv_header()
        assert header.startswith("time,total_ke,total_entropy,dke_dt")

    def test_metrics_report_written(self, sod_run):
        with open(sod_run.metrics_path) as fh:
            text = fh.read()
        assert "l1_error_rho" in text
        assert "density_jump_width_cells" in text

    def test_final_time_reached(self, sod_run):
        assert np.isclose(sod_run.final_time, 0.2, atol=1e-12)


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = config_from_dict({"preset": "sod", "n_cells": 64})
        a = run(cfg, str(tmp_path / "a"))
        b = run(cfg, str(tmp_path / "b"))
        for name in ("snapshot_final.csv", "budget.csv"):
            with open(os.path.join(a.output_dir, name), "rb") as fh:
                blob_a = fh.read()
            with open(os.path.join(b.output_dir, name), "rb") as fh:
                blob_b = fh.read()
            assert blob_a == blob_b


def per_value_snapshot(x, prim, gas) -> bytes:
    """A snapshot file as the one-value-at-a-time writer formatted it."""
    T = prim.temperature(gas)
    s = physical_entropy(prim, gas)
    lines = ["x,rho,u,p,T,s\n"]
    for i in range(len(x)):
        lines.append(",".join(f"{v:.17g}" for v in
                              (x[i], prim.rho[i], prim.u[i], prim.p[i],
                               T[i], s[i])) + "\n")
    return "".join(lines).encode("utf-8")


class TestSnapshotBytes:
    """The block writer writes the bytes of the per-value loop."""

    @pytest.fixture
    def columns(self):
        n = driver._CSV_BLOCK_ROWS + 1
        rng = np.random.default_rng(11)
        x = np.linspace(0.0, 1.0, n)
        rho = 0.1 + rng.random(n)
        u = rng.standard_normal(n)
        p = 0.1 + rng.random(n)
        # signed zero, the smallest subnormal, a near-overflow magnitude,
        # an inexact sum, a negative velocity and values that need all 17
        # significant digits, some on either side of the block boundary
        x[0], x[1], x[2], x[3] = -0.0, 5e-324, 1e308, 0.1 + 0.2
        u[0], u[4] = -0.0, -1.2345678901234567
        rho[5], p[5] = 1.0 / 3.0, 2.0 / 3.0
        edge = driver._CSV_BLOCK_ROWS
        x[edge - 1], x[edge] = np.nextafter(0.5, 1.0), -1e-308
        u[edge] = -np.pi
        return x, PrimState(rho, u, p)

    def test_matches_per_value_writer(self, tmp_path, columns):
        x, prim = columns
        gas = GasModel()
        path = tmp_path / "snapshot.csv"
        prefixes = driver._x_prefixes(x)
        driver._write_snapshot(str(path), prefixes, prim, gas)
        blob = path.read_bytes()
        assert blob == per_value_snapshot(x, prim, gas)
        assert blob.count(b"x,rho,u,p,T,s") == 1
        assert b"\r" not in blob
        assert blob.count(b"\n") == len(x) + 1

    @pytest.mark.parametrize("rows", [1, 7, 10_000])
    def test_block_size_never_changes_bytes(self, tmp_path, columns,
                                            monkeypatch, rows):
        x, prim = columns
        gas = GasModel()
        monkeypatch.setattr(driver, "_CSV_BLOCK_ROWS", rows)
        path = tmp_path / "snapshot.csv"
        prefixes = driver._x_prefixes(x)
        driver._write_snapshot(str(path), prefixes, prim, gas)
        assert path.read_bytes() == per_value_snapshot(x, prim, gas)


class TestStationaryContactRun:
    def test_exact_preservation(self, tmp_path):
        result = run(preset("stationary_contact"), str(tmp_path))
        assert result.status == 0
        assert result.steps == 1000
        first = read_csv(os.path.join(result.output_dir, "snapshot_0000.csv"))
        last = read_csv(os.path.join(result.output_dir, "snapshot_final.csv"))
        assert np.abs(last["rho"] - first["rho"]).max() < 1e-12


class TestAbortPath:
    def test_invalid_state_reports_cell_and_time(self, tmp_path):
        # a violent pressure ratio with no dissipation blows up quickly
        cfg = config_from_dict({
            "ic": "riemann", "left_rho": 1.0, "left_u": 0.0, "left_p": 1000.0,
            "right_rho": 0.001, "right_u": 0.0, "right_p": 1e-6,
            "n_cells": 50, "flux": "kepec", "diss": "none",
            "cfl": 0.9, "t_final": 1.0,
        })
        result = run(cfg, str(tmp_path))
        assert result.status == 1
        assert "aborted at t=" in result.message
        assert "cell" in result.message


class TestIoFailure:
    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg = config_from_dict({"preset": "sod", "n_cells": 8,
                                "t_final": 0.01})
        result = run(cfg, str(blocker))
        assert result.status == 2
        assert "i/o failure" in result.message

    @pytest.mark.parametrize("artifact", ["budget.csv", "metrics.txt"])
    def test_unwritable_artifact(self, tmp_path, artifact):
        # a directory in the artifact's place makes its write fail
        (tmp_path / artifact).mkdir()
        cfg = config_from_dict({"preset": "sod", "n_cells": 8,
                                "t_final": 0.01})
        result = run(cfg, str(tmp_path))
        assert result.status == 2
        assert "i/o failure" in result.message


class TestSnapshotCadence:
    def test_interval_snapshots(self, tmp_path):
        cfg = config_from_dict({"preset": "sod", "n_cells": 50,
                                "snapshot_interval": 0.05})
        result = run(cfg, str(tmp_path))
        assert result.status == 0
        numbered = [p for p in result.snapshots if "final" not in p]
        assert len(numbered) == 5  # t = 0 plus four interior marks
        budgets = read_csv(result.budget_path)
        assert len(budgets["time"]) == len(numbered) + 1


class TestCli:
    def test_preset_list(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "sod" in out and "stationary_contact" in out

    def test_preset_show(self, capsys):
        assert main(["preset", "sod"]) == 0
        out = capsys.readouterr().out
        assert "flux = kepec" in out

    def test_preset_unknown(self, capsys):
        assert main(["preset", "nope"]) == 2

    def test_run_with_overrides(self, tmp_path, capsys):
        cfg_file = tmp_path / "case.cfg"
        cfg_file.write_text("preset = sod\n")
        out_dir = tmp_path / "out"
        code = main(["run", str(cfg_file), "--output-dir", str(out_dir),
                     "--override", "n_cells=50",
                     "--override", "t_final=0.05"])
        assert code == 0
        assert "reason=t_final" in capsys.readouterr().out
        data = read_csv(str(out_dir / "snapshot_final.csv"))
        assert len(data["x"]) == 50

    def test_run_bad_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "case.cfg"
        cfg_file.write_text("cfl = 0\n")
        assert main(["run", str(cfg_file)]) == 2
        assert "cfl" in capsys.readouterr().err

    def test_run_missing_file(self, capsys):
        assert main(["run", "/does/not/exist.cfg"]) == 2
