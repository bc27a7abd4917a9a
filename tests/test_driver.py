import csv
import mmap
import os
import signal
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from kepes import driver, spatial
from kepes.cli import main
from kepes.config import config_from_dict
from kepes.diagnostics import BudgetReport
from kepes.driver import run
from kepes.presets import preset
from kepes.thermo import GasModel, PrimState, physical_entropy, temperature

from conftest import assert_no_children


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


def per_value_rows(block) -> bytes:
    """The rows of block as CSV lines of "%.17g" fields, one value at a
    time."""
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in block.tolist()).encode()


def per_value_snapshot(x, prim, gas) -> bytes:
    """A snapshot file as the one-value-at-a-time writer formatted it."""
    T = temperature(prim, gas)
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
        driver._write_snapshot(str(path), driver._Fields(), x, prim, gas)
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
        driver._write_snapshot(str(path), driver._Fields(), x, prim, gas)
        assert path.read_bytes() == per_value_snapshot(x, prim, gas)

    @pytest.mark.parametrize("values", [
        # exact ties at the 17th digit, N/4 for odd N in [4e15, 9e15]:
        # rounded half to even
        (2 * np.linspace(2e15, 4.5e15, 2000).astype(np.int64) + 1) / 4,
        # 10**k, subnormal to near overflow: with its neighbours below,
        # the only doubles whose 17 digits could round up to a power of ten
        np.array([float(f"1e{k}") for k in range(-320, 308)]),
        # the switches between the notations at 1e-5/1e-4 and 1e16/1e17
        np.array([1e-5, 1e-4, 1e16, 1e17, 5e-5, 99999999999999990.0]),
        # log10 rounds up to the next power of ten
        np.array([9.9999999999999995e-07, 9.9999999999999991e-06,
                  0.0009999999999999998, 99.999999999999986,
                  999999999999999.88]),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 0.125]),
    ], ids=["ties", "powers", "notation", "log10", "special"])
    def test_hard_cases(self, values):
        values = np.concatenate([values, np.nextafter(values, -np.inf),
                                 np.nextafter(values, np.inf)])
        values = np.concatenate([values, -values])
        # both sides of the crossover, every value on the kernel's side
        for rows in (driver._KERNEL_ROWS - 1,
                     max(driver._KERNEL_ROWS, -(-len(values) // 6))):
            block = np.resize(values, (rows, 6))
            assert (driver._Fields()([*block.T], 0, rows)
                    == per_value_rows(block))

    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=6,
                         max_size=6 * 2 * driver._KERNEL_ROWS))
    @settings(max_examples=200, deadline=None)
    def test_finite_bit_patterns(self, bits):
        # both sides of the crossover: 1 to 2 _KERNEL_ROWS rows
        bits = np.array(bits[:len(bits) // 6 * 6], np.uint64)
        # an all-ones exponent (inf, nan) loses its top bit: finite
        top = np.uint64(1 << 62)
        inf = (bits & np.uint64(0x7FF << 52)) == np.uint64(0x7FF << 52)
        bits[inf] ^= top
        block = bits.view(np.float64).reshape(-1, 6)
        assert np.isfinite(block).all()
        assert (driver._Fields()([*block.T], 0, len(block))
                == per_value_rows(block))


class TestStationaryContactRun:
    def test_exact_preservation(self, tmp_path):
        result = run(preset("stationary_contact"), str(tmp_path))
        assert result.status == 0
        assert result.steps == 1000
        first = read_csv(os.path.join(result.output_dir, "snapshot_0000.csv"))
        last = read_csv(os.path.join(result.output_dir, "snapshot_final.csv"))
        assert np.abs(last["rho"] - first["rho"]).max() < 1e-12


# a violent pressure ratio with no dissipation blows up quickly
ABORT_CASE = {
    "ic": "riemann", "left_rho": 1.0, "left_u": 0.0, "left_p": 1000.0,
    "right_rho": 0.001, "right_u": 0.0, "right_p": 1e-6,
    "n_cells": 50, "flux": "kepec", "diss": "none",
    "cfl": 0.9, "t_final": 1.0,
}


class TestAbortPath:
    def test_invalid_state_reports_cell_and_time(self, tmp_path):
        result = run(config_from_dict(ABORT_CASE), str(tmp_path))
        assert result.status == 1
        assert "aborted at t=" in result.message
        assert "cell" in result.message


def fork_every_snapshot(monkeypatch) -> dict:
    """Write every snapshot through the forked writer; the returned dict
    counts the writer children forked and the most alive at once."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork here")
    monkeypatch.setattr(driver, "_FORK_ROWS", 1)
    monkeypatch.setattr(driver, "_spare_cpu", lambda: True)
    writers = {"forks": 0, "alive": set(), "most_alive": 0}
    real_fork, real_waitpid, parent = os.fork, os.waitpid, os.getpid()

    def fork():
        pid = real_fork()
        if os.getpid() == parent:
            writers["forks"] += 1
            writers["alive"].add(pid)
            writers["most_alive"] = max(writers["most_alive"],
                                        len(writers["alive"]))
        return pid

    def waitpid(pid, options):
        done = real_waitpid(pid, options)
        writers["alive"].discard(done[0])
        return done

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return writers


@pytest.fixture
def forked_writer(monkeypatch):
    return fork_every_snapshot(monkeypatch)


def artifacts(result) -> dict:
    """{name: bytes} of every file a run left in its output directory."""
    out = {}
    for name in sorted(os.listdir(result.output_dir)):
        with open(os.path.join(result.output_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


SOD_MARKS = {"preset": "sod", "n_cells": 45, "snapshot_interval": 0.05}


def names(paths) -> list:
    return [os.path.basename(p) for p in paths]


def assert_same_run(forked, alone):
    """The two runs left the same files, listed the same snapshots and
    ended alike."""
    assert artifacts(forked) == artifacts(alone)
    assert names(forked.snapshots) == names(alone.snapshots)
    assert ((forked.status, forked.message, forked.reason, forked.steps,
             forked.final_time) == (alone.status, alone.message,
                                    alone.reason, alone.steps,
                                    alone.final_time))


@pytest.fixture
def deadline():
    """Fail the test, rather than hang the suite, after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("the run hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestForkedWriter:
    """A run whose planned snapshots hold _FORK_ROWS rows forks one child
    at its first snapshot, which writes every snapshot of the run, the
    last one split with the run, in the same bytes."""

    @pytest.mark.parametrize("block_rows", [7, 2, 100])
    def test_fork_path_matches_in_process(self, tmp_path, monkeypatch,
                                          block_rows):
        # 45 rows in 7, 23 or 1 blocks: an odd count, so the halves of the
        # split last snapshot differ in length
        monkeypatch.setattr(driver, "_CSV_BLOCK_ROWS", block_rows)
        cfg = config_from_dict(SOD_MARKS)
        alone = run(cfg, str(tmp_path / "in_process"))
        writers = fork_every_snapshot(monkeypatch)
        forked = run(cfg, str(tmp_path / "forked"))
        assert_no_children()
        numbered = [p for p in alone.snapshots if "final" not in p]
        assert len(numbered) >= 3  # the initial and two mid-run marks
        assert writers["forks"] == 1
        assert writers["most_alive"] == 1
        assert_same_run(forked, alone)

    def test_planned_snapshots(self):
        # the initial and the final snapshot, and the marks up to t_final
        # (0.2 / 0.05 = 4), at most one a step
        planned = driver._planned_snapshots
        cfg = config_from_dict(SOD_MARKS)
        assert planned(cfg) == 6
        assert planned(config_from_dict({**SOD_MARKS, "max_steps": 3})) == 5
        for interval in (None, 0.0):
            assert planned(replace(cfg, snapshot_interval=interval)) == 2
        endless = replace(cfg, time=replace(cfg.time, t_final=np.inf,
                                            max_steps=70))
        assert planned(endless) == 72
        assert planned(replace(endless, snapshot_interval=None)) == 2

    def test_rows_below_threshold_never_fork(self, tmp_path, monkeypatch):
        cfg = config_from_dict(SOD_MARKS)
        alone = run(cfg, str(tmp_path / "in_process"))
        writers = fork_every_snapshot(monkeypatch)
        # the run's 6 planned snapshots of 45 rows stay one row short of it
        monkeypatch.setattr(driver, "_FORK_ROWS", 6 * 45 + 1)
        assert_same_run(run(cfg, str(tmp_path / "below")), alone)
        assert writers["forks"] == 0

    @pytest.mark.parametrize("block_rows", [7, 2, 100])
    def test_crossing_forks_once(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(driver, "_CSV_BLOCK_ROWS", block_rows)
        cfg = config_from_dict(SOD_MARKS)
        alone = run(cfg, str(tmp_path / "in_process"))
        writers = fork_every_snapshot(monkeypatch)
        # the run's 6 planned snapshots of 45 rows reach the threshold
        monkeypatch.setattr(driver, "_FORK_ROWS", 6 * 45)
        parent = os.getpid()
        write_snapshot, write_blocks = (driver._write_snapshot,
                                        driver._write_blocks)
        in_process, formatted = [], []

        def listed(path, *args):
            if os.getpid() == parent:
                in_process.append(os.path.basename(path))
            write_snapshot(path, *args)

        def listed_blocks(fh, fields, columns, rows):
            if os.getpid() == parent:
                formatted.extend(rows)
            write_blocks(fh, fields, columns, rows)

        monkeypatch.setattr(driver, "_write_snapshot", listed)
        monkeypatch.setattr(driver, "_write_blocks", listed_blocks)
        crossed = run(cfg, str(tmp_path / "crossed"))
        assert_no_children()
        assert writers["forks"] == 1
        # the child writes every snapshot; the run formats the rows of its
        # own half of the last one only, whatever the block size
        assert in_process == []
        assert formatted == list(range(45 // 2, 45))
        assert_same_run(crossed, alone)

    def test_one_block_last_snapshot_split(self, tmp_path, monkeypatch):
        # the last snapshot of 45 rows is one block of _CSV_BLOCK_ROWS, as
        # budget_dense's 500 rows are: the child writes the header and rows
        # 0 .. 21 of it, the run formats rows 22 .. 44, and the file is the
        # one an in-process run writes
        assert driver._CSV_BLOCK_ROWS >= 45
        cfg = config_from_dict(SOD_MARKS)
        alone = run(cfg, str(tmp_path / "in_process"))
        writers = fork_every_snapshot(monkeypatch)
        parent, write_blocks = os.getpid(), driver._write_blocks
        # the rows of the child's one call for less than a whole snapshot
        cut = np.frombuffer(mmap.mmap(-1, 16), np.int64)
        formatted = []

        def listed_blocks(fh, fields, columns, rows):
            if os.getpid() == parent:
                formatted.append(rows)
            elif len(rows) < 45:
                cut[:] = rows.start, rows.stop
            write_blocks(fh, fields, columns, rows)

        monkeypatch.setattr(driver, "_write_blocks", listed_blocks)
        split = run(cfg, str(tmp_path / "split"))
        assert_no_children()
        assert writers["forks"] == 1
        assert cut.tolist() == [0, 22]
        assert formatted == [range(22, 45)]
        assert_same_run(split, alone)

    def test_steady_stop_leaves_no_child(self, tmp_path, monkeypatch):
        # 2 + 1000 planned snapshots of 26 rows fork at the first, and the
        # run stops steady at step 25
        cfg = config_from_dict({"preset": "stationary_contact",
                                "steady_tol": 1e-10,
                                "snapshot_interval": 0.01})
        monkeypatch.setattr(driver, "_spare_cpu", lambda: False)
        alone = run(cfg, str(tmp_path / "in_process"))
        assert (alone.reason, alone.steps) == ("steady", 25)
        writers = fork_every_snapshot(monkeypatch)
        monkeypatch.setattr(driver, "_FORK_ROWS", 1002 * 26)
        forked = run(cfg, str(tmp_path / "forked"))
        assert_no_children()
        assert writers["forks"] == 1
        assert_same_run(forked, alone)

    @pytest.mark.parametrize("death", ["exit", "kill"])
    def test_dead_child_fails_the_run(self, tmp_path, monkeypatch, deadline,
                                      forked_writer, death):
        # the child dies on the second snapshot it is sent: the run ends
        # with its failure, not a broken pipe, and lists the first only
        parent, write_blocks = os.getpid(), driver._write_blocks
        received = []

        def dying_in_child(*args):
            if os.getpid() != parent:
                received.append(args)
                if len(received) == 2 and death == "exit":
                    os._exit(0)
                elif len(received) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            write_blocks(*args)

        monkeypatch.setattr(driver, "_write_blocks", dying_in_child)
        result = run(config_from_dict(SOD_MARKS), str(tmp_path))
        assert_no_children()
        assert forked_writer["forks"] == 1
        assert (result.status, result.reason) == (2, "io_failure")
        status = 0 if death == "exit" else -signal.SIGKILL
        assert result.message.endswith(
            f"the writer of {tmp_path / 'snapshot_0001.csv'} failed "
            f"(status {status})")
        assert names(result.snapshots) == ["snapshot_0000.csv"]

    def test_lanes_and_writer_leave_no_child(self, tmp_path, monkeypatch,
                                             deadline, forked_writer):
        # a run in two stage lanes forks its lane process at the first
        # stage and its writer child at snapshot_0000, which so holds the
        # lane process's pipes: the run stops and reaps both, and writes
        # what a run in one lane, in-process, writes
        cfg = config_from_dict({"preset": "sod", "n_cells": spatial.LANES,
                                "max_steps": 3, "snapshot_interval": 1e-5})
        with monkeypatch.context() as patch:
            patch.setattr(spatial, "_cpus", lambda: 1)
            patch.setattr(driver, "_spare_cpu", lambda: False)
            alone = run(cfg, str(tmp_path / "in_process"))
        assert forked_writer["forks"] == 0
        monkeypatch.setattr(spatial, "_cpus", lambda: 2)
        forked = run(cfg, str(tmp_path / "forked"))
        assert_no_children()
        assert (forked_writer["forks"], forked_writer["most_alive"]) == (2, 2)
        assert len(forked.snapshots) == 5
        assert_same_run(forked, alone)

    def test_failed_fork_writes_in_process(self, tmp_path, monkeypatch):
        cfg = config_from_dict(SOD_MARKS)
        alone = run(cfg, str(tmp_path / "in_process"))
        writers = fork_every_snapshot(monkeypatch)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        forked = run(cfg, str(tmp_path / "forked"))
        assert forked.status == 0
        assert writers["forks"] == 0
        assert artifacts(forked) == artifacts(alone)

    def test_invalid_state_leaves_no_child(self, tmp_path, forked_writer):
        result = run(config_from_dict(ABORT_CASE), str(tmp_path))
        assert result.reason == "invalid_state"
        assert forked_writer["forks"] == 1
        assert_no_children()

    def test_failed_child_fails_the_run(self, tmp_path, monkeypatch,
                                        forked_writer):
        parent, write_blocks = os.getpid(), driver._write_blocks

        def failing_in_child(*args):
            if os.getpid() != parent:
                raise ValueError("no rows")
            write_blocks(*args)

        monkeypatch.setattr(driver, "_write_blocks", failing_in_child)
        result = run(config_from_dict(SOD_MARKS), str(tmp_path))
        assert result.status == 2
        assert result.reason == "io_failure"
        assert "(status 255)" in result.message
        assert "snapshot_0000.csv" in result.message
        assert_no_children()

    def test_exception_keeps_precedence(self, tmp_path, monkeypatch,
                                        forked_writer):
        # both halves of the last snapshot fail: the run's own exception
        # is raised, not the failed child's
        write_blocks = driver._write_blocks

        def failing_halves(fh, fields, columns, rows):
            if len(rows) != len(columns[0]):
                raise RuntimeError("no rows")
            write_blocks(fh, fields, columns, rows)

        monkeypatch.setattr(driver, "_CSV_BLOCK_ROWS", 7)
        monkeypatch.setattr(driver, "_write_blocks", failing_halves)
        with pytest.raises(RuntimeError, match="no rows"):
            run(config_from_dict(SOD_MARKS), str(tmp_path))
        assert_no_children()

    def test_small_or_single_cpu_runs_stay_in_process(self, tmp_path,
                                                      monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        if hasattr(os, "fork"):
            monkeypatch.setattr(os, "fork", no_fork)
        cfg = config_from_dict(SOD_MARKS)
        assert run(cfg, str(tmp_path / "small")).status == 0
        monkeypatch.setattr(driver, "_FORK_ROWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert not driver._spare_cpu()
        assert run(cfg, str(tmp_path / "one_cpu")).status == 0
        monkeypatch.delattr(os, "fork", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert not driver._spare_cpu()


ARTIFACTS = ["budget.csv", "metrics.txt", "snapshot_0000.csv",
             "snapshot_final.csv"]


class TestIoFailure:
    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg = config_from_dict({"preset": "sod", "n_cells": 8,
                                "t_final": 0.01})
        result = run(cfg, str(blocker))
        assert result.status == 2
        assert "i/o failure" in result.message

    @staticmethod
    def run_blocked(output_dir, artifact):
        # a directory in the artifact's place makes its write fail
        (output_dir / artifact).mkdir(parents=True)
        cfg = config_from_dict({"preset": "sod", "n_cells": 8,
                                "t_final": 0.01})
        result = run(cfg, str(output_dir))
        assert result.status == 2
        assert "i/o failure" in result.message
        assert result.reason == "io_failure"
        assert_no_children()
        return result

    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_unwritable_artifact(self, tmp_path, artifact):
        self.run_blocked(tmp_path, artifact)

    @pytest.mark.parametrize("artifact", ARTIFACTS)
    def test_unwritable_artifact_forked(self, tmp_path, monkeypatch,
                                        artifact):
        # the same run writes the same message on either path: the child
        # that fails to write snapshot_0000.csv exits with its errno, and
        # a snapshot is listed only once its writer exited cleanly
        alone = self.run_blocked(tmp_path / "in_process", artifact)
        fork_every_snapshot(monkeypatch)
        forked = self.run_blocked(tmp_path / "forked", artifact)
        assert (forked.message.replace("forked", "in_process")
                == alone.message)
        assert names(forked.snapshots) == names(alone.snapshots)


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

    @pytest.mark.parametrize("body, overrides, message", [
        (None, [], "cannot read config: [Errno 2] No such file or "
                   "directory: '{path}'"),
        ("preset sod\n", [], "line 1: expected key = value"),
        ("preset = sod\n", ["n_cells=50", "t_final"],
         "override needs KEY=VALUE, got 't_final'"),
        ("preset = sod\n", ["cfl=0"], "cfl must be in (0, 1]"),
    ], ids=["missing-file", "parse", "override", "range"])
    def test_run_error_paths(self, tmp_path, capsys, body, overrides,
                             message):
        # each error prints one stderr line, nothing on stdout, and exits 2
        cfg_file = tmp_path / "case.cfg"
        if body is not None:
            cfg_file.write_text(body)
        argv = ["run", str(cfg_file), "--output-dir", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message.format(path=cfg_file)}\n"
        assert not (tmp_path / "out").exists()
