"""Run orchestration: the client of the march, CSV artifacts and the
metrics report.

Artifacts written per run: numbered solution snapshots plus
snapshot_final.csv (columns x, rho, u, p, T, s), budget.csv with one
row per sample time (column order fixed by BudgetReport), and a plain-text
metrics.txt.  Runs are deterministic: identical configs produce
byte-identical CSV files.  Every CSV value is formatted %.17g and every
line ends in "\n"; a snapshot is formatted one block of _CSV_BLOCK_ROWS
rows per call, and the block size never changes the bytes.  The x column
is formatted once per run (_x_prefixes) and is the row prefix of every
snapshot's format text.

Once a run has formatted _FORK_ROWS snapshot rows, a forked child formats
the rest from rows sent over a pipe while the run marches on, and splits
the last one with the run (_SnapshotWriter); the bytes stay the same.

run consumes timeint.march, which evaluates each marched state once.
The snapshot and the budget sample of a state (the initial one, the first
at or past each snapshot_interval mark, and the last) read that
evaluation: its (rho, u, p) rows, rhs and FaceData, which the march
drops before it steps on.  RunResult.reason says why the run stopped.
"""

from __future__ import annotations

import mmap
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .config import ProblemConfig, _initial_prim, initial_state
from .diagnostics import budget_report, monotonicity_defect, solution_metrics
from .riemann import solve_riemann
from .thermo import physical_entropy, prim_to_cons, temperature
from .timeint import march

__all__ = ["RunResult", "run", "reference_profile"]

# Snapshot rows formatted per call.  Any size writes the same bytes; this
# one keeps each call's strings small at no measurable cost in speed.
_CSV_BLOCK_ROWS = 2048
# A run forks its writer child at the snapshot that brings the rows it
# has formatted to this many.  A fork and its reap cost ~2.8 ms, as much
# as formatting ~500 rows: a run that formats fewer stays in-process.
_FORK_ROWS = 10_000

_SNAPSHOT_HEADER = "x,rho,u,p,T,s\n"


@dataclass
class RunResult:
    status: int
    message: str
    output_dir: str
    final_time: float = 0.0
    steps: int = 0
    snapshots: list = field(default_factory=list)
    budget_path: str | None = None
    metrics_path: str | None = None
    reason: str | None = None


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _x_prefixes(x) -> list:
    """The x column as text, formatted once per run: per block of
    _CSV_BLOCK_ROWS rows, one string of "x\\n" lines."""
    return [("%.17g\n" * len(block)) % tuple(block.tolist())
            for block in (x[lo:lo + _CSV_BLOCK_ROWS]
                          for lo in range(0, len(x), _CSV_BLOCK_ROWS))]


def _columns(prim, gas):
    """The snapshot columns after x: rho, u, p, T and s of the (rho, u, p)
    rows prim."""
    return (*prim, temperature(prim, gas), physical_entropy(prim, gas))


def _write_blocks(fh, x_prefixes, columns, blocks):
    """Write the rows of the given blocks (indices into x_prefixes) to
    the text file fh."""
    tail = ",%.17g" * len(columns) + "\n"
    for k in blocks:
        lo = k * _CSV_BLOCK_ROWS
        # one block of rows, stacked row-major, formatted by one call
        # whose format text already holds the block's x values (they
        # hold no "%" or "\n", so the replace makes them row prefixes)
        block = np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS]
                                 for c in columns])
        fh.write(x_prefixes[k].replace("\n", tail)
                 % tuple(block.ravel().tolist()))


def _open_csv(path_or_fd, closefd=True):
    return open(path_or_fd, "w", encoding="utf-8", newline="\n",
                closefd=closefd)


def _write_snapshot(path: str, x_prefixes, prim, gas, n_blocks=None):
    """Write one snapshot, or with n_blocks its header and first n_blocks
    blocks; x_prefixes is _x_prefixes(x) of its cells."""
    with _open_csv(path) as fh:
        fh.write(_SNAPSHOT_HEADER)
        _write_blocks(fh, x_prefixes, _columns(prim, gas),
                      range(len(x_prefixes))[:n_blocks])


def _write_all(fd, data):
    """Write all of the contiguous buffer data to the file descriptor fd."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _spare_cpu() -> bool:
    """Whether os.fork exists and this process may use two CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


class _SnapshotWriter:
    """Writes a run's snapshots of n_rows rows.  At the first snapshot
    that brings the rows the run has formatted to _FORK_ROWS, and given a
    spare CPU, one child is forked for the rest of the run: write sends it
    the snapshot's (rho, u, p) rows over a pipe and returns, and for the
    last snapshot formats the second half itself while the child writes
    the header and the first half.  On exit from its with block, the writer
    reaps the child.  written lists the snapshots written whole, in order:
    one sent to the child once the child confirmed it."""

    def __init__(self, x_prefixes, gas, n_rows: int):
        self.x_prefixes, self.gas, self.n_rows = x_prefixes, gas, n_rows
        self.rows = 0  # formatted so far, the snapshot at hand included
        self.may_fork = _spare_cpu()
        self.child = None  # (pid, pipe, count of messages it wrote)
        self.sent = []  # (path, whether the child writes it all) in order
        self.written = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # an exception on its way out (a Ctrl-C reaches the child too)
        # keeps precedence over a failed child
        self.reap(check=exc_type is None)

    def _child_takes(self) -> bool:
        """Count the snapshot at hand; whether the child writes it."""
        self.rows += self.n_rows
        if self.may_fork and self.rows >= _FORK_ROWS:
            self.may_fork = False
            self._fork()
        return self.child is not None

    def _fork(self):
        confirmed = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return
        if pid == 0:
            # no exit handler or inherited buffer may run in the child;
            # its status is an OSError's errno, 255 for anything else
            status = 255
            try:
                os.close(w)
                rows = np.empty((3, self.n_rows))
                with open(r, "rb") as pipe:
                    # one snapshot per message, until the run closes the pipe
                    while head := pipe.read(16):
                        n_blocks, size = struct.unpack("2q", head)
                        path = os.fsdecode(pipe.read(size))
                        if pipe.readinto(rows) != rows.nbytes:
                            raise EOFError(f"{path}: its rows were cut short")
                        _write_snapshot(path, self.x_prefixes, rows,
                                        self.gas, n_blocks)
                        confirmed[0] += 1
                status = 0
            except OSError as exc:
                if exc.errno and exc.errno < 255:
                    status = exc.errno
            finally:
                os._exit(status)
        os.close(r)
        self.child = (pid, w, confirmed)

    def _send(self, path: str, prim, n_blocks: int, whole: bool = True):
        fd = self.child[1]
        self.sent.append((path, whole))
        name = os.fsencode(path)
        try:
            _write_all(fd, struct.pack("2q", n_blocks, len(name)) + name)
            for row in prim:
                _write_all(fd, row)  # each row is contiguous: no copy
        except BrokenPipeError:
            # the child is gone: its own failure names the snapshot
            self.reap()
            raise

    def reap(self, check: bool = True):
        """Close the pipe and wait for the child.  List the snapshots it
        confirmed whole; with check, raise OSError naming the first one it
        did not confirm, if any."""
        if self.child is None:
            return
        (pid, fd, confirmed), self.child = self.child, None
        os.close(fd)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        done = confirmed[0]
        self.written += [path for path, whole in self.sent[:done] if whole]
        if not check or done == len(self.sent):
            return
        path = self.sent[done][0]
        if 0 < code < 255:
            raise OSError(code, os.strerror(code), path)
        raise OSError(f"the writer of {path} failed (status {code})")

    def write(self, path: str, prim, last: bool = False):
        """Write a snapshot.  The run's last one (last) is split between
        the child, if there is one, and the run, which then reaps it."""
        if not self._child_takes():
            _write_snapshot(path, self.x_prefixes, prim, self.gas)
            self.written.append(path)
            return
        if not last:
            return self._send(path, prim, len(self.x_prefixes))
        blocks = range(len(self.x_prefixes))
        half = len(blocks) // 2
        with tempfile.TemporaryFile(
                dir=os.path.dirname(os.path.abspath(path))) as rest:
            self._send(path, prim, half, whole=False)
            with _open_csv(rest.fileno(), closefd=False) as fh:
                _write_blocks(fh, self.x_prefixes, _columns(prim, self.gas),
                              blocks[half:])
            self.reap()
            rest.seek(0)
            with open(path, "ab") as fh:
                shutil.copyfileobj(rest, fh)
        self.written.append(path)


def reference_profile(config: ProblemConfig, x, t: float):
    """Exact reference for inviscid Riemann-type runs.

    Stationary configurations (shock_outflow or fixed-state boundaries)
    keep the initial profile as reference; otherwise the exact Riemann
    solution is sampled.  Returns (PrimState or None, density jump list).
    """
    if config.gas.is_viscous or config.ic.kind != "riemann":
        return None, []
    ic = config.ic
    stationary = (config.bcs.right.kind == "shock_outflow"
                  or config.bcs.left.kind == "fixed_state")
    if stationary or t <= 0.0:
        jumps = [(ic.x_diaphragm, float(ic.left.rho), float(ic.right.rho))]
        return _initial_prim(config, x), jumps
    sol = solve_riemann(ic.left, ic.right, config.gas)
    prim = sol.profile(x, t, x0=ic.x_diaphragm)
    return prim, sol.density_jumps(t, x0=ic.x_diaphragm)


def _totals(cells):
    """The summed rho, m and E of the cells."""
    return [np.sum(f) for f in cells]


def _write_metrics(path: str, config: ProblemConfig, x, prim,
                   initial_totals, final_report, t, steps):
    gas = config.gas
    ref, jumps = reference_profile(config, x, t)
    lines = [
        f"run: {config.name}",
        f"cells: {config.grid.n_cells}  dx: {_fmt(config.grid.dx)}",
        f"final_time: {_fmt(t)}  steps: {steps}",
        "",
    ]
    for label, v in zip(("rho", "u", "p"), prim):
        lines.append(f"{label}: min {_fmt(float(np.min(v)))} "
                     f"max {_fmt(float(np.max(v)))}")
    lines.append("")
    dx = config.grid.dx
    for label, a, b in zip(("mass", "momentum", "energy"), initial_totals,
                           _totals(prim_to_cons(prim, gas))):
        drift = (b - a) * dx
        lines.append(f"total_{label}_change: {_fmt(float(drift))}")
    lines.append("")
    if final_report is not None:
        lines.append(f"dke_dt: {_fmt(final_report.dke_dt)}")
        lines.append(f"du_dt: {_fmt(final_report.du_dt)}")
        lines.append("")
    if ref is not None:
        metrics = solution_metrics(x, prim, ref, jumps, dx)
        for k, v in metrics.l1.items():
            lines.append(f"l1_error_{k}: {_fmt(v)}")
        for label in ("rho", "u", "p"):
            lines.append(f"overshoot_{label}: {_fmt(metrics.overshoot[label])}"
                         f"  undershoot_{label}: "
                         f"{_fmt(metrics.undershoot[label])}")
        for (pos, _, _), w in zip(jumps, metrics.jump_widths):
            lines.append(f"density_jump_width_cells@x={_fmt(pos)}: {w}")
        rho_increasing = bool(np.sum(np.diff(ref.rho)) >= 0)
        lines.append(f"rho_monotonicity_defect: "
                     f"{_fmt(monotonicity_defect(prim[0], rho_increasing))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config: ProblemConfig, output_dir: str) -> RunResult:
    """Advance the configured problem to t_final and write the artifacts.

    The run is a client of timeint.march.  result.reason says why it
    stopped: "t_final", "steady", "max_steps" (truncated; status 0 and
    message "ok" all the same), "invalid_state" (status 1) or
    "io_failure": a run whose output directory or any artifact cannot be
    written ends with status 2, "i/o failure".
    """
    result = RunResult(status=0, message="ok", output_dir=output_dir)
    try:
        _run(config, output_dir, result)
    except OSError as exc:
        result.status = 2
        result.message = f"i/o failure: {exc}"
        result.reason = "io_failure"
    return result


def _run(config: ProblemConfig, output_dir: str, result: RunResult):
    os.makedirs(output_dir, exist_ok=True)
    grid, gas = config.grid, config.gas

    budget_path = os.path.join(output_dir, "budget.csv")
    result.budget_path = budget_path
    budget_rows = []

    # the sample and the snapshot read the state's evaluation, which the
    # march drops before it steps on: nothing here may keep a reference
    def sample_budget(state):
        budget_rows.append(budget_report(state.t, state.faces.cells,
                                         state.rhs, state.faces, grid, gas))

    def emit_snapshot(state, name, last=False):
        writer.write(os.path.join(output_dir, f"snapshot_{name}.csv"),
                     state.faces.cells, last)

    totals0 = None
    # the snapshots need x only as text; the metrics make it again, so no
    # x array is held through the march
    with _SnapshotWriter(_x_prefixes(grid.cell_centers()), gas,
                         grid.n_cells) as writer:
        result.snapshots = writer.written
        for state in march(config, initial_state(config).stacked()):
            if state.reason == "invalid_state":
                break
            if totals0 is None:
                # the report needs only the initial totals, so no copy of
                # the initial state is kept through the march
                totals0 = _totals(prim_to_cons(state.faces.cells, gas))
            if state.mark:
                # one budget row per earlier mark
                emit_snapshot(state, f"{len(budget_rows):04d}")
                sample_budget(state)

        result.reason = state.reason
        if state.reason == "invalid_state":
            result.status = 1
            result.message = (f"aborted at t={state.t:.6g}, "
                              f"step {state.step}: {state.error}")
        else:
            if state.reason == "steady":
                result.message = (f"steady at t={state.t:.6g} "
                                  f"(residual {state.residual:.3e})")
            sample_budget(state)
            emit_snapshot(state, "final", last=True)

    with open(budget_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{line}\n" for line in
                         [row.csv_header() for row in budget_rows[:1]]
                         + [row.csv_row() for row in budget_rows]))

    if result.status == 0:
        metrics_path = os.path.join(output_dir, "metrics.txt")
        _write_metrics(metrics_path, config, grid.cell_centers(),
                       state.faces.cells, totals0, budget_rows[-1], state.t,
                       state.step)
        result.metrics_path = metrics_path
    result.final_time = state.t
    result.steps = state.step
