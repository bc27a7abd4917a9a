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

A snapshot of at least _FORK_ROWS rows is formatted by a forked child
while the run marches on, and the last one is split between the child and
the run (_SnapshotWriter); the bytes are the same as in-process.

run consumes timeint.march, which evaluates each marched state once.
The snapshot and the budget sample of a state (the initial one, the first
at or past each snapshot_interval mark, and the last) read that
evaluation: its (rho, u, p) rows, rhs and FaceData, which the march
drops before it steps on.  RunResult.reason says why the run stopped.
"""

from __future__ import annotations

import os
import shutil
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
# Snapshots of at least this many rows are formatted in a forked child.
# Below it a fork costs more than it overlaps: forking each of 103
# snapshots of 500 rows ran a run at 0.81x its in-process speed.
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


def _write_snapshot(path: str, x_prefixes, prim, gas):
    """Write one snapshot; x_prefixes is _x_prefixes(x) of its cells."""
    with _open_csv(path) as fh:
        fh.write(_SNAPSHOT_HEADER)
        _write_blocks(fh, x_prefixes, _columns(prim, gas),
                      range(len(x_prefixes)))


def _spare_cpu() -> bool:
    """Whether os.fork exists and this process may use two CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


class _SnapshotWriter:
    """Writes a run's snapshots of n_rows rows.  With n_rows >= _FORK_ROWS
    and a spare CPU, write returns while a forked child formats the
    snapshot, and write_last formats the first half itself while a child
    formats the second.  At most one child is alive; on exit from its
    with block, the writer reaps it.  written lists the snapshots written
    whole, in order: a forked one once its child exited with status 0."""

    def __init__(self, x_prefixes, gas, n_rows: int):
        self.x_prefixes, self.gas = x_prefixes, gas
        self.forks = n_rows >= _FORK_ROWS and _spare_cpu()
        self.child = None  # (pid, artifact path, whether it writes it all)
        self.written = []

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # an exception on its way out (a Ctrl-C reaches the child too)
        # keeps precedence over a failed child
        self.reap(check=exc_type is None)

    def _fork(self, path: str, write, whole: bool = True):
        """Run write() in a forked child, or here if no child forks; whole
        says whether write() writes all of the snapshot at path."""
        self.reap()
        try:
            pid = os.fork()
        except OSError:
            write()
            return
        if pid == 0:
            # no exit handler or inherited buffer may run in the child;
            # its status is an OSError's errno, 255 for anything else
            status = 255
            try:
                write()
                status = 0
            except OSError as exc:
                if exc.errno and exc.errno < 255:
                    status = exc.errno
            finally:
                os._exit(status)
        self.child = (pid, path, whole)

    def reap(self, check: bool = True):
        """Wait for the child; with check, raise OSError if it failed.  A
        whole snapshot that it wrote with status 0 is listed."""
        if self.child is None:
            return
        (pid, path, whole), self.child = self.child, None
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if check and 0 < code < 255:
            raise OSError(code, os.strerror(code), path)
        if check and code:
            raise OSError(f"the writer of {path} failed (status {code})")
        if whole and not code:
            self.written.append(path)

    def write(self, path: str, prim):
        def write():
            _write_snapshot(path, self.x_prefixes, prim, self.gas)
            # a child lists it in its own copy; reap lists it here
            self.written.append(path)
        if self.forks:
            self._fork(path, write)
        else:
            write()

    def write_last(self, path: str, prim):
        """Write the run's last snapshot and reap its writer."""
        if not self.forks:
            return self.write(path, prim)
        columns = _columns(prim, self.gas)
        blocks = range(len(self.x_prefixes))
        half = len(blocks) // 2
        with tempfile.TemporaryFile(
                dir=os.path.dirname(os.path.abspath(path))) as rest:
            def write_rest():
                with _open_csv(rest.fileno(), closefd=False) as fh:
                    _write_blocks(fh, self.x_prefixes, columns,
                                  blocks[half:])

            self._fork(path, write_rest, whole=False)
            with _open_csv(path) as fh:
                fh.write(_SNAPSHOT_HEADER)
                _write_blocks(fh, self.x_prefixes, columns, blocks[:half])
                self.reap()
                fh.flush()
                rest.seek(0)
                shutil.copyfileobj(rest, fh.buffer)
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

    def emit_snapshot(write, state, name):
        write(os.path.join(output_dir, f"snapshot_{name}.csv"),
              state.faces.cells)

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
                emit_snapshot(writer.write, state, f"{len(budget_rows):04d}")
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
            emit_snapshot(writer.write_last, state, "final")

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
