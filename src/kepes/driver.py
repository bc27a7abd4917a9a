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

run consumes timeint.march, which evaluates each marched state once.
The snapshot and the budget sample of a state (the initial one, the first
at or past each snapshot_interval mark, and the last) read that
evaluation: its (rho, u, p) rows, rhs and FaceData, which the march
drops before it steps on.  RunResult.reason says why the run stopped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .config import ProblemConfig, initial_state
from .diagnostics import budget_report, monotonicity_defect, solution_metrics
from .riemann import solve_riemann
from .thermo import ConsState, PrimState, physical_entropy, prim_to_cons
from .timeint import march

__all__ = ["RunResult", "run", "reference_profile"]

# Snapshot rows formatted per call.  Any size writes the same bytes; this
# one keeps each call's strings small at no measurable cost in speed.
_CSV_BLOCK_ROWS = 2048


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


def _write_snapshot(path: str, x_prefixes, prim: PrimState, gas):
    """Write one snapshot; x_prefixes is _x_prefixes(x) of its cells."""
    columns = (prim.rho, prim.u, prim.p, prim.temperature(gas),
               physical_entropy(prim, gas))
    tail = ",%.17g" * len(columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,rho,u,p,T,s\n")
        for lo, prefix in zip(range(0, len(columns[0]), _CSV_BLOCK_ROWS),
                              x_prefixes):
            # one block of rows, stacked row-major, formatted by one call
            # whose format text already holds the block's x values (they
            # hold no "%" or "\n", so the replace makes them row prefixes)
            block = np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS]
                                     for c in columns])
            fh.write(prefix.replace("\n", tail)
                     % tuple(block.ravel().tolist()))


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
        on_left = x < ic.x_diaphragm
        prim = PrimState(np.where(on_left, ic.left.rho, ic.right.rho),
                         np.where(on_left, ic.left.u, ic.right.u),
                         np.where(on_left, ic.left.p, ic.right.p))
        jumps = [(ic.x_diaphragm, float(ic.left.rho), float(ic.right.rho))]
        return prim, jumps
    sol = solve_riemann(ic.left, ic.right, config.gas)
    prim = sol.profile(x, t, x0=ic.x_diaphragm)
    return prim, sol.density_jumps(t, x0=ic.x_diaphragm)


def _totals(cells: ConsState):
    """The summed rho, m and E of the cells."""
    return [np.sum(f) for f in (cells.rho, cells.m, cells.E)]


def _write_metrics(path: str, config: ProblemConfig, x, prim: PrimState,
                   initial_totals, final_report, t, steps):
    gas = config.gas
    ref, jumps = reference_profile(config, x, t)
    lines = [
        f"run: {config.name}",
        f"cells: {config.grid.n_cells}  dx: {_fmt(config.grid.dx)}",
        f"final_time: {_fmt(t)}  steps: {steps}",
        "",
    ]
    for label, v in (("rho", prim.rho), ("u", prim.u), ("p", prim.p)):
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
                     f"{_fmt(monotonicity_defect(prim.rho, rho_increasing))}")
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
    # the snapshots need x only as text; the metrics make it again, so no
    # x array is held through the march
    x_prefixes = _x_prefixes(grid.cell_centers())

    budget_path = os.path.join(output_dir, "budget.csv")
    result.budget_path = budget_path
    budget_rows = []

    # the sample and the snapshot read the state's evaluation, which the
    # march drops before it steps on: nothing here may keep a reference
    def sample_budget(state):
        budget_rows.append(budget_report(state.t, state.prim,
                                         ConsState(*state.rhs), state.faces,
                                         grid, gas))

    def emit_snapshot(state, name):
        path = os.path.join(output_dir, name)
        _write_snapshot(path, x_prefixes, state.prim, gas)
        result.snapshots.append(path)

    totals0 = None
    for state in march(config, initial_state(config).stacked()):
        if state.reason == "invalid_state":
            break
        if totals0 is None:
            # the report needs only the initial totals, so no copy of the
            # initial state is kept through the march
            totals0 = _totals(prim_to_cons(state.prim, gas))
        if state.mark:
            emit_snapshot(state, f"snapshot_{len(result.snapshots):04d}.csv")
            sample_budget(state)

    result.reason = state.reason
    if state.reason == "invalid_state":
        result.status = 1
        result.message = (f"aborted at t={state.t:.6g}, step {state.step}: "
                          f"{state.error}")
    else:
        if state.reason == "steady":
            result.message = (f"steady at t={state.t:.6g} "
                              f"(residual {state.residual:.3e})")
        sample_budget(state)
        emit_snapshot(state, "snapshot_final.csv")

    with open(budget_path, "w", encoding="utf-8", newline="\n") as fh:
        if budget_rows:
            fh.write(budget_rows[0].csv_header() + "\n")
        for row in budget_rows:
            fh.write(row.csv_row() + "\n")

    if result.status == 0:
        metrics_path = os.path.join(output_dir, "metrics.txt")
        _write_metrics(metrics_path, config, grid.cell_centers(), state.prim,
                       totals0, budget_rows[-1], state.t, state.step)
        result.metrics_path = metrics_path
    result.final_time = state.t
    result.steps = state.step
