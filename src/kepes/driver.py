"""Run orchestration: time loop, CSV artifacts and the metrics report.

Artifacts written per run: numbered solution snapshots plus
snapshot_final.csv (columns x, rho, u, p, T, s), budget.csv with one
row per sample time (column order fixed by BudgetReport), and a plain-text
metrics.txt.  Runs are deterministic: identical configs produce
byte-identical CSV files.  Every CSV value is formatted %.17g and every
line ends in "\n"; a snapshot is formatted one block of _CSV_BLOCK_ROWS
rows per call, and the block size never changes the bytes.

The march hands one stacked (3, n) array to the stage, whose kernels
write each result row into an array allocated per call and reuse no
buffer across calls: rhs and the FaceData arrays escape the call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .config import ProblemConfig, initial_state
from .diagnostics import budget_report, monotonicity_defect, solution_metrics
from .riemann import solve_riemann
from .spatial import assemble_rhs
from .thermo import (
    ConsState,
    InvalidStateError,
    PrimState,
    cons_to_prim,
    physical_entropy,
    prim_to_cons,
)
from .timeint import StageError, compute_dt, ssp_rk3_step

__all__ = ["RunResult", "run", "reference_profile"]

_STEADY_CHECK_EVERY = 25
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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_snapshot(path: str, x, prim: PrimState, gas):
    columns = (x, prim.rho, prim.u, prim.p, prim.temperature(gas),
               physical_entropy(prim, gas))
    row = ",".join(("%.17g",) * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,rho,u,p,T,s\n")
        for lo in range(0, len(x), _CSV_BLOCK_ROWS):
            # one block of rows, stacked row-major, formatted by one call
            block = np.column_stack([c[lo:lo + _CSV_BLOCK_ROWS]
                                     for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


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

    A run whose output directory or any artifact cannot be written ends
    with status 2, "i/o failure".
    """
    result = RunResult(status=0, message="ok", output_dir=output_dir)
    try:
        _run(config, output_dir, result)
    except OSError as exc:
        result.status = 2
        result.message = f"i/o failure: {exc}"
    return result


def _run(config: ProblemConfig, output_dir: str, result: RunResult):
    os.makedirs(output_dir, exist_ok=True)
    grid, gas = config.grid, config.gas
    x = grid.cell_centers()

    def rhs_full(w):
        return assemble_rhs(w, grid, gas, config.flux_kind, config.diss,
                            config.recon, config.bcs)

    def rhs_op(w):
        return rhs_full(w)[0]

    w = initial_state(config).stacked()
    # the report needs only the initial totals, so no copy of the initial
    # state is kept through the march
    totals0 = _totals(prim_to_cons(cons_to_prim(ConsState(*w), gas), gas))
    t = 0.0
    step = 0

    budget_path = os.path.join(output_dir, "budget.csv")
    result.budget_path = budget_path
    budget_rows = []

    def sample_budget(w, time):
        rhs, faces = rhs_full(w)
        report = budget_report(time, cons_to_prim(ConsState(*w), gas),
                               ConsState(*rhs), faces, grid, gas)
        budget_rows.append(report)
        return report

    snap_index = 0

    def emit_snapshot(w, suffix=None):
        nonlocal snap_index
        name = (f"snapshot_{snap_index:04d}.csv" if suffix is None
                else f"snapshot_{suffix}.csv")
        path = os.path.join(output_dir, name)
        _write_snapshot(path, x, cons_to_prim(ConsState(*w), gas), gas)
        result.snapshots.append(path)
        if suffix is None:
            snap_index += 1

    final_report = None
    try:
        emit_snapshot(w)
        sample_budget(w, t)
        interval = config.snapshot_interval
        next_mark = interval if interval else None
        tiny = 1e-12 * max(1.0, config.time.t_final)
        while t < config.time.t_final - tiny and step < config.time.max_steps:
            dt = compute_dt(w, grid, gas, config.time.cfl)
            dt = min(dt, config.time.t_final - t)
            w = ssp_rk3_step(w, dt, rhs_op)
            t += dt
            step += 1
            if next_mark is not None and t + tiny >= next_mark:
                emit_snapshot(w)
                sample_budget(w, t)
                next_mark += interval
            if (config.time.steady_tol is not None
                    and step % _STEADY_CHECK_EVERY == 0):
                residual = float(np.max(np.abs(rhs_op(w))))
                if residual < config.time.steady_tol:
                    result.message = (f"steady at t={t:.6g} "
                                      f"(residual {residual:.3e})")
                    break
        final_report = sample_budget(w, t)
        emit_snapshot(w, suffix="final")
    except (InvalidStateError, StageError) as exc:
        result.status = 1
        result.message = f"aborted at t={t:.6g}, step {step}: {exc}"

    with open(budget_path, "w", encoding="utf-8", newline="\n") as fh:
        if budget_rows:
            fh.write(budget_rows[0].csv_header() + "\n")
        for row in budget_rows:
            fh.write(row.csv_row() + "\n")

    if result.status == 0:
        metrics_path = os.path.join(output_dir, "metrics.txt")
        _write_metrics(metrics_path, config, x,
                       cons_to_prim(ConsState(*w), gas), totals0, final_report,
                       t, step)
        result.metrics_path = metrics_path
    result.final_time = t
    result.steps = step
