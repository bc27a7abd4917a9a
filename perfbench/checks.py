"""Output checks applied to every driver.run call of the benchmark.

A run passes only if all of these hold:

- termination: status 0, message "ok", exactly the workload's step count
  and a final time short of t_final.  driver.run reports "ok" when
  max_steps truncates a run, so the step count is checked here; a change
  that stops early cannot pose as faster.
- budget closure: in every budget.csv row, dke_dt equals the sum of its
  four decomposition terms and du_dt the sum of its four, to
  ``CLOSURE_RTOL`` of the terms' magnitude.
- conservation: every row's mass/momentum/energy telescoping residual is
  below ``CONSERVATION_ATOL``.
- positivity: every snapshot written after the initial one has one row
  per cell, finite values and positive density and pressure.
- reference (default seed only): the final state matches the one recorded
  in reference.json to ``REFERENCE_RTOL`` of each field's largest
  magnitude.  That absorbs reordered floating-point arithmetic and nothing
  a real defect would produce.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CLOSURE_RTOL = 1.0e-11
CONSERVATION_ATOL = 1.0e-11
REFERENCE_RTOL = 1.0e-8
REFERENCE_SAMPLES = 64

SNAPSHOT_HEADER = "x,rho,u,p,T,s"
KE_TERMS = ("dke_dt_pressure_work", "dke_dt_numerical", "dke_dt_viscous",
            "dke_dt_boundary")
ENTROPY_TERMS = ("du_dt_flux_residual", "du_dt_numerical", "du_dt_viscous",
                 "du_dt_boundary")
CONSERVATION = ("mass_error", "momentum_error", "energy_error")


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str):
    """(header names, float rows of shape (n_rows, n_columns))."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header.split(","), rows


def output_files(result) -> list[str]:
    files = list(result.snapshots)
    files += [p for p in (result.budget_path, result.metrics_path) if p]
    return files


def output_digest(result) -> str:
    """sha256 over every artifact of a run, in a fixed order."""
    h = hashlib.sha256()
    for path in output_files(result):
        h.update(Path(path).name.encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def final_sample(snapshot_rows: np.ndarray) -> dict:
    """The reference record of a final snapshot: rho, u, p at up to
    REFERENCE_SAMPLES evenly spaced cells."""
    n = len(snapshot_rows)
    idx = np.unique(np.linspace(0, n - 1, min(n, REFERENCE_SAMPLES))
                    .round().astype(int))
    return {"n_cells": n, "index": idx.tolist(),
            "rho": snapshot_rows[idx, 1].tolist(),
            "u": snapshot_rows[idx, 2].tolist(),
            "p": snapshot_rows[idx, 3].tolist()}


def _check_termination(case, result) -> list[str]:
    problems = []
    if result.status != 0 or result.message != "ok":
        problems.append(f"status {result.status}: {result.message}")
    if result.steps != case.steps:
        problems.append(f"made {result.steps} steps, expected {case.steps}")
    if not result.final_time < case.config.time.t_final:
        problems.append(f"reached t_final {result.final_time!r} inside the "
                        "step cap")
    if result.metrics_path is None or not Path(result.metrics_path).is_file():
        problems.append("no metrics report")
    elif f"steps: {case.steps}\n" not in Path(result.metrics_path).read_text(
            encoding="utf-8"):
        problems.append("metrics report disagrees on the step count")
    return problems


def _check_budget(result) -> list[str]:
    names, rows = read_csv(result.budget_path)
    col = {name: rows[:, i] for i, name in enumerate(names)}
    missing = [n for n in ("dke_dt", "du_dt", *KE_TERMS, *ENTROPY_TERMS,
                           *CONSERVATION) if n not in col]
    if missing:
        return [f"budget.csv lacks columns {missing}"]
    problems = []
    if len(rows) != len(result.snapshots):
        problems.append(f"{len(rows)} budget rows for "
                        f"{len(result.snapshots)} snapshots")
    for total, terms in (("dke_dt", KE_TERMS), ("du_dt", ENTROPY_TERMS)):
        parts = np.stack([col[t] for t in terms])
        scale = np.abs(parts).sum(axis=0) + np.abs(col[total])
        gap = np.abs(col[total] - parts.sum(axis=0))
        bad = ~(gap <= CLOSURE_RTOL * scale)
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"{total} does not close in budget row {i}: "
                            f"gap {gap[i]:.3e} of {scale[i]:.3e}")
    for name in CONSERVATION:
        bad = ~(np.abs(col[name]) <= CONSERVATION_ATOL)
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"{name} {col[name][i]:.3e} in budget row {i}")
    return problems


def _check_snapshot(path: str, n_cells: int):
    """(problems, rows) for one snapshot file."""
    names, rows = read_csv(path)
    name = Path(path).name
    if ",".join(names) != SNAPSHOT_HEADER:
        return [f"{name}: header {','.join(names)!r}"], rows
    if rows.shape != (n_cells, len(names)):
        return [f"{name}: shape {rows.shape}, expected {n_cells} rows"], rows
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append(f"{name}: non-finite values")
    if not (np.all(rows[:, 1] > 0.0) and np.all(rows[:, 3] > 0.0)):
        problems.append(f"{name}: non-positive density or pressure")
    return problems, rows


def _check_reference(final_rows: np.ndarray, expected: dict) -> list[str]:
    if len(final_rows) != expected["n_cells"]:
        return [f"reference has {expected['n_cells']} cells, "
                f"run has {len(final_rows)}"]
    idx = np.asarray(expected["index"])
    problems = []
    for column, field in ((1, "rho"), (2, "u"), (3, "p")):
        want = np.asarray(expected[field])
        got = final_rows[idx, column]
        tol = REFERENCE_RTOL * max(float(np.max(np.abs(want))), 1.0e-300)
        err = float(np.max(np.abs(got - want)))
        if not err <= tol:
            problems.append(f"final {field} differs from the reference by "
                            f"{err:.3e} (tolerance {tol:.3e})")
    return problems


def check_run(case, result, reference: dict | None) -> list[str]:
    """Every problem found in one run's outputs; empty when it passes.

    ``reference`` is this case's recorded final state, or None when the
    seed is not the default one.
    """
    problems = _check_termination(case, result)
    if result.status != 0:
        return problems
    problems += _check_budget(result)
    final_rows = None
    for path in result.snapshots[1:]:
        found, rows = _check_snapshot(path, case.n_cells)
        problems += found
        final_rows = rows
    if reference is not None and final_rows is not None and not problems:
        problems += _check_reference(final_rows, reference)
    return problems
