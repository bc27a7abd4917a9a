"""Budget instrumentation and solution-quality metrics.

Budgets are evaluated on the semi-discrete right-hand side, so the
kinetic-energy and entropy identities close to machine precision
independently of the time integrator.  The face-sum decompositions follow
from summation by parts: with cell projection vectors phi_j the total
d/dt of sum phi_j . u_j equals a sum of face terms d(phi) . (F - G) plus
boundary work.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .spatial import FaceData, Grid1D
from .thermo import GasModel, entropy_vars, physical_entropy

__all__ = [
    "BudgetReport",
    "SolutionMetrics",
    "budget_report",
    "solution_metrics",
    "overshoot_undershoot",
    "monotonicity_defect",
    "jump_width_cells",
    "l1_error",
]


@dataclass(frozen=True)
class BudgetReport:
    """One sample of the global budgets.

    The decomposition fields satisfy
    dke_dt = dke_dt_pressure_work + dke_dt_numerical + dke_dt_viscous
             + dke_dt_boundary
    du_dt = du_dt_flux_residual + du_dt_numerical + du_dt_viscous
            + du_dt_boundary
    and the *_error fields are the telescoping conservation residuals,
    all to machine precision.
    """

    time: float
    total_ke: float
    total_entropy: float
    dke_dt: float
    dke_dt_pressure_work: float
    dke_dt_numerical: float
    dke_dt_viscous: float
    dke_dt_boundary: float
    du_dt: float
    du_dt_flux_residual: float
    du_dt_numerical: float
    du_dt_viscous: float
    du_dt_boundary: float
    mass_error: float
    momentum_error: float
    energy_error: float

    @staticmethod
    def csv_header() -> str:
        return ",".join(f.name for f in fields(BudgetReport))

    def csv_row(self) -> str:
        return ",".join(f"{getattr(self, f.name):.17g}"
                        for f in fields(BudgetReport))


def budget_report(time: float, rhs, faces: FaceData, grid: Grid1D,
                  gas: GasModel) -> BudgetReport:
    """Assemble the full budget sample for one instant from the (3, n) rhs
    of the cells and the stage's face record, whose (rho, u, p) rows of
    the cells (faces.cells) are the state sampled.

    The entropy is U = -rho s/(gamma - 1).  The face sums run over all
    physical faces once under periodicity, strictly interior faces
    otherwise.  du_dt_flux_residual sums dv . f_central - d(psi), zero for
    an entropy-conservative central flux, and du_dt_numerical sums
    dv . d_diss = -(1/2) dv^T Q dv, which is never positive.
    """
    n, dx = grid.n_cells, grid.dx
    rho, u = faces.cells[0], faces.cells[1]
    # face- and cell-major contiguous arrays: a sum adds pairwise in memory
    # order, so the layout fixes the rounding of every sum below.  One
    # entropy-variable pass over the n + 2 cells behind the faces, written
    # face-major, gives the cells' v (rows 1 .. n) and, as the
    # differences of adjacent rows, the face jumps dv; its s gives the
    # cells' entropy.  The boundary net
    # fluxes are the stage's, at the first and last face.  Each array is
    # freed once read, which keeps the sample's memory peak low.
    s = physical_entropy(faces.sides, gas)
    ev = np.empty((n + 2, 3))
    entropy_vars(faces.sides, gas, ev.T, s)
    v = ev[1:-1]
    total_entropy = float((-rho * s[1:-1] / (gas.gamma - 1.0)).sum() * dx)
    del s
    first, last = faces.net[:, [0, -1]].T
    rhs_cells = np.stack(rhs, axis=-1)
    cons_err = rhs_cells.sum(axis=0) * dx - (first - last)
    du_dt = float(np.multiply(v, rhs_cells, rhs_cells).sum() * dx)
    del rhs_cells
    sl = slice(0, n) if faces.periodic else slice(1, n)
    du, ub, dpsi = faces.du[sl], faces.u_bar[sl], faces.dpsi[sl]
    dv = (ev[1:] - ev[:-1])[sl]

    def dv_times(flux):
        # the face-major product of dv and one flux, whose copy is freed
        # before the next flux is copied
        f = np.ascontiguousarray(flux[:, sl].T)
        return np.multiply(dv, f, f)

    ke_boundary = 0.0
    entropy_boundary = float(dpsi.sum())
    if not faces.periodic:
        phi_first = np.array([-0.5 * u[0] ** 2, u[0], 0.0])
        phi_last = np.array([-0.5 * u[-1] ** 2, u[-1], 0.0])
        ke_boundary = float(phi_first @ first - phi_last @ last)
        entropy_boundary += float(v[0] @ first - v[-1] @ last)
    del ev, v

    return BudgetReport(
        time=time,
        total_ke=float((0.5 * rho * u ** 2).sum() * dx),
        total_entropy=total_entropy,
        dke_dt=float((-0.5 * u ** 2 * rhs[0] + u * rhs[1]).sum() * dx),
        dke_dt_pressure_work=float((du * faces.p_tilde[sl]).sum()),
        dke_dt_numerical=float((du * (faces.diss[1, sl]
                                      - ub * faces.diss[0, sl])).sum()),
        dke_dt_viscous=float(-(du * faces.visc[1, sl]).sum()),
        dke_dt_boundary=ke_boundary,
        du_dt=du_dt,
        du_dt_flux_residual=float((dv_times(faces.central).sum(axis=-1)
                                   - dpsi).sum()),
        du_dt_numerical=float(dv_times(faces.diss).sum()),
        du_dt_viscous=float(-dv_times(faces.visc).sum()),
        du_dt_boundary=entropy_boundary,
        mass_error=float(cons_err[0]),
        momentum_error=float(cons_err[1]),
        energy_error=float(cons_err[2]),
    )


@dataclass(frozen=True)
class SolutionMetrics:
    """Solution-quality summary against an optional exact reference.

    l1, overshoot and undershoot are per-variable dicts; jump_widths holds
    the 10-90% cell count of each reference density discontinuity in the
    order given.
    """

    l1: dict | None
    overshoot: dict | None
    undershoot: dict | None
    jump_widths: list


def solution_metrics(x, prim, reference=None, jumps=(),
                     dx: float | None = None) -> SolutionMetrics:
    """L1 errors, range violations and discontinuity widths of the
    (rho, u, p) rows prim against the rows reference.

    jumps is a sequence of (position, value_left, value_right) density
    discontinuities of the reference; each width window extends to 45% of
    the distance to the nearest other feature or domain end.
    """
    x = np.asarray(x, dtype=float)
    if dx is None:
        dx = float(x[1] - x[0]) if len(x) > 1 else 1.0
    l1 = over = under = None
    if reference is not None:
        l1 = l1_error(prim, reference, dx)
        over, under = {}, {}
        for key, v, r in zip(("rho", "u", "p"), prim, reference):
            over[key], under[key] = overshoot_undershoot(
                v, float(np.min(r)), float(np.max(r)))
    positions = [j[0] for j in jumps]
    widths = []
    for pos, v_l, v_r in jumps:
        others = [p for p in positions if p != pos] + [float(x[0] - 0.5 * dx),
                                                       float(x[-1] + 0.5 * dx)]
        half_window = 0.45 * min(abs(pos - p) for p in others)
        widths.append(jump_width_cells(x, prim[0], pos, v_l, v_r,
                                       half_window))
    return SolutionMetrics(l1, over, under, widths)


def overshoot_undershoot(values, lo: float, hi: float):
    """Excess beyond the reference range [lo, hi]: (overshoot, undershoot)."""
    values = np.asarray(values, dtype=float)
    return (float(max(0.0, values.max() - hi)),
            float(max(0.0, lo - values.min())))


def monotonicity_defect(values, increasing: bool = True) -> float:
    """Largest adverse step of a profile expected to be monotone."""
    values = np.asarray(values, dtype=float)
    steps = np.diff(values)
    adverse = -steps if increasing else steps
    return float(max(0.0, adverse.max())) if steps.size else 0.0


def jump_width_cells(x, values, x_jump: float, v_left: float, v_right: float,
                     half_window: float) -> int:
    """Cells strictly inside the 10-90% band of a discontinuity.

    An ideal step has width 0; a profile smeared over k cells reports about
    k.  Only cells within half_window of the reference position x_jump are
    considered, so neighbouring waves do not contaminate the count.
    """
    x = np.asarray(x, dtype=float)
    values = np.asarray(values, dtype=float)
    jump = v_right - v_left
    lo_level = v_left + 0.1 * jump
    hi_level = v_left + 0.9 * jump
    band_lo, band_hi = min(lo_level, hi_level), max(lo_level, hi_level)
    near = np.abs(x - x_jump) <= half_window
    inside = (values > band_lo) & (values < band_hi)
    return int(np.count_nonzero(near & inside))


def l1_error(prim, ref, dx: float) -> dict:
    """L1 distance to a reference profile, per primitive variable."""
    return {key: float(np.sum(np.abs(v - r)) * dx)
            for key, v, r in zip(("rho", "u", "p"), prim, ref)}
