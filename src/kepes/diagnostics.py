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
from .thermo import GasModel, entropy_pair, entropy_vars

__all__ = [
    "BudgetReport",
    "SolutionMetrics",
    "ke_budget",
    "entropy_budget",
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


def _face_slice(faces: FaceData, n: int):
    """Faces entering the interior sums: all physical faces once under
    periodicity, strictly interior faces otherwise."""
    return slice(0, n) if faces.periodic else slice(1, n)


def ke_budget(prim, rhs, faces: FaceData, grid: Grid1D):
    """Kinetic-energy budget terms of the (rho, u, p) rows prim and the
    (3, n) rhs.

    Returns (direct, pressure_work, numerical, viscous, boundary): the
    direct evaluation sum_j (-u_j^2/2 rhs_rho + u_j rhs_m) dx and its
    face-sum decomposition.
    """
    n = grid.n_cells
    dx = grid.dx
    u = prim[1]
    rhs_rho, rhs_m, _ = rhs
    direct = float(np.sum((-0.5 * u ** 2 * rhs_rho + u * rhs_m)) * dx)

    sl = _face_slice(faces, n)
    du, ub = faces.du[sl], faces.u_bar[sl]
    pressure_work = float(np.sum(du * faces.p_tilde[sl]))
    numerical = float(np.sum(du * (faces.diss[1, sl]
                                   - ub * faces.diss[0, sl])))
    viscous = float(-np.sum(du * faces.visc[1, sl]))

    boundary = 0.0
    if not faces.periodic:
        first, last = faces.net_ends
        phi_first = np.array([-0.5 * u[0] ** 2, u[0], 0.0])
        phi_last = np.array([-0.5 * u[-1] ** 2, u[-1], 0.0])
        boundary = float(phi_first @ first - phi_last @ last)
    return direct, pressure_work, numerical, viscous, boundary


def entropy_budget(prim, rhs_cells: np.ndarray, faces: FaceData,
                   grid: Grid1D, gas: GasModel):
    """Entropy budget terms for U = -rho s/(gamma - 1) of the (rho, u, p)
    rows prim; rhs_cells is the rhs as one (n, 3) cell-major contiguous
    array, np.stack(rhs, axis=-1).

    Returns (direct, flux_residual, numerical, viscous, boundary) where
    flux_residual sums dv . f_central - d(psi) over interior faces (zero
    for an entropy-conservative central flux) and numerical sums
    dv . d_diss = -(1/2) dv^T Q dv, which is never positive.
    """
    n = grid.n_cells
    dx = grid.dx
    # face- and cell-major contiguous copies: np.sum adds pairwise in memory
    # order, so the layout fixes the rounding of every sum below
    v = np.ascontiguousarray(entropy_vars(prim, gas).T)
    direct = float(np.sum(v * rhs_cells) * dx)

    sl = _face_slice(faces, n)
    dv = faces.dv[sl]
    central, diss, visc = (np.ascontiguousarray(f.T)[sl]
                           for f in (faces.central, faces.diss, faces.visc))
    flux_residual = float(np.sum(np.sum(dv * central, axis=-1)
                                 - faces.dpsi[sl]))
    numerical = float(np.sum(dv * diss))
    viscous = float(-np.sum(dv * visc))

    boundary = float(np.sum(faces.dpsi[sl]))
    if not faces.periodic:
        first, last = faces.net_ends
        boundary += float(v[0] @ first - v[-1] @ last)
    return direct, flux_residual, numerical, viscous, boundary


def budget_report(time: float, prim, rhs, faces: FaceData, grid: Grid1D,
                  gas: GasModel) -> BudgetReport:
    """Assemble the full budget sample for one instant from the
    (rho, u, p) rows prim and the (3, n) rhs of the cells."""
    dx = grid.dx
    rho, u, _ = prim
    total_ke = float(np.sum(0.5 * rho * u ** 2) * dx)
    U, _, _ = entropy_pair(prim, gas)
    total_entropy = float(np.sum(U) * dx)

    # the cell-major rhs is stacked once per sample, and the boundary net
    # fluxes once per FaceData (net_ends)
    rhs_cells = np.stack(rhs, axis=-1)
    ke = ke_budget(prim, rhs, faces, grid)
    ent = entropy_budget(prim, rhs_cells, faces, grid, gas)

    first, last = faces.net_ends
    cons_err = np.sum(rhs_cells, axis=0) * dx - (first - last)

    return BudgetReport(
        time=time,
        total_ke=total_ke,
        total_entropy=total_entropy,
        dke_dt=ke[0],
        dke_dt_pressure_work=ke[1],
        dke_dt_numerical=ke[2],
        dke_dt_viscous=ke[3],
        dke_dt_boundary=ke[4],
        du_dt=ent[0],
        du_dt_flux_residual=ent[1],
        du_dt_numerical=ent[2],
        du_dt_viscous=ent[3],
        du_dt_boundary=ent[4],
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
