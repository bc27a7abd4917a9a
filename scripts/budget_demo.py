#!/usr/bin/env python3
"""Demonstrate the discrete kinetic-energy and entropy budgets on a smooth
periodic field: the entropy-conservative flux keeps dU/dt at round-off,
dissipation produces entropy, and every decomposition closes exactly."""

import numpy as np

from kepes.diagnostics import budget_report
from kepes.dissipation import DissipationSpec
from kepes.reconstruction import ReconSpec
from kepes.spatial import BoundaryCondition, BoundarySpec, Grid1D, assemble_rhs
from kepes.thermo import GasModel, PrimState, prim_to_cons

PERIODIC = BoundarySpec(BoundaryCondition("periodic"),
                        BoundaryCondition("periodic"))

CASES = [
    ("kep, no dissipation", "kep", DissipationSpec()),
    ("kepec, no dissipation", "kepec", DissipationSpec()),
    ("kepec_ac, no dissipation", "kepec_ac", DissipationSpec()),
    ("kepec + matrix(roe)", "kepec",
     DissipationSpec(kind="matrix", matrix_law="roe")),
    ("kepec + matrix(kes)", "kepec",
     DissipationSpec(kind="matrix", matrix_law="kes")),
    ("kepec + scalar JST", "kepec",
     DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)),
]


def main():
    gas = GasModel()
    grid = Grid1D(128, 0.0, 1.0)
    x = grid.cell_centers()
    prim = PrimState(1.0 + 0.3 * np.sin(2 * np.pi * x),
                     0.5 + 0.2 * np.cos(2 * np.pi * x),
                     1.0 + 0.25 * np.sin(4 * np.pi * x + 0.3))
    cells = prim_to_cons(prim, gas)

    header = (f"{'case':28s} {'dKE/dt':>12s} {'p-work':>12s} "
              f"{'KE diss':>12s} {'dU/dt':>12s} {'U prod':>12s}")
    print(header)
    for label, flux, diss in CASES:
        rhs, faces = assemble_rhs(cells, grid, gas, flux, diss,
                                  ReconSpec(1), PERIODIC)
        rep = budget_report(0.0, rhs, faces, grid, gas)
        print(f"{label:28s} {rep.dke_dt:12.4e} "
              f"{rep.dke_dt_pressure_work:12.4e} "
              f"{rep.dke_dt_numerical:12.4e} {rep.du_dt:12.4e} "
              f"{rep.du_dt_numerical:12.4e}")


if __name__ == "__main__":
    main()
