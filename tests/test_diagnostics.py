import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kepes.config import initial_state
from kepes.diagnostics import (
    budget_report,
    jump_width_cells,
    l1_error,
    monotonicity_defect,
    overshoot_undershoot,
)
from kepes.dissipation import MATRIX_LAWS, DissipationSpec
from kepes.presets import preset
from kepes.reconstruction import ReconSpec
from kepes.spatial import (
    BoundaryCondition,
    BoundarySpec,
    Grid1D,
    assemble_rhs,
)
from kepes.thermo import (ConsState, GasModel, PrimState, ViscosityLaw,
                          prim_to_cons)
from kepes.timeint import march

PERIODIC = BoundarySpec(BoundaryCondition("periodic"), BoundaryCondition("periodic"))


def field(n=64, viscous=False):
    gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01)) if viscous \
        else GasModel()
    grid = Grid1D(n, 0.0, 1.0)
    x = grid.cell_centers()
    prim = PrimState(1.0 + 0.3 * np.sin(2 * np.pi * x),
                     0.5 + 0.2 * np.cos(2 * np.pi * x),
                     1.0 + 0.25 * np.sin(4 * np.pi * x + 0.3))
    return gas, grid, prim


def report_for(gas, grid, prim, flux_kind, diss, bcs=PERIODIC, recon=None):
    cells = prim_to_cons(prim, gas).stacked()
    rhs, faces = assemble_rhs(cells, grid, gas, flux_kind, diss,
                              recon or ReconSpec(1), bcs)
    return budget_report(0.0, prim, ConsState(*rhs), faces, grid, gas)


ALL_PAIRINGS = [
    ("kep", DissipationSpec()),
    ("kepec", DissipationSpec()),
    ("kepec_ac", DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)),
    ("kepec", DissipationSpec(kind="scalar", kappa2=1.0, kappa4=1 / 64,
                              beta_average="arithmetic")),
    ("kepec", DissipationSpec(kind="matrix", matrix_law="roe")),
    ("kepec", DissipationSpec(kind="matrix", matrix_law="kes")),
    ("roe_baseline", DissipationSpec(kind="matrix", matrix_law="hyb")),
    ("roe_ec", DissipationSpec(kind="matrix", matrix_law="ec1")),
]


class TestBudgetClosure:
    @pytest.mark.parametrize("flux_kind,diss", ALL_PAIRINGS)
    def test_periodic_closure(self, flux_kind, diss):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, flux_kind, diss)
        ke_sum = (rep.dke_dt_pressure_work + rep.dke_dt_numerical
                  + rep.dke_dt_viscous + rep.dke_dt_boundary)
        u_sum = (rep.du_dt_flux_residual + rep.du_dt_numerical
                 + rep.du_dt_viscous + rep.du_dt_boundary)
        assert abs(rep.dke_dt - ke_sum) < 1e-10
        assert abs(rep.du_dt - u_sum) < 1e-10

    @pytest.mark.parametrize("flux_kind,diss", ALL_PAIRINGS[:4])
    def test_open_boundary_closure(self, flux_kind, diss):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, flux_kind, diss, bcs=BoundarySpec())
        ke_sum = (rep.dke_dt_pressure_work + rep.dke_dt_numerical
                  + rep.dke_dt_viscous + rep.dke_dt_boundary)
        u_sum = (rep.du_dt_flux_residual + rep.du_dt_numerical
                 + rep.du_dt_viscous + rep.du_dt_boundary)
        assert abs(rep.dke_dt - ke_sum) < 1e-10
        assert abs(rep.du_dt - u_sum) < 1e-10

    def test_viscous_closure(self):
        gas, grid, prim = field(viscous=True)
        rep = report_for(gas, grid, prim, "kepec", DissipationSpec())
        u_sum = (rep.du_dt_flux_residual + rep.du_dt_numerical
                 + rep.du_dt_viscous + rep.du_dt_boundary)
        assert abs(rep.du_dt - u_sum) < 1e-10
        assert rep.du_dt_viscous < 0.0

    def test_conservation_errors_machine_zero(self):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kepec",
                         DissipationSpec(kind="matrix", matrix_law="roe"))
        assert abs(rep.mass_error) < 1e-13
        assert abs(rep.momentum_error) < 1e-13
        assert abs(rep.energy_error) < 1e-13


class TestKeBudget:
    def test_uniform_flow_all_zero(self):
        gas = GasModel()
        grid = Grid1D(16)
        prim = PrimState(np.full(16, 1.1), np.full(16, 0.6), np.full(16, 0.9))
        rep = report_for(gas, grid, prim, "kepec",
                         DissipationSpec(kind="matrix", matrix_law="kes"))
        assert rep.dke_dt == 0.0
        assert rep.dke_dt_pressure_work == 0.0
        assert rep.dke_dt_numerical == 0.0

    def test_inviscid_kep_flux_pressure_work_only(self):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kep", DissipationSpec())
        assert abs(rep.dke_dt - rep.dke_dt_pressure_work) < 1e-11
        assert rep.dke_dt_numerical == 0.0

    def test_kes_dissipation_closed_form(self):
        # KE loss rate equals -(1/gamma) sum a^2 rho_f beta_bar lam (du)^2
        # (the factor is 1/gamma, twice the 1/(2 gamma) sometimes quoted)
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kepec",
                         DissipationSpec(kind="matrix", matrix_law="kes"))
        from kepes.dissipation import face_average

        r = np.concatenate([prim.rho, prim.rho[:1]])
        u = np.concatenate([prim.u, prim.u[:1]])
        p = np.concatenate([prim.p, prim.p[:1]])
        left = PrimState(r[:-1], u[:-1], p[:-1])
        right = PrimState(r[1:], u[1:], p[1:])
        avg = face_average(left, right, gas, "kepec")
        lam = np.abs(avg.u) + avg.a
        beta_bar = 0.5 * (left.beta + right.beta)
        du = right.u - left.u
        expected = -(1.0 / gas.gamma) * float(
            np.sum(avg.a ** 2 * avg.rho * beta_bar * lam * du ** 2))
        assert abs(rep.dke_dt_numerical - expected) < 1e-10
        assert expected < 0.0


class TestEntropyBudget:
    def test_conservative_flux_zero_production(self):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kepec", DissipationSpec())
        assert abs(rep.du_dt) < 1e-11

    @pytest.mark.parametrize("law", ["roe", "ec1", "kes", "rus", "hyb"])
    def test_matrix_production_nonpositive(self, law):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kepec",
                         DissipationSpec(kind="matrix", matrix_law=law))
        assert rep.du_dt_numerical <= 1e-12

    def test_matrix_production_equals_quadratic(self):
        gas, grid, prim = field()
        cells = prim_to_cons(prim, gas).stacked()
        diss = DissipationSpec(kind="matrix", matrix_law="roe")
        rhs, faces = assemble_rhs(cells, grid, gas, "kepec", diss,
                                  ReconSpec(1), PERIODIC)
        rep = budget_report(0.0, prim, ConsState(*rhs), faces, grid, gas)
        # dv . d = -(1/2) dv^T Q dv summed over faces
        quad = float(np.sum(faces.dv[:-1] * faces.diss.T[:-1]))
        assert abs(rep.du_dt_numerical - quad) < 1e-13

    @pytest.mark.parametrize("law", MATRIX_LAWS)
    @pytest.mark.parametrize("name", ["sod", "modified_sod"])
    def test_first_order_face_production_nonpositive(self, name, law):
        # dv . D = -(1/2) dv^T Q dv <= 0 on every face of every marched
        # state at first order, where FaceData.dv is the jump that D is
        # built from.  At order 2 it is the cell jump and the sign can
        # fail (ROADMAP item 6); JST's fourth difference has no sign.
        base = preset(name)
        config = replace(base, recon=ReconSpec(1),
                         diss=replace(base.diss, kind="matrix",
                                      matrix_law=law),
                         time=replace(base.time, max_steps=60))
        states = 0
        for state in march(config, initial_state(config).stacked()):
            faces = state.faces
            production = np.sum(faces.dv * faces.diss.T, axis=1)
            assert production.max() <= 1e-12 * np.abs(production).max()
            states += 1
        assert (state.reason, states) == ("max_steps", 61)

    def test_scalar_production_nonpositive(self):
        gas, grid, prim = field()
        rep = report_for(gas, grid, prim, "kepec",
                         DissipationSpec(kind="scalar", kappa2=1e9,
                                         kappa4=0.0))
        assert rep.du_dt_numerical < 0.0

    def test_ac_flux_residual_refinement_rates(self):
        # per-face entropy residual of the arithmetic-average flux vanishes
        # as dx^3; the global budget sums O(1/dx) such faces and drops one
        # order
        gas = GasModel()
        face_res, global_res, dxs = [], [], []
        for n in (32, 64, 128, 256):
            grid = Grid1D(n, 0.0, 1.0)
            x = grid.cell_centers()
            prim = PrimState(1.0 + 0.3 * np.sin(2 * np.pi * x),
                             0.5 + 0.2 * np.cos(2 * np.pi * x),
                             1.0 + 0.25 * np.sin(4 * np.pi * x + 0.3))
            cells = prim_to_cons(prim, gas).stacked()
            rhs, faces = assemble_rhs(cells, grid, gas, "kepec_ac",
                                      DissipationSpec(), ReconSpec(1),
                                      PERIODIC)
            rep = budget_report(0.0, prim, ConsState(*rhs), faces, grid, gas)
            per_face = np.sum(faces.dv[:-1] * faces.central.T[:-1],
                              axis=-1) - faces.dpsi[:-1]
            face_res.append(np.abs(per_face).max())
            global_res.append(abs(rep.du_dt))
            dxs.append(grid.dx)
        face_slope = np.polyfit(np.log(dxs), np.log(face_res), 1)[0]
        global_slope = np.polyfit(np.log(dxs), np.log(global_res), 1)[0]
        assert face_slope >= 2.8
        assert global_slope >= 1.9

    def test_viscous_entropy_sign(self):
        gas, grid, prim = field(viscous=True)
        rep = report_for(gas, grid, prim, "kepec", DissipationSpec())
        assert rep.du_dt_viscous < 0.0


class TestSolutionMetrics:
    def test_exact_step_zero_width(self):
        x = np.linspace(0.005, 0.995, 100)
        values = np.where(x < 0.5, 1.0, 0.125)
        assert jump_width_cells(x, values, 0.5, 1.0, 0.125, 0.2) == 0
        over, under = overshoot_undershoot(values, 0.125, 1.0)
        assert over == 0.0 and under == 0.0

    def test_tanh_width_matches_analytic(self):
        dx = 0.01
        x = np.arange(0.005, 1.0, dx)
        w = 0.03
        values = np.tanh((x - 0.5) / w)
        # 10%..90% of the jump corresponds to |tanh| < 0.8
        expected = 2.0 * np.arctanh(0.8) * w / dx
        measured = jump_width_cells(x, values, 0.5, -1.0, 1.0, 0.3)
        assert abs(measured - expected) <= 1.0

    def test_monotone_ramp_no_defect(self):
        values = np.linspace(0.0, 1.0, 50)
        assert monotonicity_defect(values, increasing=True) == 0.0
        assert monotonicity_defect(values[::-1], increasing=False) == 0.0

    def test_defect_measures_adverse_step(self):
        values = np.array([0.0, 0.3, 0.2, 0.6, 1.0])
        assert np.isclose(monotonicity_defect(values, increasing=True), 0.1)

    def test_overshoot(self):
        values = np.array([0.0, 1.2, 0.9, -0.05])
        over, under = overshoot_undershoot(values, 0.0, 1.0)
        assert np.isclose(over, 0.2)
        assert np.isclose(under, 0.05)

    def test_l1_error_zero_for_identical(self):
        q = PrimState(np.ones(10), np.zeros(10), np.ones(10))
        errs = l1_error(q, q, 0.1)
        assert errs == {"rho": 0.0, "u": 0.0, "p": 0.0}

    def test_bundled_metrics(self):
        from kepes.diagnostics import solution_metrics

        x = np.linspace(0.005, 0.995, 100)
        rho = np.where(x < 0.5, 1.0, 0.125)
        prim = PrimState(rho, np.zeros(100), np.where(x < 0.5, 1.0, 0.1))
        m = solution_metrics(x, prim, reference=prim,
                             jumps=[(0.5, 1.0, 0.125)])
        assert m.l1 == {"rho": 0.0, "u": 0.0, "p": 0.0}
        assert m.overshoot["rho"] == 0.0
        assert m.jump_widths == [0]

    def test_bundled_metrics_without_reference(self):
        from kepes.diagnostics import solution_metrics

        x = np.linspace(0.0, 1.0, 50)
        prim = PrimState(np.ones(50), np.zeros(50), np.ones(50))
        m = solution_metrics(x, prim)
        assert m.l1 is None and m.overshoot is None
        assert m.jump_widths == []


def test_budget_demo_prints_every_case(capsys, monkeypatch):
    # scripts/budget_demo.py is the script that calls the stage directly
    path = Path(__file__).resolve().parents[1] / "scripts" / "budget_demo.py"
    spec = importlib.util.spec_from_file_location("budget_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    original, reports = demo.budget_report, []

    def recorded(*args):
        reports.append(original(*args))
        return reports[-1]

    monkeypatch.setattr(demo, "budget_report", recorded)
    demo.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["case", "dKE/dt", "p-work"]
    assert len(lines) == 1 + len(demo.CASES) == 1 + len(reports)
    for line, rep, (label, flux, diss) in zip(lines[1:], reports, demo.CASES):
        assert line.startswith(label)
        assert len(line[len(label):].split()) == 5
        if flux in ("kep", "kepec") and diss.kind == "none":
            # without dissipation the KE rate is the pressure work
            assert abs(rep.dke_dt - rep.dke_dt_pressure_work) <= 1e-12
