import numpy as np
import pytest

from kepes.dissipation import DissipationSpec
from kepes.reconstruction import ReconSpec
from kepes.spatial import (
    BoundaryCondition,
    BoundarySpec,
    Grid1D,
    apply_boundary,
    assemble_rhs,
    viscous_face_flux,
)
from kepes.thermo import (
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    ViscosityLaw,
    entropy_vars,
    prim_to_cons,
)

from conftest import advance, max_residual

PERIODIC = BoundarySpec(BoundaryCondition("periodic"), BoundaryCondition("periodic"))
TRANSMISSIVE = BoundarySpec()


def smooth_periodic_field(n=64):
    grid = Grid1D(n, 0.0, 1.0)
    x = grid.cell_centers()
    prim = PrimState(1.0 + 0.3 * np.sin(2 * np.pi * x),
                     0.5 + 0.2 * np.cos(2 * np.pi * x),
                     1.0 + 0.25 * np.sin(4 * np.pi * x + 0.3))
    return grid, prim


class TestGrid:
    def test_spacing(self):
        grid = Grid1D(100, 0.0, 1.0)
        assert grid.dx == 0.01
        assert len(grid.cell_centers()) == 100
        assert np.isclose(grid.cell_centers()[0], 0.005)
        assert len(grid.faces()) == 101

    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid1D(3)
        with pytest.raises(ValueError):
            Grid1D(10, 1.0, 0.0)


class TestBoundaries:
    def test_periodic_must_pair(self):
        with pytest.raises(ValueError):
            BoundarySpec(BoundaryCondition("periodic"), BoundaryCondition())

    def test_fixed_state_needs_state(self):
        with pytest.raises(ValueError):
            BoundaryCondition("fixed_state")

    def test_shock_outflow_right_only(self):
        with pytest.raises(ValueError):
            BoundarySpec(BoundaryCondition("shock_outflow", mass_flux=1.0),
                         BoundaryCondition())

    @staticmethod
    def extended(cells):
        """cells with two unset ghost columns per side."""
        ext = np.full((3, cells.shape[1] + 4), np.nan)
        ext[:, 2:-2] = cells
        return ext

    def test_periodic_ghosts_wrap(self):
        cells = np.array([np.arange(1.0, 7.0), np.zeros(6), np.ones(6)])
        ext = apply_boundary(self.extended(cells), PERIODIC)
        assert ext[0][1] == 6.0  # ghost[-1] = cells[n-1]
        assert ext[0][0] == 5.0
        assert ext[0][-2] == 1.0  # ghost[n] = cells[0]

    def test_transmissive_ghosts_copy_edge(self):
        cells = np.array([np.arange(1.0, 7.0), np.zeros(6), np.ones(6)])
        ext = apply_boundary(self.extended(cells), TRANSMISSIVE)
        assert ext[0][0] == ext[0][1] == 1.0
        assert ext[0][-1] == ext[0][-2] == 6.0  # ghost[n] = cells[n-1]

    def test_fixed_state_ghosts(self):
        cells = np.array([np.ones(6), np.zeros(6), np.ones(6)])
        bc = BoundarySpec(
            BoundaryCondition("fixed_state", state=PrimState(2.0, 1.0, 3.0)),
            BoundaryCondition())
        ext = apply_boundary(self.extended(cells), bc)
        assert ext[0][0] == ext[0][1] == 2.0
        assert ext[2][0] == 3.0


class TestViscousFaceFlux:
    def test_equal_states(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01))
        q = PrimState(1.0, 0.5, 1.0)
        g = viscous_face_flux(FaceMeans(q, q), gas, 0.1)
        assert np.allclose([g[0], g[1], g[2]], 0.0, atol=1e-15)

    def test_shear_only(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01))
        # same temperature, velocity jump 0.1 over dx = 0.05
        left = PrimState(1.0, 0.0, 1.0)
        right = PrimState(1.0, 0.1, 1.0)
        g = viscous_face_flux(FaceMeans(left, right), gas, 0.05)
        tau = 4.0 / 3.0 * 0.01 * 2.0
        assert np.isclose(g[1], tau, rtol=1e-14)
        assert np.isclose(g[2], 0.05 * tau, rtol=1e-14)  # u_bar tau

    def test_heat_flux_only(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01),
                       prandtl=0.72)
        # T drops by 0.2 across dx = 0.1 (rho = 1, R = 1 so T = p)
        left = PrimState(1.0, 0.0, 1.0)
        right = PrimState(1.0, 0.0, 0.8)
        g = viscous_face_flux(FaceMeans(left, right), gas, 0.1)
        kappa = float(gas.conductivity(0.9))
        q_flux = -kappa * (-0.2) / 0.1
        assert np.isclose(g[2], -q_flux, rtol=1e-14)
        assert g[0] == 0.0

    @pytest.mark.parametrize("name", ["ns_shock_structure_n200_d4",
                                      "sod_viscous"])
    def test_one_viscosity_call_per_rhs(self, name, monkeypatch):
        # kappa is formed from the mu already evaluated, in the bits of
        # conductivity(T) alone.  The stage's face temperature is scratch
        # that the rest of the stage overwrites, so a copy is recorded.
        from kepes.config import initial_state
        from kepes.presets import preset

        config = preset(name)
        calls, viscosity = [], GasModel.viscosity

        def counted(gas, T, *out):
            calls.append(np.array(T))
            return viscosity(gas, T, *out)

        monkeypatch.setattr(GasModel, "viscosity", counted)
        assemble_rhs(initial_state(config), config.grid,
                     config.gas, config.flux_kind, config.diss, config.recon,
                     config.bcs)
        assert len(calls) == 1
        t_face, gas = calls[0], config.gas
        assert np.array_equal(gas.conductivity(t_face, viscosity(gas, t_face)),
                              gas.conductivity(t_face))


class TestAssembleRhs:
    def test_uniform_state_periodic_zero(self, gas):
        grid = Grid1D(16)
        prim = PrimState(np.full(16, 1.2), np.full(16, 0.7), np.full(16, 0.9))
        cells = prim_to_cons(prim, gas)
        for diss in (DissipationSpec(),
                     DissipationSpec(kind="scalar", kappa2=0.5, kappa4=0.02),
                     DissipationSpec(kind="matrix", matrix_law="ec1")):
            rhs, _ = assemble_rhs(cells, grid, gas, "kepec", diss,
                                  ReconSpec(2, "minmod"), PERIODIC)
            assert max_residual(rhs) < 1e-14

    @pytest.mark.parametrize("flux_kind", ["kep", "roe_ec", "kepec_ac",
                                           "kepec", "roe_baseline"])
    @pytest.mark.parametrize("diss", [
        DissipationSpec(),
        DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32),
        DissipationSpec(kind="matrix", matrix_law="roe"),
        DissipationSpec(kind="matrix", matrix_law="hyb"),
    ])
    def test_telescoping_conservation_periodic(self, flux_kind, diss, gas):
        grid, prim = smooth_periodic_field(48)
        cells = prim_to_cons(prim, gas)
        rhs, _ = assemble_rhs(cells, grid, gas, flux_kind, diss,
                              ReconSpec(2, "minmod"), PERIODIC)
        for comp in (rhs[0], rhs[1], rhs[2]):
            assert abs(float(np.sum(comp)) * grid.dx) < 1e-13

    def test_telescoping_conservation_open_boundaries(self, gas):
        grid, prim = smooth_periodic_field(48)
        cells = prim_to_cons(prim, gas)
        rhs, faces = assemble_rhs(cells, grid, gas, "kepec",
                                  DissipationSpec(kind="matrix"),
                                  ReconSpec(1), TRANSMISSIVE)
        net = faces.net.T
        total = np.stack([rhs[0], rhs[1], rhs[2]], axis=-1).sum(axis=0) * grid.dx
        assert np.abs(total - (net[0] - net[-1])).max() < 1e-13

    def test_semi_discrete_ke_balance(self, gas):
        # KEP-form flux, no dissipation, inviscid, periodic:
        # d/dt sum K = sum p_tilde du exactly
        grid, prim = smooth_periodic_field()
        cells = prim_to_cons(prim, gas)
        for flux_kind in ("kep", "kepec_ac", "kepec"):
            rhs, faces = assemble_rhs(cells, grid, gas, flux_kind,
                                      DissipationSpec(), ReconSpec(1),
                                      PERIODIC)
            dke = float(np.sum(-0.5 * prim.u ** 2 * rhs[0]
                               + prim.u * rhs[1]) * grid.dx)
            pwork = float(np.sum(faces.du[:-1] * faces.p_tilde[:-1]))
            assert abs(dke - pwork) < 1e-11

    def test_semi_discrete_entropy_balance_inviscid(self, gas):
        grid, prim = smooth_periodic_field()
        cells = prim_to_cons(prim, gas)
        rhs, _ = assemble_rhs(cells, grid, gas, "kepec", DissipationSpec(),
                              ReconSpec(1), PERIODIC)
        v = entropy_vars(prim, gas)
        du_dt = float(np.sum(v[0] * rhs[0] + v[1] * rhs[1] + v[2] * rhs[2])
                      * grid.dx)
        assert abs(du_dt) < 1e-11

    def test_semi_discrete_entropy_balance_viscous(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01),
                       prandtl=0.72)
        grid, prim = smooth_periodic_field()
        cells = prim_to_cons(prim, gas)
        rhs, _ = assemble_rhs(cells, grid, gas, "kepec", DissipationSpec(),
                              ReconSpec(1), PERIODIC)
        v = entropy_vars(prim, gas)
        du_dt = float(np.sum(v[0] * rhs[0] + v[1] * rhs[1] + v[2] * rhs[2])
                      * grid.dx)
        # closed-form viscous entropy production (face sums, wrapped)
        T = prim.p / prim.rho
        Tl = np.concatenate([T, T[:1]])
        ul = np.concatenate([prim.u, prim.u[:1]])
        bl = np.concatenate([prim.beta, prim.beta[:1]])
        T_face = 0.5 * (Tl[:-1] + Tl[1:])
        mu = gas.viscosity(T_face)
        kappa = gas.conductivity(T_face)
        du = ul[1:] - ul[:-1]
        dT = Tl[1:] - Tl[:-1]
        bbar = 0.5 * (bl[:-1] + bl[1:])
        dx = grid.dx
        expected = -float(np.sum(
            8.0 * mu * bbar / 3.0 * (du / dx) ** 2 * dx
            + kappa / (gas.gas_constant * Tl[:-1] * Tl[1:]) * (dT / dx) ** 2 * dx))
        assert abs(du_dt - expected) < 1e-11
        assert expected < 0.0

    def test_scalar_dissipation_ke_decay(self, gas):
        # eps2 = 1, eps4 = 0: KE budget gains exactly -(1/2) sum lam rho_bar du^2
        grid, prim = smooth_periodic_field()
        cells = prim_to_cons(prim, gas)
        diss = DissipationSpec(kind="scalar", kappa2=1e9, kappa4=0.0,
                               beta_average="logarithmic")
        rhs, faces = assemble_rhs(cells, grid, gas, "kepec", diss,
                                  ReconSpec(1), PERIODIC)
        dke = float(np.sum(-0.5 * prim.u ** 2 * rhs[0] + prim.u * rhs[1])
                    * grid.dx)
        pwork = float(np.sum(faces.du[:-1] * faces.p_tilde[:-1]))
        ul = np.concatenate([prim.u, prim.u[:1]])
        rl = np.concatenate([prim.rho, prim.rho[:1]])
        bl = np.concatenate([prim.beta, prim.beta[:1]])
        from kepes.thermo import log_mean

        du = ul[1:] - ul[:-1]
        rho_bar = 0.5 * (rl[:-1] + rl[1:])
        beta_ln = log_mean(bl[:-1], bl[1:])
        lam = np.abs(0.5 * (ul[:-1] + ul[1:])) + np.sqrt(gas.gamma / (2 * beta_ln))
        decay = -0.5 * float(np.sum(lam * rho_bar * du ** 2))
        assert abs(dke - (pwork + decay)) < 1e-11
        assert decay < 0.0

    def test_invalid_cell_reported(self, gas):
        grid = Grid1D(8)
        prim = PrimState(np.ones(8), np.zeros(8), np.ones(8))
        cells = prim_to_cons(prim, gas)
        cells[2] = np.where(np.arange(8) == 5, -1.0, cells[2])
        with pytest.raises(InvalidStateError, match="cell 5"):
            assemble_rhs(cells, grid, gas, "kepec", DissipationSpec(),
                         ReconSpec(1), TRANSMISSIVE)

    @pytest.mark.parametrize("cell", [0, 11, 23])
    @pytest.mark.parametrize("row, value", [
        (row, value) for row in (0, 1, 2)
        for value in (np.nan, np.inf, -np.inf)])
    def test_non_finite_cell_reported(self, gas, row, value, cell):
        # one non-finite rho, m or E is reported as that cell, wherever
        # the cell sits
        prim = PrimState(np.ones(24), np.full(24, 0.3), np.ones(24))
        cells = prim_to_cons(prim, gas)
        cells[row, cell] = value
        with pytest.raises(InvalidStateError, match=f"cell {cell}:"):
            assemble_rhs(cells, Grid1D(24), gas, "kepec",
                         DissipationSpec(kind="matrix"), ReconSpec(1),
                         TRANSMISSIVE)

    @pytest.mark.parametrize("p", [0.0, -1e-12])
    def test_non_positive_pressure_reported(self, gas, p):
        prim = PrimState(np.ones(24), np.full(24, 0.3), np.ones(24))
        cells = prim_to_cons(prim, gas)
        # E = p/(gamma - 1) + m u/2 sets the pressure of cell 7 to p
        cells[2, 7] = p / (gas.gamma - 1.0) + 0.5 * cells[1, 7] * 0.3
        with pytest.raises(InvalidStateError, match="cell 7:"):
            assemble_rhs(cells, Grid1D(24), gas, "kepec",
                         DissipationSpec(kind="matrix"), ReconSpec(1),
                         TRANSMISSIVE)

    def test_huge_finite_state_is_valid(self, gas):
        # every cell is finite and positive, although a sum over the cells
        # overflows: the validity test must not rest on such a sum
        prim = PrimState(np.full(24, 1e307), np.zeros(24), np.full(24, 1e307))
        cells = prim_to_cons(prim, gas)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.sum(cells[2]))
        rhs, _ = assemble_rhs(cells, Grid1D(24), gas, "kepec",
                              DissipationSpec(kind="matrix"), ReconSpec(1),
                              TRANSMISSIVE)
        assert np.all(np.isfinite(rhs))

    def test_unknown_flux_kind(self, gas):
        grid, prim = smooth_periodic_field(16)
        cells = prim_to_cons(prim, gas)
        with pytest.raises(ValueError):
            assemble_rhs(cells, grid, gas, "godunov", DissipationSpec(),
                         ReconSpec(1), PERIODIC)


class TestPressureEquilibrium:
    # a density wave at uniform velocity and pressure is an exact
    # travelling solution; a flux keeps it when the semi-discrete pressure
    # does not change at t = 0 (Shima et al., JCP 427, 2021)
    @pytest.mark.parametrize("flux_kind, kept", [
        ("kepec", True), ("roe_ec", True), ("kepec_ac", True),
        ("roe_baseline", True), ("kep", False)])
    def test_density_wave(self, gas, flux_kind, kept):
        grid = Grid1D(64, 0.0, 1.0)
        x = grid.cell_centers()
        prim = PrimState(1.0 + 0.5 * np.sin(2 * np.pi * x), np.ones(64),
                         np.ones(64))
        cells = prim_to_cons(prim, gas)
        rhs, _ = assemble_rhs(cells, grid, gas, flux_kind, DissipationSpec(),
                              ReconSpec(1), PERIODIC)
        # p = (gamma - 1)(E - m^2/(2 rho)), differentiated along the rhs
        u = prim.u
        dp_dt = (gas.gamma - 1.0) * (rhs[2] - u * rhs[1]
                                     + 0.5 * u * u * rhs[0])
        if kept:
            assert np.max(np.abs(dp_dt)) <= 1e-12
        else:
            assert np.max(np.abs(dp_dt)) > 1e-3


class TestStationaryShockBehavior:
    def test_ac_oscillations_vanish_with_full_augmentation(self):
        # the arithmetic-average flux with the 1/6 acoustic augmentation
        # leaves pre-shock density oscillations; raising the augmentation
        # coefficient to 1 removes them
        from dataclasses import replace

        from kepes.presets import preset, stationary_shock_states

        base = preset("stationary_shock_m1.5")
        left, right = stationary_shock_states(1.5, base.gas)
        mid = 0.5 * (left.rho + right.rho)

        def preshock_defect(rho):
            crossing = int(np.argmax(rho > mid))
            pre = rho[:max(crossing, 1)]
            d = np.diff(pre)
            return float(max(0.0, (-d).max())) if d.size else 0.0

        defects = {}
        for beta in (1.0 / 6.0, 1.0):
            cfg = replace(base, flux_kind="kepec_ac",
                          diss=replace(base.diss, matrix_law="ec1",
                                       ec1_beta=beta))
            prim, _, _ = advance(cfg, n_steps=5000)
            defects[beta] = preshock_defect(np.asarray(prim.rho))
        assert defects[1.0 / 6.0] > 1e-3
        assert defects[1.0] < 1e-10


class TestShockOutflow:
    def make(self, gas, mass_flux=1.0):
        from kepes.presets import stationary_shock_states

        left, right = stationary_shock_states(1.5, gas)
        grid = Grid1D(24)
        x = grid.cell_centers()
        prim = PrimState(np.where(x < 0.5, left.rho, right.rho),
                         np.where(x < 0.5, left.u, right.u),
                         np.where(x < 0.5, left.p, right.p))
        bcs = BoundarySpec(
            BoundaryCondition("fixed_state", state=left),
            BoundaryCondition("shock_outflow", mass_flux=mass_flux))
        return grid, prim_to_cons(prim, gas), bcs

    def test_prescribed_boundary_mass_flux(self, gas):
        grid, cells, bcs = self.make(gas)
        rhs, faces = assemble_rhs(cells, grid, gas, "kepec",
                                  DissipationSpec(kind="matrix",
                                                  matrix_law="ec1"),
                                  ReconSpec(1), bcs)
        net = faces.net.T
        assert net[-1, 0] == 1.0

    def test_last_cell_momentum_energy_frozen(self, gas):
        grid, cells, bcs = self.make(gas)
        rhs, _ = assemble_rhs(cells, grid, gas, "kepec",
                              DissipationSpec(kind="matrix", matrix_law="ec1"),
                              ReconSpec(1), bcs)
        assert rhs[1][-1] == 0.0
        assert rhs[2][-1] == 0.0


class TestResultsOwnTheirMemory:
    """assemble_rhs writes each result into arrays of its own call: a later
    call never changes an earlier call's rhs or fluxes, and no two of them
    share memory."""

    @pytest.mark.parametrize("name", ["sod", "stationary_shock_m1.5",
                                      "ns_shock_structure_n200_d4"])
    def test_second_call_leaves_first_results(self, name):
        from itertools import combinations

        from kepes.config import initial_state
        from kepes.presets import preset

        config = preset(name)
        args = (config.grid, config.gas, config.flux_kind, config.diss,
                config.recon, config.bcs)
        w = initial_state(config)
        rng = np.random.default_rng(5)
        states = [w * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0, w.shape))
                  for _ in range(2)]

        def results(state):
            rhs, faces = assemble_rhs(state, *args)
            return {"rhs": rhs, "central": faces.central, "diss": faces.diss,
                    "visc": faces.visc}

        first = results(states[0])
        kept = {k: v.copy() for k, v in first.items()}
        second = results(states[1])
        assert not np.array_equal(first["rhs"], second["rhs"])
        for key, value in first.items():
            np.testing.assert_array_equal(value.view(np.int64),
                                          kept[key].view(np.int64))
        arrays = [(f"{i}.{k}", v) for i, call in enumerate((first, second))
                  for k, v in call.items()]
        arrays += [(f"{i}.state", s) for i, s in enumerate(states)]
        for (name_a, a), (name_b, b) in combinations(arrays, 2):
            assert not np.shares_memory(a, b), (name_a, name_b)
