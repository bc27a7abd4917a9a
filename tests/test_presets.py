import numpy as np
import pytest

from kepes.config import ConfigError
from kepes.presets import list_presets, preset, stationary_shock_states
from kepes.thermo import GasModel


class TestStationaryShockStates:
    def test_mach_1_5_reference_values(self):
        left, right = stationary_shock_states(1.5, GasModel(gamma=1.4))
        assert np.isclose(left.p, 0.3174603, atol=1e-6)
        assert np.isclose(right.rho, 1.86207, atol=1e-5)
        assert np.isclose(right.u, 0.537037, atol=1e-6)
        assert np.isclose(right.p, 0.780423, atol=1e-6)

    def test_unit_mass_flux_both_sides(self):
        for mach in (1.5, 4.0, 20.0):
            left, right = stationary_shock_states(mach, GasModel())
            assert np.isclose(left.rho * left.u, 1.0, rtol=1e-14)
            assert np.isclose(right.rho * right.u, 1.0, rtol=1e-14)

    def test_rankine_hugoniot_fluxes_match(self):
        from kepes.fluxes import exact_flux

        gas = GasModel()
        for mach in (1.5, 4.0, 20.0):
            left, right = stationary_shock_states(mach, gas)
            fl = exact_flux(left, gas)
            fr = exact_flux(right, gas)
            assert np.isclose(fl[0], fr[0], rtol=1e-13)
            assert np.isclose(fl[1], fr[1], rtol=1e-13)
            assert np.isclose(fl[2], fr[2], rtol=1e-13)

    def test_upstream_mach_number(self):
        gas = GasModel()
        left, _ = stationary_shock_states(4.0, gas)
        a = np.sqrt(gas.gamma * left.p / left.rho)
        assert np.isclose(left.u / a, 4.0, rtol=1e-14)

    def test_subsonic_rejected(self):
        with pytest.raises(ValueError):
            stationary_shock_states(0.9, GasModel())


class TestPresetContents:
    def test_sod(self):
        c = preset("sod")
        assert c.grid.n_cells == 100
        assert c.time.cfl == 0.4 and c.time.t_final == 0.2
        assert (c.ic.left.rho, c.ic.left.u, c.ic.left.p) == (1.0, 0.0, 1.0)
        assert (c.ic.right.rho, c.ic.right.u, c.ic.right.p) == (0.125, 0.0, 0.1)
        assert c.recon.order == 2 and c.recon.limiter == "minmod"

    def test_modified_sod(self):
        c = preset("modified_sod")
        assert c.ic.left.u == 0.75
        assert c.grid.n_cells == 100

    def test_stationary_contact(self):
        c = preset("stationary_contact")
        assert c.grid.n_cells == 26
        assert c.ic.left.u == 0.0 and c.ic.right.u == 0.0
        assert c.ic.left.rho == 10.0 and c.ic.right.rho == 1.0
        assert c.time.max_steps == 1000

    def test_stationary_shock_presets(self):
        c = preset("stationary_shock_m1.5")
        assert c.grid.n_cells == 24
        assert c.time.cfl == 0.1
        assert c.bcs.right.kind == "shock_outflow"
        assert c.bcs.right.mass_flux == 1.0
        assert c.bcs.left.kind == "fixed_state"
        assert np.isclose(c.ic.right.rho, 1.86207, atol=1e-5)

    def test_viscous_sod_reynolds_number(self):
        c = preset("sod_viscous")
        # Re = rho_l a_l L / mu = 2000
        a_l = np.sqrt(1.4 * c.ic.left.p / c.ic.left.rho)
        re = c.ic.left.rho * a_l * (c.grid.x_max - c.grid.x_min) \
            / c.gas.viscosity_law.mu_ref
        assert np.isclose(re, 2000.0, rtol=1e-12)
        assert c.grid.n_cells == 500
        assert c.time.cfl == 0.1

    def test_ns_shock_structure(self):
        c = preset("ns_shock_structure_n200")
        assert np.isclose(c.gas.gamma, 5.0 / 3.0)
        assert np.isclose(c.gas.prandtl, 2.0 / 3.0)
        assert c.gas.viscosity_law.kind == "power"
        assert c.gas.viscosity_law.mu_ref == 5e-4
        assert c.gas.viscosity_law.exponent == 0.8
        assert c.diss.kappa2 == 0.5
        assert np.isclose(c.diss.kappa4, 1.0 / 25.0)
        # upstream temperature is the reference of the power law
        t1 = c.ic.left.p / c.ic.left.rho
        assert np.isclose(c.gas.viscosity_law.t_ref, t1, rtol=1e-14)

    def test_ns_shock_structure_d4_variant(self):
        c = preset("ns_shock_structure_n200_d4")
        assert c.diss.kappa2 == 0.0
        assert np.isclose(c.diss.kappa4, 1.0 / 200.0)

    def test_unknown_name_lists_options(self):
        with pytest.raises(ConfigError, match="available"):
            preset("kelvin_helmholtz")

    def test_spaced_spelling_accepted(self):
        c = preset("stationary_shock M=1.5")
        assert c.name == "stationary_shock_m1.5"

    def test_listing_sorted_and_complete(self):
        names = list_presets()
        assert names == sorted(names)
        for expected in ("sod", "modified_sod", "stationary_contact",
                         "stationary_shock_m20", "ns_shock_structure_n50"):
            assert expected in names
