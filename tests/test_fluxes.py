import numpy as np
import pytest

from kepes.fluxes import (
    CENTRAL_FLUXES,
    exact_flux,
    flux_central_mean,
    flux_kep,
    flux_kepec,
    flux_kepec_ac,
    flux_roe_ec,
    tadmor_residual,
)
from kepes.thermo import FaceMeans, GasModel, PrimState, log_mean

from conftest import random_states

ALL_FLUXES = dict(CENTRAL_FLUXES)

KEP_FORM_FLUXES = ("kep", "kepec_ac", "kepec")


def flux_negative_variant(left: PrimState, right: PrimState, gas: GasModel,
                          variant: str) -> np.ndarray:
    """Rejected entropy-conservative candidates, kept here as test oracles.

    "rho_u_p" derives the fluxes from jumps in (rho, u, p): the identity
    holds but the mass flux depends on gamma.  "p_u_beta" derives them
    from jumps in (p, u, beta): the energy flux is inconsistent.  Neither
    is selectable for time integration.
    """
    def _avg(a, b):
        return 0.5 * (a + b)

    g = gas.gamma
    rho_bar = _avg(left.rho, right.rho)
    u_bar = _avg(left.u, right.u)
    beta_bar = _avg(left.beta, right.beta)
    u2_bar = _avg(left.u * left.u, right.u * right.u)
    p_bar = _avg(left.p, right.p)
    p_ln = log_mean(left.p, right.p)
    p_t = rho_bar / (2.0 * beta_bar)

    if variant == "rho_u_p":
        rho_ln = log_mean(left.rho, right.rho)
        denom = g / (g - 1.0) - p_bar * rho_ln / ((g - 1.0) * rho_bar * p_ln)
        f_rho = rho_ln * u_bar / denom
        f_m = p_t + u_bar * f_rho
        f_e = (left.p * right.p / ((g - 1.0) * rho_bar * p_ln)
               - 0.5 * u2_bar) * f_rho + u_bar * f_m
    elif variant == "p_u_beta":
        beta_ln = log_mean(left.beta, right.beta)
        f_rho = 2.0 * p_ln * beta_bar * u_bar
        f_m = p_t + u_bar * f_rho
        f_e = (0.5 * g / ((g - 1.0) * beta_ln) - 0.5 * u2_bar) * f_rho + u_bar * f_m
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return np.array((f_rho, f_m, f_e))



def test_exact_flux_reference(gas):
    f = exact_flux(PrimState(1.0, 1.0, 1.0), gas)
    assert np.allclose([f[0], f[1], f[2]], [1.0, 2.0, 4.0], rtol=1e-15)


@pytest.mark.parametrize("name", sorted(ALL_FLUXES))
def test_consistency_with_exact_flux(name, gas):
    rng = np.random.default_rng(3)
    q = PrimState(10 ** rng.uniform(-1, 1, 200), rng.uniform(-2, 2, 200),
                  10 ** rng.uniform(-1, 1, 200))
    f = ALL_FLUXES[name](FaceMeans(q, q), gas)
    ex = exact_flux(q, gas)
    for a, b in ((f[0], ex[0]), (f[1], ex[1]), (f[2], ex[2])):
        assert np.allclose(a, b, rtol=1e-13)


class TestKepFlux:
    def test_equal_states(self, gas):
        q = PrimState(1.0, 1.0, 1.0)
        f = flux_kep(FaceMeans(q, q), gas)
        assert np.allclose([f[0], f[1], f[2]], [1.0, 2.0, 4.0])

    def test_stagnant_gas(self, gas):
        q = PrimState(1.0, 0.0, 1.0)
        f = flux_kep(FaceMeans(q, q), gas)
        assert np.allclose([f[0], f[1], f[2]], [0.0, 1.0, 0.0])

    def test_mass_flux_is_mean_product(self, gas):
        f = flux_kep(FaceMeans(PrimState(1.0, 1.0, 1.0),
                               PrimState(3.0, 1.0, 1.0)), gas)
        assert f[0] == 2.0


class TestRoeEcFlux:
    def test_entropy_conservation_random(self, gas):
        rng = np.random.default_rng(11)
        left, right = random_states(rng, 5000)
        f = flux_roe_ec(FaceMeans(left, right), gas)
        res = tadmor_residual(left, right, f, gas)
        assert np.abs(res).max() < 1e-11

    def test_zero_velocity_means_zero_mass_flux(self, gas):
        f = flux_roe_ec(FaceMeans(PrimState(1.0, 0.0, 1.0),
                                  PrimState(2.0, 0.0, 2.0)), gas)
        assert abs(f[0]) < 1e-15


class TestKepecAcFlux:
    def test_harmonic_temperature_pressure(self, gas):
        # T = 1 and T = 3 with R = 1: p_tilde = R rho_bar 2 T1 T2/(T1 + T2)
        left = PrimState(1.0, 0.0, 1.0)
        right = PrimState(1.0, 0.0, 3.0)
        f = flux_kepec_ac(FaceMeans(left, right), gas)
        assert np.isclose(f[1], 1.5, rtol=1e-14)  # u = 0: f_m = p_tilde

    def test_third_order_entropy_residual(self, gas):
        base = np.array([1.0, 0.4, 1.2])
        direction = np.array([0.6, 0.3, -0.5])
        hs = np.logspace(-1, -3, 9)
        res = []
        for h in hs:
            left = PrimState(*(base * (1 - 0.5 * h * direction)))
            right = PrimState(*(base * (1 + 0.5 * h * direction)))
            f = flux_kepec_ac(FaceMeans(left, right), gas)
            res.append(abs(float(tadmor_residual(left, right, f, gas))))
        slope = np.polyfit(np.log(hs), np.log(res), 1)[0]
        assert abs(slope - 3.0) < 0.2


class TestKepecFlux:
    def test_zero_velocity_structure(self, gas):
        left = PrimState(1.0, 0.0, 1.0)
        right = PrimState(10.0, 0.0, 1.0)
        f = flux_kepec(FaceMeans(left, right), gas)
        assert f[0] == 0.0
        # beta_bar = (0.5 + 5)/2, p_tilde = rho_bar/(2 beta_bar) = 1
        assert np.isclose(f[1], 1.0, rtol=1e-14)
        res = tadmor_residual(left, right, f, gas)
        assert abs(res) < 1e-14

    def test_entropy_conservation_random(self, gas):
        rng = np.random.default_rng(12)
        left, right = random_states(rng, 10000)
        f = flux_kepec(FaceMeans(left, right), gas)
        res = tadmor_residual(left, right, f, gas)
        assert np.abs(res).max() < 1e-11


@pytest.mark.parametrize("name", KEP_FORM_FLUXES)
def test_kep_momentum_form(name, gas):
    # f_m - u_bar f_rho depends only on the pressure average of the flux
    rng = np.random.default_rng(5)
    left, right = random_states(rng, 2000)
    f = ALL_FLUXES[name](FaceMeans(left, right), gas)
    u_bar = 0.5 * (left.u + right.u)
    p_slot = f[1] - u_bar * f[0]
    if name == "kep":
        expected = 0.5 * (left.p + right.p)
    else:
        expected = 0.5 * (left.rho + right.rho) / (left.beta + right.beta)
    assert np.allclose(p_slot, expected, rtol=1e-12)


@pytest.mark.parametrize("name", sorted(ALL_FLUXES))
def test_mirror_symmetry(name, gas):
    # reversing the axis negates mass/energy fluxes, keeps momentum flux
    rng = np.random.default_rng(6)
    left, right = random_states(rng, 1000)
    f = ALL_FLUXES[name](FaceMeans(left, right), gas)
    ml = PrimState(right.rho, -right.u, right.p)
    mr = PrimState(left.rho, -left.u, left.p)
    g = ALL_FLUXES[name](FaceMeans(ml, mr), gas)
    assert np.allclose(g[0], -f[0], rtol=1e-12, atol=1e-13)
    assert np.allclose(g[1], f[1], rtol=1e-12, atol=1e-13)
    assert np.allclose(g[2], -f[2], rtol=1e-12, atol=1e-13)


class TestNegativeVariants:
    """The two rejected derivations: kept only to document their defects."""

    def test_rho_u_p_mass_flux_depends_on_gamma(self):
        left = PrimState(1.0, 0.5, 1.0)
        right = PrimState(2.0, 0.5, 1.5)
        f1 = flux_negative_variant(left, right, GasModel(gamma=1.4), "rho_u_p")
        f2 = flux_negative_variant(left, right, GasModel(gamma=5 / 3), "rho_u_p")
        assert abs(f1[0] - f2[0]) > 1e-3

    def test_rho_u_p_satisfies_entropy_condition(self, gas):
        rng = np.random.default_rng(8)
        left, right = random_states(rng, 2000)
        f = flux_negative_variant(left, right, gas, "rho_u_p")
        assert np.abs(tadmor_residual(left, right, f, gas)).max() < 1e-11

    def test_p_u_beta_energy_flux_inconsistent(self, gas):
        q = PrimState(1.0, 1.0, 1.0)
        f = flux_negative_variant(q, q, gas, "p_u_beta")
        assert np.isclose(f[0], 1.0, rtol=1e-14)
        assert np.isclose(f[1], 2.0, rtol=1e-14)
        # the energy flux misses the exact value (E + p) u = 4 by u_bar p_bar
        assert np.isclose(f[2], 5.0, rtol=1e-14)

    def test_p_u_beta_entropy_residual_nonzero(self, gas):
        # the published display drops an avg(u^2) d(beta) term from the v1
        # jump and a u_bar p_bar term from the energy flux, so it fails the
        # two-point entropy identity as well; adding u_bar p_bar back would
        # restore the identity but also restore consistency
        left = PrimState(1.0, 0.5, 1.0)
        right = PrimState(2.0, -0.3, 1.5)
        f = flux_negative_variant(left, right, gas, "p_u_beta")
        assert abs(float(tadmor_residual(left, right, f, gas))) > 1e-3

    def test_unknown_variant_rejected(self, gas):
        with pytest.raises(ValueError):
            flux_negative_variant(PrimState(1, 0, 1), PrimState(1, 0, 1),
                                  gas, "bogus")

    def test_not_selectable_for_time_integration(self):
        assert "rho_u_p" not in CENTRAL_FLUXES
        assert "p_u_beta" not in CENTRAL_FLUXES


def test_central_mean_is_flux_average(gas):
    left = PrimState(1.0, 0.3, 1.0)
    right = PrimState(0.5, -0.2, 0.8)
    f = flux_central_mean(FaceMeans(left, right), gas)
    fl, fr = exact_flux(left, gas), exact_flux(right, gas)
    assert np.isclose(f[2], 0.5 * (fl[2] + fr[2]), rtol=1e-15)
