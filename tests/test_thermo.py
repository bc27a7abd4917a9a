import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kepes.thermo import (
    GasModel,
    PrimState,
    ViscosityLaw,
    cons_to_prim,
    entropy_pair,
    entropy_vars,
    log_mean,
    prim_from_entropy_vars,
    prim_to_cons,
    physical_entropy,
    sound_speed,
)

positive = st.floats(min_value=1e-6, max_value=1e6)
velocity = st.floats(min_value=-100.0, max_value=100.0)


def test_prim_to_cons_stagnant(gas):
    w = prim_to_cons(PrimState(1.0, 0.0, 1.0), gas)
    assert (w[0], w[1]) == (1.0, 0.0)
    assert np.isclose(w[2], 2.5, rtol=1e-15)


def test_prim_to_cons_moving(gas):
    w = prim_to_cons(PrimState(1.0, 1.0, 1.0), gas)
    assert (w[0], w[1]) == (1.0, 1.0)
    assert np.isclose(w[2], 3.0, rtol=1e-15)


def test_prim_to_cons_sod_right_state(gas):
    w = prim_to_cons(PrimState(0.125, 0.0, 0.1), gas)
    assert np.isclose(w[2], 0.25, rtol=1e-15)
    assert (w[0], w[1]) == (0.125, 0.0)


@given(rho=positive, mach=st.floats(min_value=-5.0, max_value=5.0),
       p=positive)
@settings(max_examples=300)
def test_round_trip_prim_cons(rho, mach, p):
    # velocity scaled by the sound speed: recovering p from E is only
    # conditioned like the kinetic-to-internal energy ratio ~ Mach^2
    gas = GasModel()
    u = mach * float(np.sqrt(gas.gamma * p / rho))
    q = PrimState(rho, u, p)
    back = cons_to_prim(prim_to_cons(q, gas), gas)
    assert np.isclose(back.rho, rho, rtol=1e-13)
    assert np.isclose(back.u, u, rtol=1e-13, atol=1e-13)
    assert np.isclose(back.p, p, rtol=1e-13)


def test_entropy_vars_reference_state(gas):
    v = entropy_vars(PrimState(1.0, 0.0, 1.0), gas)
    assert np.allclose([v[0], v[1], v[2]], [3.5, 0.0, -1.0], rtol=1e-15)


def test_entropy_vars_moving_state(gas):
    v = entropy_vars(PrimState(1.0, 1.0, 1.0), gas)
    assert np.allclose([v[0], v[1], v[2]], [3.0, 1.0, -1.0], rtol=1e-15)


@given(rho=positive, p=positive)
@settings(max_examples=100)
def test_entropy_vars_v2_zero_at_rest(rho, p):
    v = entropy_vars(PrimState(rho, 0.0, p), GasModel())
    assert v[1] == 0.0


@given(rho=st.floats(min_value=1e-3, max_value=1e3),
       mach=st.floats(min_value=-5.0, max_value=5.0),
       p=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_entropy_vars_invertible(rho, mach, p):
    gas = GasModel()
    u = mach * float(np.sqrt(gas.gamma * p / rho))
    q = PrimState(rho, u, p)
    back = prim_from_entropy_vars(entropy_vars(q, gas), gas)
    assert np.isclose(back.rho, rho, rtol=1e-12)
    assert np.isclose(back.u, u, rtol=1e-12, atol=1e-12)
    assert np.isclose(back.p, p, rtol=1e-12)


def test_entropy_pair_reference(gas):
    U, F, psi = entropy_pair(PrimState(1.0, 0.0, 1.0), gas)
    assert (U, F, psi) == (0.0, 0.0, 0.0)


def test_entropy_pair_psi_is_mass_flux(gas):
    _, _, psi = entropy_pair(PrimState(1.0, 2.0, 1.0), gas)
    assert psi == 2.0


def test_entropy_pair_hand_value(gas):
    U, F, psi = entropy_pair(PrimState(2.0, 1.0, 1.0), gas)
    expected = -2.0 * (-1.4 * np.log(2.0)) / 0.4
    assert np.isclose(U, expected, rtol=1e-12)
    assert np.isclose(U, 4.85203, atol=1e-5)
    assert np.isclose(F, U * 1.0, rtol=1e-15)


def test_physical_entropy_is_log_p_rho_gamma(gas):
    q = PrimState(2.0, 0.3, 5.0)
    assert np.isclose(physical_entropy(q, gas),
                      np.log(5.0) - 1.4 * np.log(2.0), rtol=1e-15)


class TestLogMean:
    def test_equal_arguments(self):
        assert log_mean(3.0, 3.0) == 3.0

    def test_direct_branch(self):
        assert np.isclose(log_mean(1.0, 2.0), 1.0 / np.log(2.0), rtol=1e-14)

    def test_tiny_difference_stays_bounded(self):
        a, b = 1.0, 1.0 + 1e-12
        m = float(log_mean(a, b))
        assert a <= m <= b
        assert np.isfinite(m)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_mean(-1.0, 2.0)
        with pytest.raises(ValueError):
            log_mean(1.0, 0.0)

    def test_bounds_and_symmetry_bulk(self):
        # ratios up to 1e12 either way
        rng = np.random.default_rng(7)
        a = 10.0 ** rng.uniform(-6, 6, 1_000_000)
        b = a * 10.0 ** rng.uniform(-12, 12, 1_000_000)
        m = log_mean(a, b)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(m >= lo) and np.all(m <= hi)
        assert np.allclose(m, log_mean(b, a), rtol=1e-14)

    def test_branch_continuity_at_switch(self):
        # zeta^2 at the switching threshold: both formulas agree closely
        from kepes.thermo import LOG_MEAN_SWITCH
        zeta = np.sqrt(LOG_MEAN_SWITCH)
        a = np.ones(101)
        b = a * (1 + zeta * np.linspace(0.98, 1.02, 101)) \
            / (1 - zeta * np.linspace(0.98, 1.02, 101))
        direct = (b - a) / (np.log(b) - np.log(a))
        z = (b - a) / (b + a)
        z2 = z * z
        series = 0.5 * (a + b) / (1 + z2 * (1 / 3 + z2 * (1 / 5 + z2 / 7)))
        assert np.allclose(direct, series, rtol=1e-12)

    @given(a=positive, b=positive)
    @settings(max_examples=300)
    def test_between_min_max(self, a, b):
        m = float(log_mean(a, b))
        assert min(a, b) <= m <= max(a, b)


class TestGasModel:
    def test_sound_speed_value(self, gas):
        assert np.isclose(sound_speed(PrimState(1.0, 0.0, 1.4), gas), 1.4,
                          rtol=1e-15)

    def test_constant_viscosity(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.01))
        assert float(gas.viscosity(3.7)) == 0.01
        assert float(gas.viscosity(0.2)) == 0.01

    def test_power_law_at_reference_temperature(self):
        gas = GasModel(viscosity_law=ViscosityLaw("power", 5e-4, 0.25, 0.8))
        assert np.isclose(float(gas.viscosity(0.25)), 5e-4, rtol=1e-15)
        assert np.isclose(float(gas.viscosity(0.5)), 5e-4 * 2 ** 0.8,
                          rtol=1e-14)

    def test_no_viscosity(self):
        gas = GasModel()
        assert float(gas.viscosity(1.0)) == 0.0
        assert not gas.is_viscous

    def test_conductivity_from_prandtl(self):
        gas = GasModel(gamma=5.0 / 3.0, prandtl=2.0 / 3.0,
                       viscosity_law=ViscosityLaw("constant", 1e-3))
        # gamma R mu / ((gamma - 1) Pr)
        expected = (5.0 / 3.0) * 1e-3 / ((2.0 / 3.0) * (2.0 / 3.0))
        assert np.isclose(float(gas.conductivity(1.0)), expected, rtol=1e-14)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GasModel(gamma=1.0)
        with pytest.raises(ValueError):
            GasModel(gas_constant=0.0)
        with pytest.raises(ValueError):
            GasModel(prandtl=-1.0)
        with pytest.raises(ValueError):
            ViscosityLaw("sutherland")
