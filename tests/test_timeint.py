import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kepes.dissipation import DissipationSpec
from kepes.presets import preset
from kepes.reconstruction import ReconSpec
from kepes.spatial import (BoundaryCondition, BoundarySpec, Grid1D,
                           _StageWork, assemble_rhs)
from kepes.thermo import GasModel, PrimState, ViscosityLaw, prim_to_cons
from kepes.timeint import (StageError, TimeSpec, compute_dt, march,
                           ssp_rk3_step)

PERIODIC = BoundarySpec(BoundaryCondition("periodic"), BoundaryCondition("periodic"))


def rows(prim):
    """The (rho, u, p) rows that compute_dt reads."""
    return np.array((prim.rho, prim.u, prim.p))


class TestSspRk3Step:
    def test_zero_operator_identity(self):
        state = np.array([np.ones(4), np.zeros(4), np.full(4, 2.5)])
        out = ssp_rk3_step(state, 0.1, lambda w: np.array(
            [np.zeros(4), np.zeros(4), np.zeros(4)]))
        assert np.array_equal(out[0], state[0])
        assert np.array_equal(out[2], state[2])

    def test_exponential_decay_hand_value(self):
        # u' = -u, one step of dt = 0.1: stages 0.9, 0.9525, 0.9048333...
        state = np.array([[1.0], [1.0], [1.0]])
        out = ssp_rk3_step(state, 0.1, lambda w: -1.0 * w)
        assert np.isclose(out[0][0], 0.90483333333333333, rtol=1e-14)

    def test_convex_combination_coefficients(self):
        # record stage inputs for L(u) = 1 and check the Shu-Osher weights
        seen = []

        def op(w):
            seen.append(float(w[0][0]))
            return np.array([[1.0], [0.0], [0.0]])

        state = np.array([[0.0], [0.0], [0.0]])
        out = ssp_rk3_step(state, 1.0, op)
        # u1 = 1; u2 = 3/4*0 + 1/4*(1 + 1) = 1/2; u3 = 1/3*0 + 2/3*(1/2 + 1) = 1
        assert seen == [0.0, 1.0, 0.5]
        assert np.isclose(out[0][0], 1.0, rtol=1e-15)

    def test_third_order_in_time(self):
        # fixed periodic central-difference advection operator; the exact
        # semi-discrete solution follows from its Fourier multiplier
        n, c = 32, 1.0
        grid_dx = 1.0 / n
        x = np.arange(n) * grid_dx
        u0 = np.exp(np.sin(2 * np.pi * x))

        def L(w):
            d = -(np.roll(w[0], -1) - np.roll(w[0], 1)) / (2 * grid_dx) * c
            return np.array([d, np.zeros(n), np.zeros(n)])

        k = np.fft.fftfreq(n, d=1.0 / n)
        multiplier = -1j * c * np.sin(2 * np.pi * k / n) / grid_dx

        def exact(t):
            return np.real(np.fft.ifft(np.fft.fft(u0) * np.exp(multiplier * t)))

        t_final = 0.25
        errs = []
        dts = [t_final / m for m in (10, 20, 40, 80)]
        for dt in dts:
            w = np.array([u0.copy(), np.zeros(n), np.zeros(n)])
            t = 0.0
            while t < t_final - 1e-14:
                w = ssp_rk3_step(w, dt, L)
                t += dt
            errs.append(np.abs(w[0] - exact(t_final)).max())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 2.9

    def test_stage_error_reports_stage(self, gas):
        def op(w):
            raise ValueError("boom")

        state = np.array([np.ones(4), np.zeros(4), np.ones(4)])
        with pytest.raises(StageError, match="stage 1"):
            ssp_rk3_step(state, 0.1, op)


def rk3_expression(state, dt, op):
    """ssp_rk3_step's combinations in the expression form they had before
    the step wrote into held buffers: the bitwise reference."""
    w = state + dt * op(state)
    w = 0.25 * (w + dt * op(w)) + 0.75 * state
    return 2.0 / 3.0 * (w + dt * op(w)) + 1.0 / 3.0 * state


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestHeldRk3Step:
    def test_bitwise_equal_to_expression_form(self):
        # a nonlinear operator on random states over a wide range of
        # magnitudes, with and without held buffers and a popped L(u)
        rng = np.random.default_rng(11)

        def op(w):
            return np.sin(3.7 * w) * w[::-1]

        for _ in range(20):
            n = int(rng.integers(1, 300))
            state = 10.0 ** rng.uniform(-8, 8, (3, n)) * rng.choice(
                (-1.0, 1.0), (3, n))
            dt = float(10.0 ** rng.uniform(-6, 0))
            want = rk3_expression(state, dt, op)
            bufs = np.empty((3, n)), np.empty((3, n))
            for got in (ssp_rk3_step(state, dt, op),
                        ssp_rk3_step(state, dt, op, [op(state)], bufs)):
                assert np.array_equal(bits(got), bits(want))
                assert not any(np.shares_memory(got, b) for b in bufs)

    def test_held_step_allocates_one_state(self):
        # a step of held stages with held buffers allocates the new state
        # (3, n) and less than one face row more; compute_dt with two held
        # rows less than one row
        config = preset("sod")
        n = 10_000
        config = replace(config, grid=replace(config.grid, n_cells=n))
        state = prim_to_cons(PrimState(
            np.where(np.arange(n) < n // 2, 1.0, 0.125), np.zeros(n),
            np.where(np.arange(n) < n // 2, 1.0, 0.1)), config.gas)
        work = _StageWork(n, config.recon, config.diss, False)

        def op(w):
            return assemble_rhs(w, config.grid, config.gas,
                                config.flux_kind, config.diss, config.recon,
                                config.bcs, work)[0]

        bufs = np.empty((3, n)), np.empty((3, n))
        # a warm step; then the (rho, u, p) rows the stage formed of state
        ssp_rk3_step(state, 1e-4, op, [op(state)], bufs)
        first = [op(state)]
        cells = work.inner
        compute_dt(cells, config.grid, config.gas, 0.4, bufs[0][:2])
        tracemalloc.start()
        try:
            ssp_rk3_step(state, 1e-4, op, first, bufs)
            step = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            compute_dt(cells, config.grid, config.gas, 0.4, bufs[0][:2])
            dt = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step < 24 * n + 8 * (n + 1), step
        assert dt < 8 * n, dt


class TestComputeDt:
    def test_uniform_state_value(self, gas):
        grid = Grid1D(100, 0.0, 1.0)
        prim = PrimState(np.ones(100), np.zeros(100), np.full(100, 1.4))
        dt = compute_dt(rows(prim), grid, gas, 0.4)
        assert np.isclose(dt, 0.4 * 0.01 / 1.4, rtol=1e-14)

    def test_linear_in_cfl(self, gas):
        grid = Grid1D(50)
        prim = PrimState(np.ones(50), np.full(50, 0.5), np.ones(50))
        assert np.isclose(compute_dt(rows(prim), grid, gas, 0.2),
                          0.5 * compute_dt(rows(prim), grid, gas, 0.4),
                          rtol=1e-14)

    def test_inviscid_has_no_parabolic_bound(self):
        gas = GasModel()
        grid = Grid1D(1000)
        prim = PrimState(np.ones(1000), np.zeros(1000), np.ones(1000))
        dt = compute_dt(rows(prim), grid, gas, 0.4)
        assert np.isclose(dt, 0.4 * 0.001 / np.sqrt(1.4), rtol=1e-14)

    def test_viscous_bound_active_on_fine_grid(self):
        gas = GasModel(viscosity_law=ViscosityLaw("constant", 0.05))
        grid = Grid1D(1000)
        prim = PrimState(np.ones(1000), np.zeros(1000), np.ones(1000))
        dt = compute_dt(rows(prim), grid, gas, 0.4)
        dt_visc = 0.4 * 0.001 ** 2 * 1.0 / (2 * (4 / 3) * 0.05)
        assert np.isclose(dt, dt_visc, rtol=1e-14)

    @pytest.mark.parametrize("law", [ViscosityLaw(), ViscosityLaw(
        "constant", 0.05), ViscosityLaw("power", 0.05, 1.2, 0.8)])
    def test_held_rows_give_the_same_dt(self, law):
        gas = GasModel(viscosity_law=law)
        rng = np.random.default_rng(2)
        prim = PrimState(10.0 ** rng.uniform(-2, 2, 500),
                         rng.uniform(-3, 3, 500),
                         10.0 ** rng.uniform(-2, 2, 500))
        held = np.empty((2, 500))
        for grid in (Grid1D(500), Grid1D(500, 0.0, 1e-3)):
            dt = compute_dt(rows(prim), grid, gas, 0.4)
            assert compute_dt(rows(prim), grid, gas, 0.4, held) == dt


class TestConservationOverRun:
    def test_totals_preserved_periodic(self, gas):
        grid = Grid1D(48)
        x = grid.cell_centers()
        prim = PrimState(1.0 + 0.2 * np.sin(2 * np.pi * x),
                         0.3 * np.cos(2 * np.pi * x),
                         1.0 + 0.1 * np.sin(4 * np.pi * x))
        cells = prim_to_cons(prim, gas)
        totals0 = [float(np.sum(c)) for c in (cells[0], cells[1], cells[2])]
        config = replace(preset("sod"), grid=grid, gas=gas, bcs=PERIODIC,
                         flux_kind="kepec",
                         diss=DissipationSpec(kind="matrix", matrix_law="hyb"),
                         recon=ReconSpec(2, "minmod"),
                         time=TimeSpec(cfl=0.4, t_final=0.25))

        for state in march(config, cells):
            pass
        assert state.reason == "t_final"
        cells = state.w
        totals1 = [float(np.sum(c)) for c in (cells[0], cells[1], cells[2])]
        for a, b in zip(totals0, totals1):
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_time_spec_invariants():
    with pytest.raises(ValueError):
        TimeSpec(cfl=0.0)
    with pytest.raises(ValueError):
        TimeSpec(cfl=1.5)
    with pytest.raises(ValueError):
        TimeSpec(t_final=-1.0)
