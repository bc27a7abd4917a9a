"""Strong-stability-preserving Runge-Kutta time advancement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Grid1D
from .thermo import GasModel, PrimState, _velocity_pressure, sound_speed

__all__ = ["TimeSpec", "ssp_rk3_step", "compute_dt", "StageError"]


class StageError(RuntimeError):
    """An RK stage produced an unusable state."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class TimeSpec:
    """Step control: Courant number, end time and a step-count safety cap.

    steady_tol, when set, stops the run once max |rhs| falls below it;
    it must be > 0, since no residual falls below zero.
    """

    cfl: float = 0.4
    t_final: float = 1.0
    max_steps: int = 1_000_000
    steady_tol: float | None = None

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must be in (0, 1]")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.steady_tol is not None and not self.steady_tol > 0.0:
            raise ValueError("steady_tol must be > 0")


def ssp_rk3_step(state, dt: float, rhs_operator):
    """Three-stage third-order SSP Runge-Kutta step (Shu-Osher form).

    u1 = u + dt L(u); u2 = 3/4 u + 1/4 (u1 + dt L(u1));
    u3 = 1/3 u + 2/3 (u2 + dt L(u2)).  Each stage is a convex combination
    of forward-Euler steps.  state is the stacked (3, n) array of the
    rows rho, m, E, and rhs_operator maps it to an array of its shape.
    """
    def stage(k, u):
        try:
            return rhs_operator(u)
        except Exception as exc:
            raise StageError(k, exc) from exc

    # w holds u1, then u2, so u1 is freed before stage 3 runs; the state
    # term of a combination is added last (a + b == b + a in floating
    # point), so no copy of it is held through a stage
    w = state + dt * stage(1, state)
    w = 0.25 * (w + dt * stage(2, w)) + 0.75 * state
    return (2.0 / 3.0) * (w + dt * stage(3, w)) + (1.0 / 3.0) * state


def compute_dt(cells, grid: Grid1D, gas: GasModel, cfl: float) -> float:
    """CFL step dt = cfl dx / max(|u| + a), with an additional parabolic
    bound cfl dx^2 rho_min / (2 (4/3) mu_max) when viscosity is active.
    cells is the stacked (3, n) array of the rows rho, m, E."""
    prim = PrimState(cells[0], *_velocity_pressure(*cells, gas))
    speed = (np.abs(prim.u) + sound_speed(prim, gas)).max()
    dt = cfl * grid.dx / speed
    if gas.is_viscous:
        mu_max = np.max(gas.viscosity(prim.temperature(gas)))
        if mu_max > 0.0:
            dt_visc = (cfl * grid.dx ** 2 * np.min(prim.rho)
                       / (2.0 * (4.0 / 3.0) * mu_max))
            dt = min(dt, dt_visc)
    return float(dt)
