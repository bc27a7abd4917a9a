"""Strong-stability-preserving Runge-Kutta time advancement and the march.

march is the one time loop: driver.run and the tests consume it.  It
evaluates every marched state once: one assemble_rhs call gives L(w^n)
and its FaceData, and that evaluation feeds the CFL step (through the
primitive rows the stage formed), the steady check, the caller's budget
sample and snapshot, and stage 1 of the next SSP-RK3 step.  A run makes
exactly 3 steps + 1 assemble_rhs calls, and they refill the one stage
workspace of the march.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .record import const
from .spatial import FaceData, Grid1D, _StageWork, assemble_rhs
from .thermo import GasModel, sound_speed, temperature

__all__ = ["TimeSpec", "MarchState", "march", "ssp_rk3_step", "compute_dt",
           "StageError"]

# the Shu-Osher weights of ssp_rk3_step
_THIRD, _QUARTER = const(1.0 / 3.0), const(0.25)
_TWO_THIRDS, _THREE_QUARTERS = const(2.0 / 3.0), const(0.75)

# the steady check reads max|rhs| of every this-many-th step
_STEADY_CHECK_EVERY = 25


class StageError(RuntimeError):
    """An RK stage produced an unusable state."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class TimeSpec:
    """Step control: Courant number, end time and a step-count safety cap.

    steady_tol, when set, stops the run once max |rhs| falls below it;
    it must be > 0, since no residual falls below zero, and finite, since
    every residual falls below inf.  t_final may be inf, for a march that
    max_steps or the caller ends.
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
        if self.steady_tol is not None and not self.steady_tol < np.inf:
            raise ValueError("steady_tol must be finite")


def _stage(k: int, rhs_operator, u):
    try:
        return rhs_operator(u)
    except Exception as exc:
        raise StageError(k, exc) from exc


def ssp_rk3_step(state, dt: float, rhs_operator, first: list | None = None,
                 bufs=None):
    """Three-stage third-order SSP Runge-Kutta step (Shu-Osher form).

    u1 = u + dt L(u); u2 = 3/4 u + 1/4 (u1 + dt L(u1));
    u3 = 1/3 u + 2/3 (u2 + dt L(u2)).  Each stage is a convex combination
    of forward-Euler steps.  state is the stacked (3, n) array of the
    rows rho, m, E, and rhs_operator maps it to an array of its shape.
    first, when given, is a one-element list holding L(state): stage 1
    pops it in place of evaluating it, so no reference to it outlives
    stage 1 (an argument would live through the whole call).  bufs, when
    given, is two arrays of state's shape that the step writes dt L, u1
    and u2 into (the march holds them); u3 is a new array, the only
    array of state's size that a step with bufs allocates.
    """
    # a holds u1, then u2, and b dt L and the sums: each weighted sum is
    # formed in the order of the expression above.  dt is a 0-d array, as
    # are the weights: same bits, cheaper ufunc calls.
    if bufs is None:
        bufs = np.empty(np.shape(state)), np.empty(np.shape(state))
    a, b = bufs
    dt = np.array(dt, dtype=float)
    np.multiply(dt, first.pop() if first else _stage(1, rhs_operator, state),
                a)
    np.add(state, a, a)
    np.multiply(dt, _stage(2, rhs_operator, a), b)
    np.add(a, b, b)
    np.multiply(_QUARTER, b, b)
    np.multiply(_THREE_QUARTERS, state, a)
    np.add(b, a, a)
    np.multiply(dt, _stage(3, rhs_operator, a), b)
    np.add(a, b, b)
    np.multiply(_TWO_THIRDS, b, b)
    u3 = np.multiply(_THIRD, state)
    return np.add(b, u3, u3)


def compute_dt(prim, grid: Grid1D, gas: GasModel, cfl: float,
               rows=None) -> float:
    """CFL step dt = cfl dx / max(|u| + a), with an additional parabolic
    bound cfl dx^2 rho_min / (2 (4/3) mu_max) when viscosity is active.
    prim is the (rho, u, p) rows of the cells: a (3, n) array, such as the
    rows the stage formed (FaceData.cells), or a triple of rows.  rows,
    when given, is two rows of n that take the temporaries."""
    rho, u = prim[0], prim[1]
    a, t = (None, None) if rows is None else rows
    speed = np.add(np.abs(u, t), sound_speed(prim, gas, a), t).max()
    dt = cfl * grid.dx / speed
    if gas.is_viscous:
        mu_max = np.max(gas.viscosity(temperature(prim, gas, a), a))
        if mu_max > 0.0:
            dt_visc = (cfl * grid.dx ** 2 * np.min(rho)
                       / (2.0 * (4.0 / 3.0) * mu_max))
            dt = min(dt, dt_visc)
    return float(dt)


@dataclass(eq=False)
class MarchState:
    """The marched state, which march updates in place and yields after
    the initial evaluation and after every step.

    w is the conserved (3, n) state at time t after step steps; rhs = L(w)
    and faces, its FaceData, come from one assemble_rhs call.  They are
    valid until the caller resumes the march: march sets both to None
    before it steps on, and the next stage overwrites rhs, the four fluxes
    of faces (central, diss, visc and net) and its cells, which are
    arrays of the march's workspace.  No stage follows the last state, so
    its rhs and faces stay valid.  mark is True on the initial state and
    on the first state at or past each snapshot_interval mark; residual
    is max|rhs| where the steady check read it.  reason is None until the
    last state, which names why the march stopped: "t_final", "steady",
    "max_steps" or "invalid_state".
    On "invalid_state", error is the StageError (the evaluation of a new
    state is stage 1 of the step from it), and w, t and step are those of
    the state that failed or that the failed step started from.
    """

    step: int
    t: float
    w: np.ndarray
    rhs: np.ndarray | None = None
    faces: FaceData | None = None
    mark: bool = True
    residual: float | None = None
    reason: str | None = None
    error: StageError | None = None


def march(config, w0: np.ndarray):
    """Advance the conserved (3, n) state w0 under config (a
    ProblemConfig), yielding the one MarchState after every evaluation.

    The march ends at t_final (within 1e-12 max(1, t_final); the last
    step is shortened to land on it), at max_steps, once the steady check
    (every _STEADY_CHECK_EVERY steps, when steady_tol is set) reads
    max|rhs| below steady_tol, or on an invalid state.

    Every evaluation refills the one stage workspace the march builds
    (spatial._StageWork: the cell block, the face-pair records, the
    fluxes, rhs and every temporary), so a stage allocates nothing the
    size of a face row; the march closes it (its lane process) however
    it ends.  Every step writes its RK combinations and
    compute_dt's temporaries into two held (3, n) buffers, so it
    allocates the new state alone.  ssp_rk3_step reads each stage's rhs
    before it asks for the next, and a caller reads a yielded state's
    rhs and FaceData (its sample and snapshot) before it resumes.
    """
    grid, gas, spec = config.grid, config.gas, config.time
    work = _StageWork(grid.n_cells, config.recon, config.diss,
                      gas.is_viscous)

    def evaluate(w):
        return assemble_rhs(w, grid, gas, config.flux_kind, config.diss,
                            config.recon, config.bcs, work)

    def rhs_op(w):
        return evaluate(w)[0]

    tiny = 1e-12 * max(1.0, spec.t_final) if spec.t_final < np.inf else 0.0
    interval = config.snapshot_interval
    next_mark = interval if interval else None
    state = MarchState(0, 0.0, w0)
    # the RK buffers, whose first two rows also take compute_dt's
    # temporaries: both are free before a step
    bufs = np.empty(np.shape(w0)), np.empty(np.shape(w0))
    dt_rows = bufs[0][0], bufs[0][1]
    # state.w is the only reference the march keeps: a parameter of a
    # generator would hold the initial state through the whole march
    del w0
    try:
        while True:
            state.rhs, state.faces = _stage(1, evaluate, state.w)
            if (spec.steady_tol is not None and state.step
                    and state.step % _STEADY_CHECK_EVERY == 0):
                state.residual = float(np.max(np.abs(state.rhs)))
                if state.residual < spec.steady_tol:
                    state.reason = "steady"
            if state.reason is None:
                if not state.t < spec.t_final - tiny:
                    state.reason = "t_final"
                elif state.step >= spec.max_steps:
                    state.reason = "max_steps"
            yield state
            if state.reason is not None:
                return

            dt = min(compute_dt(state.faces.cells, grid, gas, spec.cfl,
                                dt_rows),
                     spec.t_final - state.t)
            first = [state.rhs]
            state.rhs = state.faces = state.residual = None
            # the new state is a new array: a yielded w never aliases bufs
            state.w = ssp_rk3_step(state.w, dt, rhs_op, first, bufs)
            state.t += dt
            state.step += 1
            state.mark = next_mark is not None and state.t + tiny >= next_mark
            if state.mark:
                next_mark += interval
    except StageError as exc:
        state.reason, state.error = "invalid_state", exc
        yield state
    finally:
        work.close()  # its lane process, however the march ends
