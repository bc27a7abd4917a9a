import numpy as np
import pytest

from kepes.config import initial_state
from kepes.spatial import assemble_rhs
from kepes.thermo import ConsState, GasModel, PrimState, cons_to_prim
from kepes.timeint import compute_dt, ssp_rk3_step

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def gas():
    return GasModel()


def random_states(rng, n, span=1.0, umax=2.0):
    """Pair of random state arrays; density/pressure ratios up to 10**(2*span)."""
    def draw():
        return PrimState(10.0 ** rng.uniform(-span, span, n),
                         rng.uniform(-umax, umax, n),
                         10.0 ** rng.uniform(-span, span, n))
    return draw(), draw()


def stencil(*states):
    """The PrimStates stacked along a new last axis into one (3, ..., k)
    array of (rho, u, p) rows, k = len(states); four states make the
    stencil of one face."""
    rows = np.broadcast_arrays(*(f for q in states for f in (q.rho, q.u,
                                                              q.p)))
    return np.stack([np.stack(rows[k::3], axis=-1) for k in range(3)])


def advance(config, n_steps=None, cfl=None, collect_rhs=False):
    """March a ProblemConfig; by steps when n_steps is given, else to t_final.

    Marches the stacked (3, n) state, as driver.run does."""
    w = initial_state(config).stacked()

    def rhs_op(w):
        return assemble_rhs(w, config.grid, config.gas, config.flux_kind,
                            config.diss, config.recon, config.bcs)[0]

    t, step = 0.0, 0
    while True:
        if n_steps is not None:
            if step >= n_steps:
                break
        elif t >= config.time.t_final - 1e-14:
            break
        dt = compute_dt(w, config.grid, config.gas, cfl or config.time.cfl)
        if n_steps is None:
            dt = min(dt, config.time.t_final - t)
        w = ssp_rk3_step(w, dt, rhs_op)
        t += dt
        step += 1
    cells = ConsState(*w)
    prim = cons_to_prim(cells, config.gas)
    if collect_rhs:
        rhs, faces = assemble_rhs(w, config.grid, config.gas,
                                  config.flux_kind, config.diss,
                                  config.recon, config.bcs)
        return prim, cells, ConsState(*rhs), faces, t
    return prim, cells, t


def max_residual(rhs):
    return float(np.max(np.abs(rhs)))
