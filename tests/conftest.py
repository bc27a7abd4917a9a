import os
from dataclasses import replace

import numpy as np
import pytest

from kepes.config import initial_state
from kepes.thermo import FaceMeans, GasModel, PrimState, cons_to_prim
from kepes.timeint import march

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assert_no_children():
    """This process has no child left, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    """The states (PrimStates or (3, ...) row arrays) stacked along a new
    last axis into one (3, ..., k) array of (rho, u, p) rows,
    k = len(states); four states make the stencil of one face."""
    rows = np.broadcast_arrays(*(f for q in states for f in q))
    return np.stack([np.stack(rows[k::3], axis=-1) for k in range(3)])


def inner_pairs(cells):
    """FaceMeans record of the pairs (q_j, q_{j+1}), j = 1 .. k - 3, of the
    (3, ..., k) cells: the record that jst_dissipation takes."""
    return FaceMeans(cells[..., 1:-2], cells[..., 2:-1])


def advance(config, n_steps=None, cfl=None, collect_rhs=False):
    """March a ProblemConfig with timeint.march; by steps when n_steps is
    given (t_final ignored), else to t_final.  steady_tol is ignored, and
    an invalid state raises its StageError."""
    spec = replace(config.time, steady_tol=None,
                   cfl=cfl or config.time.cfl)
    if n_steps is not None:
        spec = replace(spec, t_final=np.inf, max_steps=n_steps)
    for state in march(replace(config, time=spec), initial_state(config)):
        pass
    if state.error is not None:
        raise state.error
    prim = cons_to_prim(state.w, config.gas)
    if collect_rhs:
        return prim, state.w, state.rhs, state.faces, state.t
    return prim, state.w, state.t


def max_residual(rhs):
    return float(np.max(np.abs(rhs)))
