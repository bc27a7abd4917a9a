"""Workload definitions: the configs each workload marches, the step count
each run must make, and the seeded initial data it starts from.

Every workload is a closed loop in one process: one ``kepes.driver.run``
call after another, no threads.  Each run has a fixed step cap and a
``t_final`` it cannot reach within that cap, so every run must stop at
exactly its cap; the output checks hold it to that.

The seed perturbs the cell-centred initial data by a relative amplitude
of ``PERTURBATION`` (density and pressure) and ``PERTURBATION`` times the
local sound speed (velocity).  That keeps each workload in its regime while
making every face non-uniform, which plain Riemann data is not.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
PERTURBATION = 1.0e-3

# Step caps.  Each is far below the steps t_final needs, so a run that stops
# early (steady, aborted or truncated) shows as a failure, not as speed.
SWEEP_STEPS = 150
SOD_LARGE_CELLS = 100_000
SOD_LARGE_STEPS = 8
NS_STEPS = 200
BUDGET_STEPS = 400
# sod_viscous marches at dt ~ 3.17e-5 (parabolic bound), so a budget sample
# and a snapshot fall about every fourth step, about 100 in all.
BUDGET_SNAPSHOT_INTERVAL = 1.25e-4

SWEEP_MACHS = ("1.5", "4", "20")
SWEEP_LAWS = ("roe", "ec1", "kes", "hyb")
NS_PRESETS = ("ns_shock_structure_n50", "ns_shock_structure_n100",
              "ns_shock_structure_n200", "ns_shock_structure_n200_d4")

WORKLOADS = ("shock_sweep_small", "sod_large", "ns_viscous", "budget_dense")


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no kepes sources)."""


@dataclass(frozen=True)
class Case:
    """One driver.run call of a workload pass."""

    tag: str
    config: object
    steps: int

    @property
    def n_cells(self) -> int:
        return self.config.grid.n_cells


def import_kepes():
    """Import kepes from the checkout's ``src`` and nowhere else."""
    if not (SRC / "kepes" / "__init__.py").is_file():
        raise BenchError(f"no kepes sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kepes
    import kepes.driver  # noqa: F401  (the layer every workload enters)

    if Path(kepes.__file__).resolve().parent != SRC / "kepes":
        raise BenchError(f"kepes imported from {kepes.__file__}, not {SRC}")
    return kepes


def _capped(config, steps, **changes):
    return replace(config, time=replace(config.time, max_steps=steps),
                   **changes)


def build_cases(workload: str) -> list[Case]:
    """The configs of one workload pass, in run order."""
    from kepes.presets import preset

    if workload == "shock_sweep_small":
        cases = []
        for mach in SWEEP_MACHS:
            base = preset(f"stationary_shock_m{mach}")
            for law in SWEEP_LAWS:
                cfg = _capped(base, SWEEP_STEPS,
                              diss=replace(base.diss, matrix_law=law))
                cases.append(Case(f"m{mach}_{law}", cfg, SWEEP_STEPS))
        return cases
    if workload == "sod_large":
        base = preset("sod")
        cfg = _capped(base, SOD_LARGE_STEPS,
                      grid=replace(base.grid, n_cells=SOD_LARGE_CELLS))
        return [Case("sod_n100000", cfg, SOD_LARGE_STEPS)]
    if workload == "ns_viscous":
        return [Case(name, _capped(preset(name), NS_STEPS), NS_STEPS)
                for name in NS_PRESETS]
    if workload == "budget_dense":
        cfg = _capped(preset("sod_viscous"), BUDGET_STEPS,
                      snapshot_interval=BUDGET_SNAPSHOT_INTERVAL)
        return [Case("sod_viscous_dense", cfg, BUDGET_STEPS)]
    raise BenchError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def initial_states(cases: list[Case], seed: int) -> dict:
    """Seeded initial conserved state of every case, keyed by id(config)."""
    from kepes.config import initial_state
    from kepes.thermo import PrimState, cons_to_prim, prim_to_cons, sound_speed

    states = {}
    for index, case in enumerate(cases):
        gas = case.config.gas
        q = cons_to_prim(initial_state(case.config), gas)
        r = np.random.default_rng([seed, index]).uniform(
            -1.0, 1.0, size=(3, case.n_cells))
        perturbed = PrimState(q.rho * (1.0 + PERTURBATION * r[0]),
                              q.u + PERTURBATION * sound_speed(q, gas) * r[1],
                              q.p * (1.0 + PERTURBATION * r[2]))
        states[id(case.config)] = prim_to_cons(perturbed, gas)
    return states


@contextlib.contextmanager
def seeded_inputs(states: dict):
    """Make driver.run start each case from its seeded initial state.

    driver.run builds its initial state itself; this rebinds the name it
    calls, so the program receives the generated inputs and nothing else
    changes.  Every case's config must be a key of ``states``.
    """
    import kepes.driver as driver

    original = driver.initial_state
    driver.initial_state = lambda config: states[id(config)].copy()
    try:
        yield
    finally:
        driver.initial_state = original
