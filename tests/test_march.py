"""driver.run marches the stacked (3, n) state; a march written directly
with the public kernels gives bitwise the same time steps and final
state."""

from dataclasses import replace

import numpy as np
import pytest

import kepes.driver
from kepes.config import config_from_dict, initial_state
from kepes.presets import preset
from kepes.spatial import assemble_rhs
from kepes.timeint import compute_dt, ssp_rk3_step

STEPS = 30


def march_configs():
    configs = {}
    for mach in ("1.5", "4", "20"):
        base = preset(f"stationary_shock_m{mach}")
        for law in ("roe", "ec1", "kes", "hyb"):
            configs[f"stationary_shock_m{mach}_{law}"] = replace(
                base, diss=replace(base.diss, matrix_law=law))
    for name in ("ns_shock_structure_n50", "ns_shock_structure_n100",
                 "ns_shock_structure_n200", "ns_shock_structure_n200_d4",
                 "sod_viscous", "stationary_contact"):
        configs[name] = preset(name)
    configs["sod_n200"] = config_from_dict({"preset": "sod", "n_cells": 200})
    configs["sod_periodic"] = config_from_dict(
        {"preset": "sod", "n_cells": 64, "bc_left": "periodic",
         "bc_right": "periodic"})
    return configs


CONFIGS = march_configs()


def driver_march(config, output_dir, monkeypatch):
    """The compute_dt values and the final state of driver.run's march."""
    dts, states = [], []

    def recorded_dt(*args):
        dts.append(compute_dt(*args))
        return dts[-1]

    def recorded_step(*args):
        states.append(ssp_rk3_step(*args))
        return states[-1]

    monkeypatch.setattr(kepes.driver, "compute_dt", recorded_dt)
    monkeypatch.setattr(kepes.driver, "ssp_rk3_step", recorded_step)
    result = kepes.driver.run(config, output_dir)
    assert (result.status, result.steps) == (0, STEPS), result.message
    return dts, states[-1]


def kernel_march(config):
    """The same march as a plain loop of compute_dt, ssp_rk3_step and
    assemble_rhs on the stacked state."""
    grid, gas = config.grid, config.gas

    def rhs_op(w):
        return assemble_rhs(w, grid, gas, config.flux_kind, config.diss,
                            config.recon, config.bcs)[0]

    cells = initial_state(config).stacked()
    t, dts = 0.0, []
    for _ in range(STEPS):
        dts.append(compute_dt(cells, grid, gas, config.time.cfl))
        dt = min(dts[-1], config.time.t_final - t)
        cells = ssp_rk3_step(cells, dt, rhs_op)
        t += dt
    return dts, cells


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_array_march_matches_cons_state_march(name, tmp_path, monkeypatch):
    config = replace(CONFIGS[name],
                     time=replace(CONFIGS[name].time, max_steps=STEPS))
    dts, final = driver_march(config, str(tmp_path), monkeypatch)
    want_dts, want = kernel_march(config)
    assert isinstance(final, np.ndarray)
    assert final.shape == (3, config.grid.n_cells)
    assert np.array(dts).tobytes() == np.array(want_dts).tobytes()
    assert final.tobytes() == want.tobytes()
