"""driver.run is a client of timeint.march, which evaluates each marched
state once.  A frozen copy of the loop driver.run ran before the march
shared that evaluation, which spent a second RHS on every budget sample
and steady check, gives bitwise the same time steps, final state, budget
rows and snapshot bytes.  The march calls assemble_rhs 3 steps + 1 times,
lets each stage-1 evaluation go before stage 2, and refills the one stage
workspace it builds."""

import importlib.util
import os
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kepes.dissipation
import kepes.fluxes
import kepes.spatial
import kepes.thermo
import kepes.timeint
from kepes import driver
from kepes.config import config_from_dict, initial_state
from kepes.diagnostics import budget_report
from kepes.presets import preset
from kepes.spatial import assemble_rhs
from kepes.thermo import (InvalidStateError, PrimState, cons_to_prim,
                          physical_entropy, prim_to_cons, temperature)
from kepes.timeint import StageError, compute_dt, ssp_rk3_step

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


def capped(config, steps=STEPS, **changes):
    return replace(config, time=replace(config.time, max_steps=steps),
                   **changes)


# The loop of driver._run before the march shared its evaluations, frozen
# (with its snapshot writer): a budget sample and the steady check each
# evaluated the state again, and compute_dt converted it again.

_STEADY_CHECK_EVERY = 25


def frozen_write_snapshot(path, x, prim, gas):
    columns = (x, prim.rho, prim.u, prim.p, temperature(prim, gas),
               physical_entropy(prim, gas))
    row = ",".join(("%.17g",) * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,rho,u,p,T,s\n")
        for lo in range(0, len(x), 2048):
            block = np.column_stack([c[lo:lo + 2048] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def frozen_run(config, output_dir):
    """(status, message, t, step, dts, final state) of the frozen loop,
    which writes its snapshots and budget.csv into output_dir."""
    os.makedirs(output_dir, exist_ok=True)
    grid, gas = config.grid, config.gas
    x = grid.cell_centers()

    def rhs_full(w):
        return assemble_rhs(w, grid, gas, config.flux_kind, config.diss,
                            config.recon, config.bcs)

    def rhs_op(w):
        return rhs_full(w)[0]

    def frozen_compute_dt(w):
        prim = cons_to_prim(w, gas)
        return compute_dt((prim.rho, prim.u, prim.p), grid, gas,
                          config.time.cfl)

    w = initial_state(config)
    t, step, dts = 0.0, 0, []
    status, message = 0, "ok"
    budget_rows = []

    def sample_budget(w, time):
        rhs, faces = rhs_full(w)
        budget_rows.append(budget_report(time, rhs, faces, grid,
                                         gas))

    snap_index = 0

    def emit_snapshot(w, suffix=None):
        nonlocal snap_index
        name = (f"snapshot_{snap_index:04d}.csv" if suffix is None
                else f"snapshot_{suffix}.csv")
        frozen_write_snapshot(os.path.join(output_dir, name), x,
                              cons_to_prim(w, gas), gas)
        if suffix is None:
            snap_index += 1

    try:
        emit_snapshot(w)
        sample_budget(w, t)
        interval = config.snapshot_interval
        next_mark = interval if interval else None
        tiny = 1e-12 * max(1.0, config.time.t_final)
        while t < config.time.t_final - tiny and step < config.time.max_steps:
            dts.append(frozen_compute_dt(w))
            dt = min(dts[-1], config.time.t_final - t)
            w = ssp_rk3_step(w, dt, rhs_op)
            t += dt
            step += 1
            if next_mark is not None and t + tiny >= next_mark:
                emit_snapshot(w)
                sample_budget(w, t)
                next_mark += interval
            if (config.time.steady_tol is not None
                    and step % _STEADY_CHECK_EVERY == 0):
                residual = float(np.max(np.abs(rhs_op(w))))
                if residual < config.time.steady_tol:
                    message = (f"steady at t={t:.6g} "
                               f"(residual {residual:.3e})")
                    break
        sample_budget(w, t)
        emit_snapshot(w, suffix="final")
    except (InvalidStateError, StageError) as exc:
        status = 1
        message = f"aborted at t={t:.6g}, step {step}: {exc}"

    with open(os.path.join(output_dir, "budget.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        if budget_rows:
            fh.write(budget_rows[0].csv_header() + "\n")
        for row in budget_rows:
            fh.write(row.csv_row() + "\n")
    return status, message, t, step, dts, w


def driver_march(config, output_dir, monkeypatch):
    """driver.run's result, with the march's compute_dt values and the
    state each step made."""
    dts, states = [], []

    def recorded_dt(*args):
        dts.append(compute_dt(*args))
        return dts[-1]

    def recorded_step(*args):
        states.append(ssp_rk3_step(*args))
        return states[-1]

    monkeypatch.setattr(kepes.timeint, "compute_dt", recorded_dt)
    monkeypatch.setattr(kepes.timeint, "ssp_rk3_step", recorded_step)
    return driver.run(config, output_dir), dts, states


def artifacts(output_dir):
    """{name: bytes} of the snapshots and budget.csv in output_dir."""
    out = {}
    for name in sorted(os.listdir(output_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(output_dir, name), "rb") as fh:
                out[name] = fh.read()
    return out


def assert_matches_frozen(config, tmp_path, monkeypatch):
    """The run's outcome, dts, final state and CSV bytes against the frozen
    loop's; returns the run's result."""
    want_dir, got_dir = str(tmp_path / "frozen"), str(tmp_path / "march")
    status, message, t, step, want_dts, want = frozen_run(config, want_dir)
    result, dts, states = driver_march(config, got_dir, monkeypatch)
    assert (result.status, result.message) == (status, message)
    assert (result.final_time, result.steps) == (t, step)
    assert np.array(dts).tobytes() == np.array(want_dts).tobytes()
    if step:
        assert isinstance(states[-1], np.ndarray)
        assert states[-1].shape == (3, config.grid.n_cells)
        assert states[-1].tobytes() == want.tobytes()
    got = artifacts(got_dir)
    assert got == artifacts(want_dir)
    assert "snapshot_0000.csv" in got and "budget.csv" in got
    return result


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_array_march_matches_cons_state_march(name, tmp_path, monkeypatch):
    result = assert_matches_frozen(capped(CONFIGS[name]), tmp_path,
                                   monkeypatch)
    assert (result.steps, result.reason) == (STEPS, "max_steps")


def test_dense_budget_cadence_matches_frozen(tmp_path, monkeypatch):
    # budget_dense's cadence: a sample and a snapshot about every 4th step
    config = capped(preset("sod_viscous"), 120, snapshot_interval=1.25e-4)
    result = assert_matches_frozen(config, tmp_path, monkeypatch)
    assert len(result.snapshots) > 25


def test_steady_stop_matches_frozen(tmp_path, monkeypatch):
    config = config_from_dict({"preset": "stationary_contact",
                               "steady_tol": 1e-12})
    result = assert_matches_frozen(config, tmp_path, monkeypatch)
    assert (result.reason, result.steps) == ("steady", 25)


def test_abort_matches_frozen(tmp_path, monkeypatch):
    # TestAbortPath's config (tests/test_driver.py)
    config = config_from_dict({
        "ic": "riemann", "left_rho": 1.0, "left_u": 0.0, "left_p": 1000.0,
        "right_rho": 0.001, "right_u": 0.0, "right_p": 1e-6,
        "n_cells": 50, "flux": "kepec", "diss": "none",
        "cfl": 0.9, "t_final": 1.0,
    })
    with np.errstate(all="ignore"):
        result = assert_matches_frozen(config, tmp_path, monkeypatch)
    assert (result.status, result.reason) == (1, "invalid_state")


def counted_rhs_calls(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return assemble_rhs(*args)

    monkeypatch.setattr(kepes.timeint, "assemble_rhs", counted)
    return calls


@pytest.mark.parametrize("case", ["mark_every_step", "steady_checks",
                                  "steady_stop"])
def test_one_evaluation_per_state(case, tmp_path, monkeypatch):
    if case == "mark_every_step":
        # the interval is far below dt, so every state is sampled
        config = capped(preset("sod"), 40, snapshot_interval=1e-9)
    elif case == "steady_checks":
        config = capped(preset("stationary_shock_m1.5"), 60)
    else:
        config = config_from_dict({"preset": "stationary_contact",
                                   "steady_tol": 1e-12})
    calls = counted_rhs_calls(monkeypatch)
    result = driver.run(config, str(tmp_path))
    assert result.status == 0
    assert len(calls) == 3 * result.steps + 1
    if case == "mark_every_step":
        assert len(result.snapshots) == result.steps + 2
    elif case == "steady_checks":
        assert config.time.steady_tol is not None
        assert result.reason == "max_steps"
    else:
        assert result.reason == "steady"


@pytest.mark.parametrize("name", ["sod", "stationary_shock_m4_ec1",
                                  "ns_shock_structure_n200_d4"])
def test_one_prim_state_per_rhs(name, monkeypatch):
    # states are row arrays: the stage writes its (rho, u, p) rows into
    # its cell block without a PrimState, and the march, dt and the budget
    # sample pass (3, n) rows without wrapping them
    config = capped(CONFIGS.get(name) or preset(name), 20)
    w0 = initial_state(config)
    made = {PrimState: 0}
    for cls in made:
        def counted(cls, *args, new=cls.__new__, **kwargs):
            made[cls] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", counted)
    calls = counted_rhs_calls(monkeypatch)
    for state in kepes.timeint.march(config, w0):
        budget_report(state.t, state.rhs, state.faces, config.grid,
                      config.gas)
    assert (state.reason, state.step) == ("max_steps", 20)
    assert len(calls) == 3 * 20 + 1
    assert made == {PrimState: 0}


def test_stage_one_evaluation_released_before_stage_two(tmp_path,
                                                        monkeypatch):
    # The evaluation of a state is its step's stage 1.  Once dt, the
    # sample and the steady check have read it, nothing may hold its
    # FaceData through stages 2 and 3: a kept FaceData raised the peak
    # RSS of a 10^5-cell sod run from 88 to 104 MB.  Stage 2 writes its
    # rhs into stage 1's array, the march's workspace's.
    base = preset("sod")
    config = replace(base, snapshot_interval=1e-9,
                     time=replace(base.time, max_steps=60, steady_tol=1e-300))
    refs, dead, same = [], [], []

    def watched(*args):
        stage_two = len(refs) % 3 == 1
        if stage_two:
            # its stage 1 was the last state evaluation
            dead.append(refs[-1][0]() is None)
        rhs, faces = assemble_rhs(*args)
        if stage_two:
            same.append(rhs is refs[-1][1])
        refs.append((weakref.ref(faces), rhs))
        return rhs, faces

    monkeypatch.setattr(kepes.timeint, "assemble_rhs", watched)
    result = driver.run(config, str(tmp_path))
    assert (result.status, result.steps) == (0, 60)
    assert len(dead) == 60 and all(dead)
    assert len(same) == 60 and all(same)


def counted_workspaces(monkeypatch):
    """The list that gets each _StageWork the march builds."""
    builds = []

    class Counted(kepes.timeint._StageWork):
        def __init__(self, *args):
            super().__init__(*args)
            builds.append(self)

    monkeypatch.setattr(kepes.timeint, "_StageWork", Counted)
    return builds


def counted_kernels(config, monkeypatch):
    """{name: calls} of every public kernel the stage calls, each counted
    by a wrapper set where the stage binds it, before the march builds
    its workspace; and the counts config's stage makes per window and
    RHS (apply_boundary fills the whole grid's ghosts, once per RHS)."""
    diss = config.diss.kind
    kernels = [
        (kepes.fluxes.CENTRAL_FLUXES, config.flux_kind, True),
        (vars(kepes.spatial), "matrix_dissipation", diss == "matrix"),
        (vars(kepes.spatial), "jst_dissipation", diss == "scalar"),
        (vars(kepes.spatial), "viscous_face_flux", config.gas.is_viscous),
        (vars(kepes.spatial), "reconstruct_face", config.recon.order == 2),
        (vars(kepes.spatial), "apply_boundary", True),
        (vars(kepes.dissipation), "entropy_vars_jump", diss == "matrix"),
        (vars(kepes.thermo), "log_mean", True),
    ]
    calls = {name: [] for _, name, _ in kernels}
    for table, name, _ in kernels:
        def counted(*args, kernel=table[name], tally=calls[name]):
            tally.append(1)
            return kernel(*args)

        monkeypatch.setitem(table, name, counted)
    return calls, {name: int(called) for _, name, called in kernels}


@pytest.mark.parametrize("name", ["sod", "stationary_shock_m4_ec1",
                                  "ns_shock_structure_n200_d4"])
def test_one_workspace_serves_every_evaluation(name, monkeypatch):
    # the march builds one stage workspace, and every evaluation refills
    # it, a sampled state's (a mark or the last state) included, so
    # consecutive evaluations share the cell block; every public kernel
    # of the stage, log_mean among them, is still called once per window
    # and RHS, so a trace of the public functions sees each of them
    # (test_one_prim_state_per_rhs counts the PrimStates of these configs)
    config = CONFIGS.get(name) or preset(name)
    w0 = initial_state(config)
    dt0 = compute_dt(cons_to_prim(w0, config.gas), config.grid, config.gas,
                     config.time.cfl)
    # a mark about every fifth step
    config = capped(config, 30, snapshot_interval=4.5 * dt0)
    calls, per_rhs = counted_kernels(config, monkeypatch)
    builds = counted_workspaces(monkeypatch)
    evals = []

    def watched(*args):
        rhs, faces = assemble_rhs(*args)
        evals.append((rhs, faces.cells))
        return rhs, faces

    monkeypatch.setattr(kepes.timeint, "assemble_rhs", watched)
    sampled = 0
    for state in kepes.timeint.march(config, w0):
        assert state.rhs is evals[-1][0]
        sampled += state.mark or state.reason is not None
    assert (state.reason, state.step) == ("max_steps", 30)
    assert len(evals) == 3 * 30 + 1
    assert len(builds) == 1
    windows = len(builds[0].windows)
    assert {k: len(v) for k, v in calls.items()} == {
        k: len(evals) * per * (1 if k == "apply_boundary" else windows)
        for k, per in per_rhs.items()}
    assert 5 <= sampled <= 10
    for (rhs_a, cells_a), (rhs_b, cells_b) in zip(evals, evals[1:]):
        assert rhs_a is rhs_b
        assert np.shares_memory(cells_a, cells_b)


def test_one_workspace_per_run_of_every_workload(tmp_path, monkeypatch):
    # every driver.run of every perfbench workload builds one stage
    # workspace, however many states it samples (budget_dense's 103)
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    builds = counted_workspaces(monkeypatch)
    samples = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.build_cases(workload):
            builds.clear()
            result = driver.run(case.config, str(tmp_path / case.tag))
            assert (result.status, result.steps) == (0, case.steps)
            assert len(builds) == 1, case.tag
            with open(result.budget_path) as fh:
                samples[workload] = len(fh.readlines()) - 1
    assert samples == {"shock_sweep_small": 2, "sod_large": 2,
                       "ns_viscous": 2, "budget_dense": 103}


class TestTerminationReason:
    def test_t_final(self, tmp_path):
        cfg = config_from_dict({"preset": "sod", "n_cells": 32})
        result = driver.run(cfg, str(tmp_path))
        assert (result.status, result.message) == (0, "ok")
        assert result.reason == "t_final"
        assert result.final_time == pytest.approx(0.2, abs=1e-12)

    def test_steady(self, tmp_path):
        cfg = config_from_dict({"preset": "stationary_contact",
                                "steady_tol": 1e-12})
        result = driver.run(cfg, str(tmp_path))
        assert result.status == 0 and result.message.startswith("steady")
        assert result.reason == "steady"

    def test_max_steps(self, tmp_path):
        # a truncated run keeps status 0 and "ok"; only reason tells it
        cfg = capped(preset("stationary_shock_m4"), 50)
        result = driver.run(cfg, str(tmp_path))
        assert (result.status, result.message) == (0, "ok")
        assert (result.reason, result.steps) == ("max_steps", 50)
        assert result.final_time < cfg.time.t_final

    def test_invalid_state(self, tmp_path):
        cfg = config_from_dict({"preset": "sod", "n_cells": 16})
        # a negative pressure in one cell
        bad = prim_to_cons(PrimState(np.ones(16), np.zeros(16),
                                     np.where(np.arange(16) == 5, -1.0,
                                              1.0)), cfg.gas)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "initial_state", lambda config: bad)
            result = driver.run(cfg, str(tmp_path))
        assert result.status == 1
        assert result.reason == "invalid_state"
        assert "step 0: stage 1: invalid state in cell 5" in result.message

    def test_io_failure(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        cfg = config_from_dict({"preset": "sod", "n_cells": 8,
                                "t_final": 0.01})
        result = driver.run(cfg, str(blocker))
        assert (result.status, result.reason) == (2, "io_failure")
