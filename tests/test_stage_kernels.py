"""The stage against the public per-pair kernels: assemble_rhs and its
FaceData.central, diss and visc are bitwise equal to the kernels applied
to explicit face pairs at every face, a shock_outflow face included, and
FaceData.net to their sum with the boundary-flux step, for every central
flux, dissipation, order and boundary set, on random and near-degenerate
states.  One held stage workspace, refilled by a sequence of such states,
gives bitwise the results of calls that build their own, returns
results that share no memory, allocates nothing the size of a face row,
and binds no call on a Python float or int.  A grid of several stage
windows gives bitwise the results of a workspace that runs all its faces
as one window, in one lane or in two, the second in a lane process or,
when it cannot be forked, on the caller; two lanes raise what one
raises, leave no thread or process behind, and keep to the caller's
process while a kernel is a wrapper."""

import functools
import gc
import itertools
import mmap
import os
import re
import signal
import threading
import tracemalloc
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from kepes import spatial, thermo
from kepes.config import initial_state
from kepes.dissipation import (
    MATRIX_LAWS,
    DissipationSpec,
    jst_dissipation,
    matrix_dissipation,
)
from kepes.fluxes import CENTRAL_FLUXES
from kepes.presets import preset
from kepes.reconstruction import ReconSpec, reconstruct_face
from kepes.record import record
from kepes.spatial import (
    LANES,
    WINDOW,
    BoundaryCondition,
    BoundarySpec,
    Grid1D,
    _StageWork,
    apply_boundary,
    assemble_rhs,
    viscous_face_flux,
)
from kepes.thermo import (
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    ViscosityLaw,
    cons_to_prim,
    prim_to_cons,
)
from kepes.timeint import march

from conftest import assert_no_children, inner_pairs

N_CELLS = 24
DISSIPATIONS = ([DissipationSpec(),
                 DissipationSpec(kind="scalar", kappa2=0.5, kappa4=1 / 32)]
                + [DissipationSpec(kind="matrix", matrix_law=law)
                   for law in MATRIX_LAWS])
RECONSTRUCTIONS = (ReconSpec(1), ReconSpec(2, "minmod"))
# inviscid, a constant viscosity and the power-law gas of the four NS
# presets (mu_ref (T / t_ref)^0.8, gamma 5/3)
GASES = (GasModel(), GasModel(viscosity_law=ViscosityLaw("constant", 0.01)),
         preset("ns_shock_structure_n50").gas)
PERIODIC = BoundaryCondition("periodic")
BOUNDARIES = {
    "transmissive": BoundarySpec(),
    "periodic": BoundarySpec(PERIODIC, PERIODIC),
    # the ghosts hold a state unlike the edge cells
    "fixed_state+shock_outflow": BoundarySpec(
        BoundaryCondition("fixed_state", state=PrimState(0.8, 0.1, 0.9)),
        BoundaryCondition("shock_outflow", mass_flux=0.7)),
}


def states(rng):
    """Random cells, equal neighbours, neighbours one ulp apart, and runs
    of equal cells broken by one-ulp steps."""
    yield PrimState(10.0 ** rng.uniform(-2, 2, N_CELLS),
                    rng.uniform(-1.5, 1.5, N_CELLS),
                    10.0 ** rng.uniform(-2, 2, N_CELLS))
    yield PrimState(*(np.full(N_CELLS, f) for f in (1.3, 0.2, 0.7)))
    base = rng.uniform(0.5, 2.0, (3, 1))
    # a positive float k ulp above x has the bit pattern of x plus k
    for ulps in (np.arange(N_CELLS) % 2,
                 np.cumsum(rng.integers(0, 2, (3, N_CELLS)), axis=1)):
        bits = np.broadcast_to(base, (3, N_CELLS)).view(np.int64) + ulps
        yield PrimState(*bits.view(float))


def kernel_rhs(cells, grid, gas, flux_kind, diss, recon, bcs):
    """rhs and the (central, diss, visc, net) face fluxes from the per-pair
    kernels, each given a FaceMeans record of explicit face pairs."""
    n, dx = grid.n_cells, grid.dx
    ext = np.empty((3, n + 4))
    ext[:, 2:-2] = cons_to_prim(cells, gas)
    apply_boundary(ext, bcs)
    q0, q1 = ext[:, 1:n + 2], ext[:, 2:n + 3]
    left, right = (q0, q1) if recon.order == 1 else reconstruct_face(ext,
                                                                     recon)
    central = CENTRAL_FLUXES[flux_kind](FaceMeans(left, right), gas)
    if diss.kind == "matrix":
        d_flux = matrix_dissipation(FaceMeans(left, right), gas, diss,
                                    flux_kind)
    elif diss.kind == "scalar":
        d_flux = jst_dissipation(ext, inner_pairs(ext), gas, diss,
                                 not bcs.is_periodic)
    else:
        d_flux = np.zeros((3, n + 1))
    g_flux = (viscous_face_flux(FaceMeans(q0, q1), gas, dx)
              if gas.is_viscous else np.zeros((3, n + 1)))
    net = central + d_flux - g_flux
    if bcs.right.kind == "shock_outflow":
        # the last face carries the mass flux and the net momentum and
        # energy fluxes of the face before it; the three parts stay the
        # kernels' outputs
        net[0, n] = bcs.right.mass_flux
        net[1:, n] = net[1:, n - 1]
    return -(net[:, 1:] - net[:, :-1]) / dx, (central, d_flux, g_flux, net)


@pytest.mark.parametrize("bc", sorted(BOUNDARIES))
@pytest.mark.parametrize("flux_kind", sorted(CENTRAL_FLUXES))
def test_stage_equals_kernels(flux_kind, bc):
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    bcs = BOUNDARIES[bc]
    rng = np.random.default_rng(sorted(CENTRAL_FLUXES).index(flux_kind))
    for s, prim in enumerate(states(rng)):
        for gas in GASES:
            cells = prim_to_cons(prim, gas)
            for diss in DISSIPATIONS:
                for recon in RECONSTRUCTIONS:
                    case = (f"state {s}/{gas.viscosity_law.kind}/"
                            f"{diss.kind}/{diss.matrix_law}/{recon.order}")
                    rhs, faces = assemble_rhs(cells, grid, gas, flux_kind,
                                              diss, recon, bcs)
                    want, fluxes = kernel_rhs(cells, grid, gas, flux_kind,
                                              diss, recon, bcs)
                    assert np.array_equal(rhs, want), f"{case} rhs"
                    for name, f in zip(("central", "diss", "visc", "net"),
                                       fluxes):
                        assert np.array_equal(getattr(faces, name), f), \
                            f"{case} {name}"
                    if bcs.right.kind == "shock_outflow":
                        n = N_CELLS
                        assert faces.net[0, n] == bcs.right.mass_flux, case
                        assert np.array_equal(faces.net[1:, n],
                                              faces.net[1:, n - 1]), case


# -- one held workspace against one-shot calls ----------------------------------

RECON_ALL = (ReconSpec(1), ReconSpec(2, "minmod"), ReconSpec(2, "van_albada"),
             ReconSpec(2, "none"))
FACE_FIELDS = ("central", "diss", "visc", "net", "cells", "left", "right",
               "u_bar", "du", "dpsi", "p_tilde")


def held_sequence(rng):
    """The states of states(rng) with, after the second, one that fails
    validation (a negative pressure in cell 5)."""
    for s, prim in enumerate(states(rng)):
        yield prim
        if s == 1:
            yield PrimState(prim.rho, prim.u,
                            np.where(np.arange(N_CELLS) == 5, -1.0, prim.p))


def bits(a):
    """The bit patterns of a float array, sign bits included."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("bc", sorted(BOUNDARIES))
@pytest.mark.parametrize("flux_kind", sorted(CENTRAL_FLUXES))
def test_held_workspace_equals_one_shot(flux_kind, bc):
    # one workspace refilled by a sequence of unlike states gives bitwise
    # the rhs and FaceData of a call that builds its own: a stale ghost,
    # bar row or log mean of an earlier state would show
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    bcs = BOUNDARIES[bc]
    rng = np.random.default_rng(17 + sorted(CENTRAL_FLUXES).index(flux_kind))
    prims = list(held_sequence(rng))
    for gas in GASES:
        for diss in DISSIPATIONS:
            for recon in RECON_ALL:
                args = (grid, gas, flux_kind, diss, recon, bcs)
                work = _StageWork(N_CELLS, recon, diss, gas.is_viscous)
                for s, prim in enumerate(prims):
                    case = (f"state {s}/{gas.viscosity_law.kind}/"
                            f"{diss.kind}/{diss.matrix_law}/{recon.order}/"
                            f"{recon.limiter}")
                    cells = prim_to_cons(prim, gas)
                    if not np.all(prim.p > 0.0):
                        for w in (work, None):
                            with pytest.raises(InvalidStateError):
                                assemble_rhs(cells, *args, w)
                        continue
                    rhs, faces = assemble_rhs(cells, *args, work)
                    want_rhs, want = assemble_rhs(cells, *args)
                    assert np.array_equal(bits(rhs), bits(want_rhs)), \
                        f"{case} rhs"
                    for name in FACE_FIELDS:
                        assert np.array_equal(bits(getattr(faces, name)),
                                              bits(getattr(want, name))), \
                            f"{case} {name}"


def log_means(work):
    """The log-mean rows of each record of the workspace's last window,
    which holds the last pairs the stage formed."""
    window = work.windows[-1]
    records = {id(r): r for r in (window.cell_means, window.means)
               if r is not None}
    return [(f"record {k} {name}", getattr(record, name))
            for k, record in enumerate(records.values())
            for name in ("rho_ln", "beta_ln")]


@pytest.mark.parametrize("bc", sorted(BOUNDARIES))
@pytest.mark.parametrize("flux_kind", sorted(CENTRAL_FLUXES))
def test_held_results_share_no_memory(flux_kind, bc):
    # no two of the arrays a held call returns, or leaves readable in its
    # workspace, are one: a scratch slot handed out twice would show
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    bcs = BOUNDARIES[bc]
    prim = next(states(np.random.default_rng(5)))
    for gas in GASES:
        cells = prim_to_cons(prim, gas)
        for diss in DISSIPATIONS:
            for recon in RECON_ALL:
                case = (f"{gas.viscosity_law.kind}/{diss.kind}/"
                        f"{diss.matrix_law}/{recon.order}/{recon.limiter}")
                work = _StageWork(N_CELLS, recon, diss, gas.is_viscous)
                rhs, faces = assemble_rhs(cells, grid, gas, flux_kind, diss,
                                          recon, bcs, work)
                results = [("rhs", rhs)] + [
                    (name, getattr(faces, name))
                    for name in ("central", "diss", "visc", "net", "cells")]
                before = [bits(a).copy() for _, a in results]
                arrays = results + log_means(work)
                for (a_name, a), (b_name, b) in itertools.combinations(
                        arrays, 2):
                    assert not np.shares_memory(a, b), \
                        f"{case}: {a_name} and {b_name}"
                # reading the records after the call leaves the results
                for (name, a), want in zip(results, before):
                    assert np.array_equal(bits(a), want), f"{case}: {name}"


# -- the operands of a held workspace's calls ---------------------------------


def bound_entries(calls, seen):
    """Every (callable, operands) entry of the bound calls, and of the
    calls bound in their operands (a kernel's work), each list once."""
    if id(calls) in seen:
        return
    seen.add(id(calls))
    for f, operands in calls:
        yield f, operands
        for x in operands:
            for y in (x if isinstance(x, tuple) else (x,)):
                if isinstance(y, list):
                    yield from bound_entries(y, seen)


@pytest.mark.parametrize("bc", sorted(BOUNDARIES))
@pytest.mark.parametrize("flux_kind", sorted(CENTRAL_FLUXES))
def test_held_calls_take_array_operands(flux_kind, bc):
    # a Python float or int operand costs a ufunc call ~150 ns more than a
    # 0-d array of the same value: no bound call of a held workspace takes
    # one, and every operand of a numpy call is an array.  Every kernel
    # the stage calls is recorded: a Python function's entry carries its
    # recorded work (out, calls), which the walk descends
    grid = Grid1D(N_CELLS, 0.0, 1.0)
    bcs = BOUNDARIES[bc]
    prim = next(states(np.random.default_rng(9)))
    for gas in GASES:
        cells = prim_to_cons(prim, gas)
        for diss in DISSIPATIONS:
            for recon in RECON_ALL:
                case = (f"{gas.viscosity_law.kind}/{diss.kind}/"
                        f"{diss.matrix_law}/{recon.order}/{recon.limiter}")
                work = _StageWork(N_CELLS, recon, diss, gas.is_viscous)
                assemble_rhs(cells, grid, gas, flux_kind, diss, recon, bcs,
                             work)
                funcs = []
                for f, operands in bound_entries(work.calls, set()):
                    assert not any(type(x) in (float, int)
                                   for x in operands), f"{case}: {f}"
                    if isinstance(f, types.FunctionType):
                        assert (type(operands[-1]) is tuple
                                and type(operands[-1][1]) is list), \
                            f"{case}: {f}"
                    # a ufunc, or one bound by keyword (functools.partial)
                    funcs.append(getattr(f, "func", f))
                    if isinstance(funcs[-1], np.ufunc):
                        assert all(isinstance(x, np.ndarray)
                                   for x in operands), f"{case}: {f}"
                # the walk reaches the log-mean calls exactly where the
                # config reads a log mean
                reads_ln = (flux_kind in ("kepec", "roe_ec")
                            or diss.kind == "matrix"
                            or diss.kind == "scalar"
                            and diss.beta_average == "logarithmic")
                assert (np.log in funcs) == reads_ln, case


# -- several windows against one ----------------------------------------------

# three balanced windows each in one lane: of 5,462 faces, and of 8,191,
# 8,192 and 8,192 faces
MULTI_N = (2 * WINDOW + 1, 3 * WINDOW - 2)
# the fewest cells that run in two lanes given a second CPU
LANE_N = LANES
# the windows of each lane, in one lane and in two: the halves of 16,386
# faces are cut at face 8,192 (one window, and two of 4,097), of 24,575
# at 12,287 (6,143 or 6,144 faces a window), and of 10,001 at 5,000
LANE_WINDOWS = {(MULTI_N[0], 1): [3], (MULTI_N[0], 2): [1, 2],
                (MULTI_N[1], 1): [3], (MULTI_N[1], 2): [2, 2],
                (LANE_N, 1): [2], (LANE_N, 2): [1, 1]}


def single_window(n, recon, diss, viscous, monkeypatch):
    """A workspace of n cells that runs all its faces as one window."""
    with monkeypatch.context() as patch:
        patch.setattr(spatial, "WINDOW", n + 1)
        work = _StageWork(n, recon, diss, viscous)
    assert len(work.windows) == 1
    return work


# the boundary sets, and fixed states on both sides whose pressures make
# the outer sensors of both ends exceed the inner ones (window_edge_state)
MULTI_BOUNDARIES = {**BOUNDARIES, "fixed_state": BoundarySpec(
    BoundaryCondition("fixed_state", state=PrimState(0.8, 0.1, 0.9)),
    BoundaryCondition("fixed_state", state=PrimState(1.2, -0.1, 0.5)))}


def window_edge_state(rng, n, edges):
    """A random state with, about each window edge (the first face a of a
    window), the rho of the cells a - 3 .. a + 1 set to 10, 0.1, 0.1, 0.1,
    10: unlimited slopes then drive the left state of face a - 1 and the
    right state of face a negative, so the reconstruction falls back to
    first order on both sides of the edge.  The p of cell a - 1 is 3, so
    the JST sensor of the last cell of one window and of the first of the
    next exceeds that of its inner neighbour, as do the outer sensors of
    both grid ends beside the fixed states.  Runs of equal cells take
    log_mean's series branch past the edges."""
    rho = 1.0 + 0.2 * rng.uniform(-1, 1, n)
    p = 1.0 + 0.2 * rng.uniform(-1, 1, n)
    u = rng.uniform(-0.5, 0.5, n)
    for a in edges:
        rho[a - 3:a + 2] = (10.0, 0.1, 0.1, 0.1, 10.0)
        p[a - 1] = 3.0
        for f in (rho, p):
            f[a + 4:a + 12] = f[a + 3]
        # the unlimited half slope of a cell is (q_{j+1} - q_{j-1}) / 4
        assert rho[a - 2] + (rho[a - 1] - rho[a - 3]) / 4 < 0
        assert rho[a] - (rho[a + 1] - rho[a - 1]) / 4 < 0
    p[:2] = p[-2:] = 1.0
    return PrimState(rho, u, p)


@pytest.mark.parametrize("n", MULTI_N + (LANE_N,))
def test_windows_equal_one_window(n, monkeypatch):
    # every dissipation with every reconstruction and boundary set, the
    # central flux and the gas (inviscid, constant and power-law viscosity)
    # cycled: the windowed stage is bitwise the one-window stage, the JST
    # end rule and the positivity fallback at window edges included.  Each
    # grid, of at least LANE_N cells, runs in one lane on one CPU and, on
    # two, in two lanes, whose edge is a window edge.
    grid = Grid1D(n, 0.0, 1.0)
    rng = np.random.default_rng(n)
    fluxes = itertools.cycle(sorted(CENTRAL_FLUXES))
    gases = itertools.cycle(GASES)
    cpus = itertools.cycle((1, 2))
    for diss, recon in itertools.product(DISSIPATIONS, RECON_ALL):
        gas = next(gases)
        lanes = next(cpus)
        monkeypatch.setattr(spatial, "_cpus", lambda lanes=lanes: lanes)
        work = _StageWork(n, recon, diss, gas.is_viscous)
        one = single_window(n, recon, diss, gas.is_viscous, monkeypatch)
        assert len(work.lanes) == lanes
        assert [len(lane.windows) for lane in work.lanes] == \
            LANE_WINDOWS[n, lanes]
        edges = [win.faces.start for win in work.windows[1:]]
        cells = prim_to_cons(window_edge_state(rng, n, edges), gas)
        for bc in sorted(MULTI_BOUNDARIES):
            flux_kind = next(fluxes)
            case = (f"{flux_kind}/{bc}/{gas.viscosity_law.kind}/"
                    f"{diss.kind}/{diss.matrix_law}/{recon.order}/"
                    f"{recon.limiter}")
            args = (cells, grid, gas, flux_kind, diss, recon,
                    MULTI_BOUNDARIES[bc])
            rhs, faces = assemble_rhs(*args, work)
            want_rhs, want = assemble_rhs(*args, one)
            assert lane_pair(work) == (len(work.lanes) == 2), case
            assert np.array_equal(bits(rhs), bits(want_rhs)), f"{case} rhs"
            for name in ("central", "diss", "visc", "net", "cells"):
                assert np.array_equal(bits(getattr(faces, name)),
                                      bits(getattr(want, name))), \
                    f"{case} {name}"


def lane_pair(work):
    """Whether the workspace's held calls run its two lanes as a pair."""
    return any(f is spatial._lanes for f, _ in work.calls)


# one lane of four windows of 8,192 faces: an end, two in the middle and an
# end; and two lanes of three windows, of 6,666, 6,667 and 6,667 faces and
# of 6,667 each
RELOCATED = {4 * WINDOW - 1: (1, [4]), 40_000: (2, [3, 3])}


def window_calls(work, key):
    """(window, its bound calls in work's held calls, the calls of its
    recording afresh bound to its lane's scratch) of each window."""
    paired = lane_pair(work)
    calls = work.calls
    at = len(record(work._open, *key).bind(work.scratch))
    for i, lane in enumerate(work.lanes):
        if paired:  # each lane's calls start with its open()
            calls, at = work.calls[0][1][i], 1
        for win in lane.windows:
            fresh = record(work._faces, [win], *key).bind(lane.scratch)
            yield win, calls[at:at + len(fresh)], fresh
            at += len(fresh)


def entries(calls):
    """Each bound entry of calls, and of the calls bound in a kernel's
    work, as its callable, a partial's keywords, its operands, each array
    by its address, shape, strides and dtype, and for each of its arrays
    (the target of a copy, the keywords, the operands, a work's out) the
    index of the first that is the same object."""
    def layout(x):
        if isinstance(x, np.ndarray):
            return (x.__array_interface__["data"][0], x.shape, x.strides,
                    x.dtype)
        if isinstance(x, tuple) and x and isinstance(x[-1], list):
            return layout(x[0]), entries(x[1])
        return x

    out = []
    for f, a in calls:
        kw = f.keywords if isinstance(f, functools.partial) else {}
        f = f.func if isinstance(f, functools.partial) else f
        target = getattr(f, "__self__", None)
        if isinstance(target, np.ndarray):  # a copy
            f = "__setitem__", layout(target)
        arrays = [x for x in (target, *kw.values(), *a,
                              *(x[0] for x in a if isinstance(x, tuple)))
                  if isinstance(x, np.ndarray)]
        out.append((f, {k: layout(v) for k, v in kw.items()},
                    [layout(x) for x in a],
                    [next(i for i, y in enumerate(arrays) if y is x)
                     for x in arrays]))
    return out


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("name", ["ns_shock_structure_n200_d4", "sod",
                                  "sod_viscous", "stationary_shock_m4"])
def test_relocated_windows_equal_fresh_recordings(name, periodic,
                                                  monkeypatch):
    # a window that is not the first of its lane and kind replays the
    # recording of that first one, bound at its own place: its calls equal
    # entry by entry those of its own recording bound to its lane's
    # scratch, in callables, arrays, records and shared operands
    config = preset(name)
    bcs = BOUNDARIES["periodic"] if periodic else config.bcs
    for n, (cpus, windows) in RELOCATED.items():
        monkeypatch.setattr(spatial, "_cpus", lambda cpus=cpus: cpus)
        key = replace(config.grid, n_cells=n), config.gas, config.flux_kind, bcs
        work = _StageWork(n, config.recon, config.diss, config.gas.is_viscous)
        try:
            work.bind(*key)
            assert [len(lane.windows) for lane in work.lanes] == windows
            # each lane relocates a window, one that holds no grid end
            for lane in work.lanes:
                inner = [w.faces.stop - w.faces.start for w in lane.windows
                         if w.faces.start > 0 and w.faces.stop < n + 1]
                assert len(inner) > len(set(inner))
            for win, got, want in window_calls(work, key):
                case = f"{n} cells, faces from {win.faces.start}"
                assert len(got) == len(want), case
                for k, (g, w) in enumerate(zip(entries(got), entries(want))):
                    assert g == w, f"{case}: entry {k}"
        finally:
            work.close()


def test_invalid_cell_in_last_window_reported_by_global_index():
    n = MULTI_N[0]
    config = replace(preset("sod"), grid=Grid1D(n))
    prim = cons_to_prim(initial_state(config), config.gas)
    bad = n - 3
    prim = PrimState(prim.rho, prim.u,
                     np.where(np.arange(n) == bad, -1.0, prim.p))
    work = _StageWork(n, config.recon, config.diss, False)
    with pytest.raises(InvalidStateError, match=f"in cell {bad}: "):
        assemble_rhs(prim_to_cons(prim, config.gas), config.grid,
                     config.gas, config.flux_kind, config.diss,
                     config.recon, config.bcs, work)


# -- two lanes ----------------------------------------------------------------


def lane_sod(cpus, monkeypatch):
    """sod on LANE_N cells, a held workspace of its stage built while
    _cpus reads cpus, and a cell in the middle of its second lane's faces
    (of its second half, in one lane)."""
    monkeypatch.setattr(spatial, "_cpus", lambda: cpus)
    config = replace(_SOD, grid=Grid1D(LANE_N))
    work = _StageWork(LANE_N, config.recon, config.diss, False)
    half = -(-len(work.windows) // 2)
    cell = (work.windows[half].faces.start + LANE_N) // 2
    return config, work, cell


def stage_args(config, work, w):
    return (w, config.grid, config.gas, config.flux_kind, config.diss,
            config.recon, config.bcs, work)


def beta_underflow(config, cell):
    """config's initial state with a valid cell whose beta = rho / (2 p)
    underflows to 0, so log_mean raises on its faces' pairs: rho = 1e-200
    and p = 1e125 make beta 5e-326, and no call of the stage overflows
    before log_mean."""
    rho, u, p = cons_to_prim(initial_state(config), config.gas)
    rho[cell], p[cell] = 1e-200, 1e125
    return prim_to_cons(PrimState(rho, u, p), config.gas)


def raised(call):
    """The type and the message of the exception call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def assert_lane_process(running):
    """This process has a child running and none exited (the held
    workspace's lane process) if running, and no child otherwise."""
    if running:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)
    else:
        assert_no_children()


def test_lane_error_raised_once_both_lanes_stop(monkeypatch):
    # a cell that makes log_mean raise in the second lane: the two-lane
    # stage raises what the one-lane stage raises, on the caller, after
    # both lanes stopped, and leaves no thread behind and its lane
    # process running, as after a return; the caller's np.errstate holds
    # in the lane process; the march stops at the same step, and it and
    # the closed workspace leave no process behind
    seen = []
    for cpus in (1, 2):
        config, work, cell = lane_sod(cpus, monkeypatch)
        good = initial_state(config)
        bad = beta_underflow(config, cell)
        threads = threading.active_count()
        assemble_rhs(*stage_args(config, work, good))
        assert lane_pair(work) == (cpus == 2)
        assert threading.active_count() == threads
        assert_lane_process(cpus == 2)
        errors = [raised(lambda: assemble_rhs(*stage_args(config, work,
                                                           bad)))]
        assert threading.active_count() == threads
        assert_lane_process(cpus == 2)
        with np.errstate(under="raise"):
            errors.append(raised(lambda: assemble_rhs(
                *stage_args(config, work, bad))))
        assert threading.active_count() == threads
        assert_lane_process(cpus == 2)
        *_, last = march(replace(config, time=replace(config.time,
                                                      max_steps=3)), bad)
        seen.append((errors, last.reason, last.step, str(last.error)))
        assert threading.active_count() == threads
        work.close()
        assert_no_children()
    assert seen[0] == seen[1]
    errors, reason, step, message = seen[0]
    assert errors == [(ValueError, "log_mean requires strictly positive "
                                   "arguments"),
                      (FloatingPointError, "underflow encountered in divide")]
    assert (reason, step) == ("invalid_state", 0)
    assert message == "stage 1: " + errors[0][1]


def test_errors_in_both_lanes_raised_once(monkeypatch):
    # log_mean raises in both lanes: the call raises the first lane's
    # error once the second lane has stopped and sent its own, so the next
    # call, on a valid state, runs both lanes afresh and gives the
    # one-lane result
    results = []
    for cpus in (1, 2):
        config, work, cell = lane_sod(cpus, monkeypatch)
        bad = beta_underflow(config, cell)
        bad[:, work.windows[0].faces.stop // 2] = bad[:, cell]
        with pytest.raises(ValueError, match="log_mean requires"):
            assemble_rhs(*stage_args(config, work, bad))
        rhs, _ = assemble_rhs(*stage_args(config, work, perturbed(config)))
        results.append(bits(rhs))
        work.close()
    assert np.array_equal(*results)


@pytest.mark.parametrize("n", [LANE_N, 2 * LANE_N + 1])
def test_invalid_cell_about_the_lane_cut(n, monkeypatch):
    # one invalid cell (p = -1, or rho = NaN) in a cell that both lanes
    # form about their cut, at either grid end (under periodic boundaries
    # the other lane's ghosts too) or deep in either lane: two lanes raise
    # the message one lane raises, naming that cell, a two-lane march ends
    # on it at step 0, and no process but the held lane process is left.
    # Of two bad cells, the lower invalid one is named, whichever lane
    # forms it, and before the other lane's log_mean error (beta_underflow)
    base = replace(_SOD, grid=Grid1D(n),
                   time=replace(_SOD.time, max_steps=3))
    prim = cons_to_prim(initial_state(base), base.gas)
    for bc in sorted(MULTI_BOUNDARIES):
        config = replace(base, bcs=MULTI_BOUNDARIES[bc])
        works = []
        for cpus in (1, 2):
            monkeypatch.setattr(spatial, "_cpus", lambda cpus=cpus: cpus)
            works.append(_StageWork(n, config.recon, config.diss, False))
        cut = works[1].cut
        assert len(works[1].lanes) == 2 and 0 < cut < n
        deep = (cut // 2, (cut + n) // 2)
        # (the cell named, {cell: its (rho, p), None where unchanged})
        cases = [(cell, {cell: bad})
                 for cell in (cut - 2, cut - 1, cut, 0, n - 1) + deep
                 for bad in ((None, -1.0), (np.nan, None))]
        cases += [(deep[1], {n - 1: (None, -1.0), deep[1]: (None, -1.0)}),
                  (deep[1], {deep[0]: (1e-200, 1e125),
                             deep[1]: (None, -1.0)})]
        for cell, bad in cases:
            case = f"{bc} {bad}"
            rows = [prim.rho.copy(), prim.u, prim.p.copy()]
            for k, values in bad.items():
                for row, value in zip(rows[::2], values):
                    if value is not None:
                        row[k] = value
            w = prim_to_cons(PrimState(*rows), config.gas)
            errors = [raised(lambda work=work: assemble_rhs(
                *stage_args(config, work, w))) for work in works]
            assert lane_pair(works[1]), case
            assert errors[0] == errors[1], case
            kind, message = errors[0]
            assert kind is InvalidStateError, case
            assert message.startswith(f"invalid state in cell {cell}: "), case
            *_, last = march(config, w)
            assert (last.reason, last.step, str(last.error)) == (
                "invalid_state", 0, "stage 1: " + message), case
            assert_lane_process(True)
        for work in works:
            work.close()
        assert_no_children()


def test_wrapped_kernel_keeps_one_lane(monkeypatch):
    # a wrapper with __wrapped__ (functools.wraps: perfbench's tracer, a
    # test spy) on log_mean or on another kernel the stage binds runs in
    # the caller's process alone; a spy without it sees the second lane
    # run in another process, the lane process, so it counts its calls in
    # shared memory
    caller = os.getpid()
    for target in ("log_mean", "kepec", None):
        config, work, _ = lane_sod(2, monkeypatch)
        # the pid and the spy's call count of the caller (row 0) and of
        # any other process (row 1)
        seen = np.frombuffer(mmap.mmap(-1, 32), np.int64).reshape(2, 2)
        real = (CENTRAL_FLUXES["kepec"] if target == "kepec"
                else thermo.log_mean)

        def spy(*args, real=real, seen=seen):
            row = seen[int(os.getpid() != caller)]
            row[0] = os.getpid()
            row[1] += 1
            return real(*args)

        with monkeypatch.context() as patch:
            if target == "kepec":
                patch.setitem(CENTRAL_FLUXES, "kepec",
                              functools.wraps(real)(spy))
            else:
                patch.setattr(thermo, "log_mean",
                              functools.wraps(real)(spy) if target else spy)
            assemble_rhs(*stage_args(config, work, initial_state(config)))
        work.close()
        pids = [pid for pid, count in seen.tolist() for _ in range(count)]
        assert len(pids) == len(work.windows), target
        if target:
            assert set(pids) == {caller}, target
        else:
            assert lane_pair(work) and len(set(pids)) == 2
            assert pids.count(caller) == len(work.lanes[0].windows)
        assert lane_pair(work) == (target is None), target


def perturbed(config):
    """config's initial state, perturbed by a seeded relative 1e-3."""
    w = initial_state(config)
    return w * (1.0 + 1e-3 * np.random.default_rng(5).uniform(-1, 1, w.shape))


def test_failed_fork_replays_both_lanes_here(monkeypatch):
    # a two-lane workspace whose lane process cannot be forked replays
    # both lanes on the caller, bitwise as one lane and as the lane
    # process do, and leaves no process behind
    results = []
    for cpus, fork in ((1, True), (2, True), (2, False)):
        config, work, _ = lane_sod(cpus, monkeypatch)
        if not fork:
            def no_fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        rhs, faces = assemble_rhs(*stage_args(config, work, perturbed(config)))
        assert len(work.lanes) == cpus
        assert lane_pair(work) == (cpus == 2 and fork)
        results.append([bits(rhs)] + [bits(getattr(faces, name)) for name in
                                      ("central", "diss", "visc", "net",
                                       "cells")])
        work.close()
        assert_no_children()
    for got in results[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(got, results[0]))


def test_killed_lane_process_raised_then_replayed_here(monkeypatch):
    # a lane process that dies between calls: the next call reaps it and
    # raises its exit status, and the calls after it replay both lanes on
    # the caller, bitwise as before
    config, work, _ = lane_sod(2, monkeypatch)
    args = stage_args(config, work, perturbed(config))
    want = bits(assemble_rhs(*args)[0])
    pid = next(a[-1].pid for f, a in work.calls if f is spatial._lanes)
    os.kill(pid, signal.SIGKILL)
    # wait until it is dead, leaving it to be reaped
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    message = f"the stage lane process ended (status {-signal.SIGKILL})"
    with pytest.raises(RuntimeError, match=re.escape(message)):
        assemble_rhs(*args)
    assert_no_children()
    assert np.array_equal(bits(assemble_rhs(*args)[0]), want)


class TwoArgs(Exception):
    """An exception that pickles but cannot be rebuilt from its args."""

    def __init__(self, where, what):
        super().__init__(f"{what} {where}")


def test_lane_error_that_does_not_pickle_named(monkeypatch):
    # an exception of the lane process that cannot be pickled (a local
    # class), or cannot be unpickled, reaches the caller as a RuntimeError
    # naming its type and message
    class Local(Exception):
        pass

    caller, real = os.getpid(), thermo.log_mean
    for error in (Local("failed in the lane process"),
                  TwoArgs("the lane process", "failed in")):
        def failing(*args, error=error):
            if os.getpid() != caller:
                raise error
            return real(*args)

        monkeypatch.setattr(thermo, "log_mean", failing)
        config, work, _ = lane_sod(2, monkeypatch)
        name = type(error).__name__
        with pytest.raises(RuntimeError, match=f"^{name}: failed in the "
                                               "lane process$"):
            assemble_rhs(*stage_args(config, work, initial_state(config)))
        assert lane_pair(work)
        work.close()
        assert_no_children()


@pytest.mark.parametrize("end", ["max_steps", "invalid_state", "close"])
def test_march_leaves_no_lane_process(end, monkeypatch):
    # a march of LANE_N cells in two lanes stops its lane process however
    # it ends: it returns, ends on an invalid state, or is closed early
    config, _, cell = lane_sod(2, monkeypatch)
    config = replace(config, time=replace(config.time, max_steps=2))
    states = march(config, beta_underflow(config, cell)
                   if end == "invalid_state" else initial_state(config))
    first = next(states)
    assert_lane_process(True)
    if end == "close":
        states.close()
    else:
        *_, last = [first, *states]
        assert last.reason == end
    assert_no_children()


# -- what a held stage allocates ------------------------------------------------

HELD_N = 10_000
_SOD, _SHOCK = preset("sod"), preset("stationary_shock_m4")
HELD_CONFIGS = {
    "sod": _SOD,
    "stationary_shock_m4 ec1": replace(
        _SHOCK, diss=replace(_SHOCK.diss, matrix_law="ec1")),
    "stationary_shock_m4 hyb": replace(
        _SHOCK, diss=replace(_SHOCK.diss, matrix_law="hyb")),
    "ns_shock_structure_n200_d4": preset("ns_shock_structure_n200_d4"),
    "sod kepec_ac periodic": replace(_SOD, flux_kind="kepec_ac",
                                     bcs=BOUNDARIES["periodic"]),
}


@pytest.mark.parametrize("name", sorted(HELD_CONFIGS))
def test_held_stage_allocates_no_face_row(name, monkeypatch):
    # after one warm call, a held stage of several windows writes into its
    # workspace alone: its traced peak stays below one face row of float64.
    # It runs in one lane, since tracemalloc sees no lane process.
    monkeypatch.setattr(spatial, "_cpus", lambda: 1)
    for n in (HELD_N,) + MULTI_N:
        config = HELD_CONFIGS[name]
        config = replace(config, grid=replace(config.grid, n_cells=n))
        w = initial_state(config)
        r = np.random.default_rng(3).uniform(-1, 1, w.shape)
        w = w * (1.0 + 1e-3 * r)
        work = _StageWork(n, config.recon, config.diss,
                          config.gas.is_viscous)
        assert len(work.windows) > 1
        args = (w, config.grid, config.gas, config.flux_kind, config.diss,
                config.recon, config.bcs, work)
        assemble_rhs(*args)
        tracemalloc.start()
        try:
            assemble_rhs(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n + 1), (n, peak)


def bound_size(config, n):
    """The record and scratch lengths of a workspace of config's stage on
    n cells, once it has recorded its calls."""
    work = _StageWork(n, config.recon, config.diss, config.gas.is_viscous)
    work.bind(replace(config.grid, n_cells=n), config.gas, config.flux_kind,
              config.bcs)
    return work.size


@pytest.mark.parametrize("name", sorted(HELD_CONFIGS))
def test_workspace_size_stops_growing_at_one_window(name):
    # the record buffer of a grid of several windows is sized for one
    # window of WINDOW faces, whatever n, and its scratch is exactly that
    # of a one-window grid as wide as its widest window: the recorded
    # lists differ only in the JST end rule, a copy that takes no scratch
    config = HELD_CONFIGS[name]
    records = bound_size(config, WINDOW - 1)[0]
    for n in (2 * WINDOW, 100_000):
        # the widest of the balanced windows of each lane (of one, or of
        # two halves cut by faces)
        lanes = _StageWork(n, config.recon, config.diss,
                           config.gas.is_viscous).lanes
        widest = max(-(-faces // -(-faces // WINDOW)) for faces in
                     (lane.faces.stop - lane.faces.start for lane in lanes))
        assert bound_size(config, n) == (
            records, bound_size(config, widest - 1)[1]), n
    assert all(a < b for a, b in zip(bound_size(config, WINDOW // 2),
                                     bound_size(config, WINDOW - 1)))


@pytest.mark.parametrize("name", sorted(HELD_CONFIGS))
def test_dropped_workspace_freed_at_once(name, monkeypatch):
    # nothing a recorded stage leaves behind refers back to itself, so a
    # dropped workspace's buffers go at once, not at a later cycle
    # collection: a process that marches again and again (perfbench)
    # would otherwise hold stale workspaces, its peak RSS growing run by
    # run.  The workspace of LANE_N cells has two lanes, each with its
    # records and scratch, and has run once.
    config = HELD_CONFIGS[name]
    monkeypatch.setattr(spatial, "_cpus", lambda: 2)
    gc.disable()
    try:
        for n in (WINDOW, LANE_N):
            grid = replace(config.grid, n_cells=n)
            work = _StageWork(n, config.recon, config.diss,
                              config.gas.is_viscous)
            work.bind(grid, config.gas, config.flux_kind, config.bcs)
            if n == LANE_N:
                assert lane_pair(work)
                assemble_rhs(initial_state(replace(config, grid=grid)), grid,
                             config.gas, config.flux_kind, config.diss,
                             config.recon, config.bcs, work)
            held = [weakref.ref(a) for a in (work.scratch, work.records,
                                             work.block)]
            held += [weakref.ref(a) for lane in work.lanes
                     for a in (lane.scratch, lane.records)]
            del work
            assert [ref() for ref in held] == [None] * len(held), n
    finally:
        gc.enable()


# The scratch lengths of the hand-placed call lists that the recorded
# lists replaced, at 24 cells and in one window of WINDOW faces
HAND_PLACED_SCRATCH = {
    "ns_shock_structure_n200_d4": (368, 114_706),
    "sod": (375, 122_880),
    "sod kepec_ac periodic": (375, 122_880),
    "stationary_shock_m4 ec1": (384, 122_889),
    "stationary_shock_m4 hyb": (375, 122_880),
}


@pytest.mark.parametrize("name", sorted(HELD_CONFIGS))
def test_scratch_no_longer_than_hand_placed(name):
    # the recorder's placement (in place where an operand dies, else the
    # lowest free slot) keeps the held stage's working set within the
    # hand-placed one: a placement that took a fresh slot per result
    # would grow it unnoticed
    config = HELD_CONFIGS[name]
    for n, hand in zip((24, WINDOW - 1), HAND_PLACED_SCRATCH[name]):
        assert bound_size(config, n)[1] <= hand, n
