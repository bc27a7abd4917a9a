"""Semi-discrete residual assembly on a uniform 1-D grid.

assemble_rhs evaluates du_j/dt = -(F_{j+1/2} - F_{j-1/2})/dx
+ (G_{j+1/2} - G_{j-1/2})/dx with F a central flux plus optional scalar or
matrix dissipation and G the viscous flux.  Two ghost cells per side feed
the reconstruction and the four-point scalar-dissipation stencil.  The
state is the stacked (3, n) array of the rows rho, m, E, and rhs comes back
in that form.  Inside, the cells and their ghosts are one (5, n + 4) cell
block of the rows rho, beta, u, u^2, p.  The faces run in windows of at
most WINDOW faces, each with the FaceMeans record of its face pairs as
the pair input of its kernels, whose fluxes go to the window's columns
of stacked (3, n + 1) arrays.  All of it lives in a stage workspace
(_StageWork) that the march holds and every call refills, by replaying
the calls recorded once from the kernels' formula code (kepes.record); a
one-shot call runs that code at once.  A held stage of at least LANES
cells, given a second CPU, replays half its windows in a forked lane
process (_LaneChild) that writes the cell block and the fluxes in a
shared mmap, bitwise as in one lane.  The net flux F - G is formed once,
and a shock_outflow boundary writes its last face there alone.  FaceData
returns the per-face quantities of the budget diagnostics, derived only
when read.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import thermo
from .dissipation import (DissipationSpec, _jst, _matrix, jst_dissipation,
                          matrix_dissipation)
from .fluxes import CENTRAL_FLUXES, FORMULAS
from .reconstruction import ReconSpec, _reconstruct, reconstruct_face
from .record import call, const, empty, record, run, wrap
from .thermo import (
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    _check_states,
    _fields,
    _log_mean,
    _means,
    _temperature,
    temperature,
)

__all__ = [
    "Grid1D",
    "BoundaryCondition",
    "BoundarySpec",
    "FaceData",
    "viscous_face_flux",
    "apply_boundary",
    "assemble_rhs",
]

BC_KINDS = ("transmissive", "fixed_state", "periodic", "shock_outflow")


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n_cells finite volumes on [x_min, x_max]."""

    n_cells: int
    x_min: float = 0.0
    x_max: float = 1.0

    def __post_init__(self):
        if self.n_cells < 4:
            raise ValueError("n_cells must be at least 4")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not 0.0 < self.dx < np.inf:
            raise ValueError("x_min, x_max: the cell width (x_max - x_min) / "
                             "n_cells must be finite and > 0")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


@dataclass(frozen=True)
class BoundaryCondition:
    """One side of the domain.

    kind: transmissive (zeroth-order extrapolation), fixed_state (Dirichlet
    ghost state), periodic, or shock_outflow (right side only: prescribed
    boundary mass flux, zero-gradient momentum and energy fluxes).
    """

    kind: str = "transmissive"
    state: PrimState | None = None
    mass_flux: float | None = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "fixed_state" and self.state is None:
            raise ValueError("fixed_state boundary needs a state")
        if self.kind == "fixed_state":
            _check_states(boundary=self.state)
        if self.kind == "shock_outflow" and self.mass_flux is None:
            raise ValueError("shock_outflow boundary needs a mass_flux")
        if self.mass_flux is not None and not np.isfinite(self.mass_flux):
            raise ValueError("mass_flux must be finite")

    @cached_property
    def ghost(self) -> np.ndarray:
        """The (rho, u, p) column of a fixed_state side's ghost cells."""
        return np.array(self.state)[:, None]


@dataclass(frozen=True)
class BoundarySpec:
    left: BoundaryCondition = BoundaryCondition()
    right: BoundaryCondition = BoundaryCondition()

    def __post_init__(self):
        if (self.left.kind == "periodic") != (self.right.kind == "periodic"):
            raise ValueError("periodic must be set on both sides or neither")
        if self.left.kind == "shock_outflow":
            raise ValueError("shock_outflow is a right-boundary condition")

    @property
    def is_periodic(self) -> bool:
        return self.left.kind == "periodic"


@dataclass
class FaceData:
    """Per-face record backing the budget diagnostics.

    central, diss and visc are the central, dissipative and viscous fluxes
    as stacked (3, n_faces) arrays, each its kernel's output at every face,
    and net is the stage's net flux F - G, the boundary-flux step of a
    shock_outflow face included.  Arrays have one entry per face
    (n_cells + 1; under periodic boundaries face n_cells duplicates face
    0).  sides is the stacked (rho, u, p) rows of the n + 2 cells behind
    the faces, so face k lies between its columns k and k + 1, the views
    left and right.  du, u_bar and dpsi are built from those adjacent
    cell values, which is what the summation-by-parts budget identities
    require (the entropy-variable jumps come from one entropy_vars pass
    over sides, as diagnostics.budget_report makes it).  They and p_tilde
    are computed on first read, so marching never pays for them.  The
    four fluxes and sides are arrays of the stage's workspace, which the
    march holds: they are valid until the caller resumes the march, whose
    next stage overwrites them.
    """

    central: np.ndarray
    diss: np.ndarray
    visc: np.ndarray
    net: np.ndarray
    sides: np.ndarray
    gas: GasModel
    periodic: bool

    @property
    def left(self) -> np.ndarray:
        return self.sides[:, :-1]

    @property
    def right(self) -> np.ndarray:
        return self.sides[:, 1:]

    @property
    def cells(self) -> np.ndarray:
        """The (rho, u, p) rows of the n cells, (3, n): a view of the rows
        the stage formed."""
        return self.sides[:, 1:-1]

    @cached_property
    def u_bar(self) -> np.ndarray:
        return 0.5 * (self.left[1] + self.right[1])

    @cached_property
    def du(self) -> np.ndarray:
        return self.right[1] - self.left[1]

    @cached_property
    def dpsi(self) -> np.ndarray:
        return self.right[0] * self.right[1] - self.left[0] * self.left[1]

    @cached_property
    def p_tilde(self) -> np.ndarray:
        return self.central[1] - self.u_bar * self.central[0]


def _viscous(m: FaceMeans, gas: GasModel, dx, out=None):
    """viscous_face_flux's formula, into out (new unless given)."""
    out = empty(3, *m.shape) if out is None else out
    cells = m._cells
    t_l, t_r = m._side_views(call(temperature, _temperature, cells, gas,
                                  empty(*cells.shape[1:])))
    t_face = 0.5 * (t_l + t_r)
    mu = gas.viscosity(t_face)
    # q = -kappa (t_r - t_l) / dx
    q = -gas.conductivity(t_face, mu) * (t_r - t_l) / dx
    out[0] = 0.0
    out[1] = 4.0 / 3.0 * mu * (m.right[1] - m.left[1]) / dx
    out[2] = m.u_bar * out[1] - q
    return out


def viscous_face_flux(m: FaceMeans, gas: GasModel, dx: float,
                      work=None) -> np.ndarray:
    """Stacked viscous flux (0, tau, u_bar tau - q) of the adjacent cell
    states of the record m.

    tau = (4/3) mu du/dx and q = -kappa dT/dx with mu, kappa evaluated at
    the arithmetic-mean face temperature.  dx is a float or, as the stage
    passes it, a 0-d array.  work is as record.run takes it.
    """
    return run(work, _viscous, m, gas, dx)


def _fill_ghosts(rows, bcs: BoundarySpec, out=None):
    """apply_boundary's formula: the copies into the two ghost cells of
    each side of rows (which out, when given, is)."""
    if bcs.is_periodic:
        rows[:, :2] = rows[:, -4:-2]
        rows[:, -2:] = rows[:, 2:4]
    else:
        rows[:, :2] = _ghost(bcs.left, rows[:, 2:3])
        rows[:, -2:] = _ghost(bcs.right, rows[:, -3:-2])


def apply_boundary(rows: np.ndarray, bcs: BoundarySpec,
                   work=None) -> np.ndarray:
    """Fill, in place, the two ghost cells per side of rows, the (3, n + 4)
    (rho, u, p) rows whose columns 2 .. n + 1 hold n cells; returns
    rows.  work is as record.run takes it."""
    run(work, _fill_ghosts, rows, bcs)
    return rows


def _ghost(bc: BoundaryCondition, edge):
    # fixed_state holds its state; the other kinds copy the edge cell
    return bc.ghost if bc.kind == "fixed_state" else edge


# The stage runs its face kernels over windows of at most WINDOW faces,
# whose records and temporaries take a few MB where a whole large grid's
# take tens: at 10^5 cells a sod RHS costs 79 ns/cell in windows and 105
# in one.  See README, "How the RHS is assembled", for the sweep that
# chose it.
WINDOW = 8192
# A workspace of at least LANES cells, given a second CPU, runs its windows
# in two lanes (_lanes).  A held sod RHS took 0.71 ms in two lanes against
# 1.20 in one at 10^4 cells and 7.59 against 12.62 at 10^5, two lanes
# winning every pair from 10^4 up (README, "Stage lanes").
LANES = 10_000
_HALF = const(0.5)


def _cpus() -> int:
    """The number of CPUs this process may run on, 1 where the platform
    cannot say."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else 1)


def _spare_cpu() -> bool:
    """Whether os.fork exists and this process may use two CPUs: the stage
    lanes and the writer child's fork ask it."""
    return hasattr(os, "fork") and _cpus() > 1


def _replay(calls):
    for f, a in calls:
        f(*a)


class _LaneChild:
    """A process forked to replay the bound calls of a workspace's second
    lane, which write its shared mmap and its copy of their records and
    scratch.  For each command, the caller's np.geterr() pickled, it
    replays them under that errstate and sends its status, pickled: None,
    the exception they raised, or a RuntimeError naming one that does not
    survive pickling.  It ignores SIGINT and leaves through os._exit, on
    the stop message (None) or once the command pipe ends."""

    def __init__(self, calls):
        (cmd_r, self.commands), (st_r, st_w) = os.pipe(), os.pipe()
        self.parent = os.getpid()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (cmd_r, self.commands, st_r, st_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                # imported here: signal's enums take ~1 ms to import
                import signal
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(self.commands)
                cmds, out = open(cmd_r, "rb"), open(st_w, "wb")
                while (err := pickle.load(cmds)) is not None:
                    exc = None
                    with np.errstate(**err):
                        try:
                            _replay(calls)
                        except Exception as raised:
                            exc = raised
                    try:
                        pickle.loads(data := pickle.dumps(exc))
                    except Exception:
                        data = pickle.dumps(RuntimeError(
                            f"{type(exc).__name__}: {exc}"))
                    out.write(data)
                    out.flush()
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(st_w)
        self.status = open(st_r, "rb")

    def wait(self):
        """The status of the command sent; a RuntimeError naming the exit
        status of a child that has gone."""
        try:
            return pickle.load(self.status)
        except (EOFError, pickle.UnpicklingError):
            return RuntimeError("the stage lane process ended (status "
                                f"{self.stop()})")

    def stop(self):
        """In the process that forked it, send the child the stop message
        (a later fork, the writer child, holds the command pipe open too)
        and reap it; its exit code, None if it was not running."""
        if self.pid is None or os.getpid() != self.parent:
            return None
        pid, self.pid = self.pid, None
        with contextlib.suppress(BrokenPipeError):  # it has gone
            os.write(self.commands, pickle.dumps(None))
        os.close(self.commands)
        self.status.close()
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _lanes(first, second, child):
    """Replay the bound calls first here while the _LaneChild child
    replays second under this call's np.errstate.  Once both have
    stopped, an exception of either is raised here, first's before
    second's.  Both run here once the child has stopped, or while
    log_mean, which a record looks up at each read, is a wrapper."""
    if child.pid is None or hasattr(thermo.log_mean, "__wrapped__"):
        return _replay(first + second)
    try:
        os.write(child.commands, pickle.dumps(np.geterr()))
    except BrokenPipeError:
        raise child.wait() from None
    try:
        _replay(first)
    finally:
        raised = child.wait()
    if raised is not None:
        raise raised


def _own(calls) -> bool:
    """Whether no callable of the bound calls, or of the calls bound in a
    kernel's work, is a wrapper (__wrapped__)."""
    return not any(hasattr(f, "__wrapped__")
                   or type(a[-1]) is tuple and not _own(a[-1][1])
                   for f, a in calls)


class _StageWork:
    """Every array an RHS stage writes, and the calls it makes, for n
    cells, the reconstruction, the dissipation and whether the gas is
    viscous; the calls are recorded for the key (the grid, gas, central
    flux and boundaries) of the first call with it.

    It owns the (5, n + 4) cell block (rows rho, beta, u, u^2 and p, two
    ghost cells per side), the central, dissipative and viscous fluxes
    (zero without dissipation or viscosity), the net flux and rhs.  The
    windows (_Window) run in one lane (_Lane), or in two from LANES cells
    given os.fork and a second CPU (_spare_cpu), each with a buffer of
    records sized for a window of min(n + 1, WINDOW) faces and a scratch
    (size: both lengths, the first lane's).  run() is the stage after its
    validity check as formula code, run at once by a one-shot stage;
    bind() records it into calls, each public kernel one entry (two lanes
    of kepes's own kernels, _own, one _lanes entry, whose second lane a
    _LaneChild replays until close() or the next bind), and each record's
    log means into its _ln_work.  A kernel forms the log means it reads
    before it writes a temporary, so their temporaries, placed apart,
    share the scratch.
    """

    def __init__(self, n: int, recon: ReconSpec, diss: DissipationSpec,
                 viscous: bool):
        # n + 1 faces in k windows of equal size, give or take a face, so
        # that each window of a larger grid holds more than WINDOW / 2 =
        # 4,096 faces: numpy buffers, and allocates for, a 2-D call on a
        # strided or broadcast operand whose rows are shorter
        k = -(-(n + 1) // WINDOW)
        two = k > 1 and n >= LANES and _spare_cpu()
        # the cell block and the four fluxes, each on rows of its own, in
        # one buffer, for two lanes a shared mmap that the child writes
        size = 5 * (n + 4) + 12 * (n + 1)
        buf = np.frombuffer(mmap.mmap(-1, 8 * size)) if two else np.empty(size)
        self.block = buf[:5 * (n + 4)].reshape(5, n + 4)
        self.central, self.diss, self.visc, self.net = (
            buf[5 * (n + 4):].reshape(4, 3, n + 1))
        self.rows = rows = self.block[::2]
        self.inner = inner = rows[:, 2:-2]
        self.rho_p = inner[::2]
        # face k sits between cells k+1 and k+2 of rows
        self.sides = rows[:, 1:n + 3]
        if diss.kind == "none":
            self.diss[...] = 0.0
        if not viscous:
            self.visc[...] = 0.0
        self.rhs = rhs = np.empty((3, n))
        # rhs is written last: its first row is the prologue's temporary
        self.prim = (inner[0], inner[1], inner[2], rhs[0])
        cuts = [i * (n + 1) // k for i in range(k + 1)]
        # the first lane takes the first half of the windows, the odd one
        # included
        ends = [0, -(-k // 2), k] if two else [0, k]
        self.room = FaceMeans.ROWS * min(n + 1, WINDOW)
        self.lanes = [_Lane(self, cuts[i:j + 1], recon, diss, viscous)
                      for i, j in zip(ends, ends[1:])]
        self.windows = [win for lane in self.lanes for win in lane.windows]
        self.records, self.scratch = self.lanes[0].records, np.empty(0)
        self.recon, self.diss_spec, self.viscous = recon, diss, viscous
        self.key = self.calls = None
        self._stop = None  # the lane process's stop, once one is forked

    def close(self):
        """Stop the lane process, if one runs: the held calls replay both
        lanes here from then on."""
        if self._stop is not None:
            self._stop()

    @property
    def size(self):
        return self.records.size, self.scratch.size

    def bind(self, grid: Grid1D, gas: GasModel, flux_kind: str,
             bcs: BoundarySpec):
        """Record the calls for the key (grid, gas, flux_kind, bcs)."""
        key = grid, gas, flux_kind, bcs
        # the ghosts and the boundary-flux step take no temporary
        head, tail = record(self._open, *key), record(self._close, *key)
        recs = [(lane, record(self._faces, lane.windows, *key),
                 [(m, record(_log_mean, *m._ln_sides, m._ln))
                  for m in lane.means])
                for lane in self.lanes]
        size = max(rec.size for _, stage, lns in recs
                   for rec in (stage, *(rec for _, rec in lns)))
        lists = []
        for lane, stage, lns in recs:
            if lane.scratch.size < size:
                lane.scratch = np.empty(size)
            for m, rec in lns:
                m._ln_work = m._ln, rec.bind(lane.scratch)
            lists.append(stage.bind(lane.scratch))
        self.scratch = self.lanes[0].scratch
        self.close()
        if len(lists) == 2 and _own(lists[0] + lists[1]):
            with contextlib.suppress(OSError):  # no fork: both lanes here
                child = _LaneChild(lists[1])
                # a dropped workspace stops its child too
                self._stop = weakref.finalize(self, child.stop)
                lists = [[(_lanes, (*lists, child))]]
        self.calls = (head.bind(self.scratch) + sum(lists, [])
                      + tail.bind(self.scratch))
        # the prologue's operand
        self.gm1 = const(gas.gamma - 1.0)
        self.key = key

    def run(self, grid: Grid1D, gas: GasModel, flux_kind: str,
            bcs: BoundarySpec):
        """The stage after its validity check, as formula code."""
        self._open(grid, gas, flux_kind, bcs)
        self._faces(self.windows, grid, gas, flux_kind, bcs)
        self._close(grid, gas, flux_kind, bcs)

    def _open(self, grid, gas, flux_kind, bcs):
        if flux_kind not in CENTRAL_FLUXES:
            raise ValueError(f"unknown flux kind {flux_kind!r}")
        cells = wrap(self.rows)
        call(apply_boundary, _fill_ghosts, cells, bcs, cells)

    def _faces(self, windows, grid, gas, flux_kind, bcs):
        recon, diss, viscous = self.recon, self.diss_spec, self.viscous
        n = grid.n_cells
        for win in windows:
            # faces a .. b - 1 read the block columns a .. b + 2: each
            # kernel runs on that view as on a whole grid's block and
            # writes the window's columns of the fluxes
            a, b = win.faces.start, win.faces.stop
            block = wrap(self.block[:, a:b + 3])
            rows = block[::2]
            central, d_flux, g_flux, net_ab = (
                wrap(f[:, a:b]) for f in (self.central, self.diss,
                                          self.visc, self.net))
            pairs, means = wrap(win.cell_means), wrap(win.means)
            if pairs is not None:
                # beta and u^2 once per cell, on the block, then the cell
                # pairs, one view of the block whose side k starts at
                # column a + k + 1
                _fields(*block)
                col, row = self.block.strides[1], self.block.strides[0]
                pairs.pairs[...] = np.ndarray((2, 5, b - a), float,
                                              self.block, (a + 1) * col,
                                              (col, row, col))
                call(FaceMeans._refill, _means, pairs, False, pairs._bar)
            if recon.order == 2:
                # rows rho, u and p of both sides, which reconstruct_face
                # fills
                call(reconstruct_face, _reconstruct, rows, recon,
                     means.pairs[:, ::2])
                call(FaceMeans._refill, _means, means, True, means._bar)
            call(CENTRAL_FLUXES[flux_kind], FORMULAS.get(flux_kind), means,
                 gas, central)
            if diss.kind == "matrix":
                call(matrix_dissipation, _matrix, means, gas, diss, flux_kind,
                     d_flux)
            elif diss.kind == "scalar":
                # the stencil differences the cells, whose pairs are the
                # face pairs only without reconstruction; the cell block's
                # row 1 holds beta.  The boundary faces reuse the nearest
                # interior sensor, in the windows that hold them.
                ends = ((a == 0, b == n + 1) if not bcs.is_periodic
                        else (False, False))
                call(jst_dissipation, _jst, rows, pairs, gas, diss, ends,
                     block[1], d_flux)
            if viscous:
                call(viscous_face_flux, _viscous, pairs, gas, grid.dx,
                     g_flux)
            # net = F - G.  An inviscid G is zero and x - 0 is x, so it is
            # not subtracted.
            np.add(central, d_flux, out=net_ab)
            if viscous:
                net_ab -= g_flux

    def _close(self, grid, gas, flux_kind, bcs):
        net, rhs, n = wrap(self.net), wrap(self.rhs), grid.n_cells
        if bcs.right.kind == "shock_outflow":
            # boundary-flux step: the last face carries the prescribed mass
            # flux and, in momentum and energy, the net flux of the face
            # before it, so the last cell sees zero update in them
            net[0, n:] = bcs.right.mass_flux
            net[1:, n] = net[1:, n - 1]
        # -(net[1:] - net[:-1]) / dx: x / -dx is -(x / dx) bitwise
        np.subtract(net[:, 1:], net[:, :-1], out=rhs)
        rhs /= -grid.dx


class _Lane:
    """The windows of a stage workspace between the cuts, whose records
    (means: each window's, without repeats) share one buffer (records),
    and the scratch of their recorded calls."""

    def __init__(self, work, cuts, recon, diss, viscous):
        cell_pairs = recon.order == 1 or diss.kind == "scalar" or viscous
        self.records = np.empty(work.room * (cell_pairs + (recon.order == 2)))
        self.windows = [_Window(work, a, b, recon, cell_pairs, self.records)
                        for a, b in zip(cuts, cuts[1:])]
        self.means = {m for win in self.windows
                      for m in (win.cell_means, win.means)} - {None}
        self.scratch = np.empty(0)


class _Window:
    """The faces a .. b - 1 (faces) of a stage workspace and their
    records, whose blocks are its lane's records: the cell-pair record
    (cell_means: first order, the scalar stencil, the viscous flux) and
    the face record (means: at order 2 the reconstructed faces', else
    cell_means)."""

    def __init__(self, work, a, b, recon, cell_pairs, records):
        faces = b - a
        self.faces = slice(a, b)
        self.cell_means = None
        if cell_pairs:
            # face k of the window sits between its cells k+1 and k+2
            self.cell_means = FaceMeans._held(
                (faces,), records, work.rows[:, a:b + 3],
                (..., slice(1, faces + 1)), (..., slice(2, faces + 2)))
        self.means = self.cell_means
        if recon.order == 2:
            self.means = FaceMeans._held((faces,),
                                         records[cell_pairs * work.room:])


def assemble_rhs(cells, grid: Grid1D, gas: GasModel, flux_kind: str,
                 diss: DissipationSpec, recon: ReconSpec, bcs: BoundarySpec,
                 work: _StageWork | None = None):
    """Semi-discrete right-hand side and the per-face diagnostic record.

    cells is the stacked (3, n) array of the rows rho, m, E; rhs comes
    back as a (3, n) array.  work is the stage workspace that the march
    holds (a _StageWork of this grid, recon, diss and gas): the call runs
    its calls, recorded again first when the grid, gas, flux or boundaries
    are not those of the last call, and rhs and the returned FaceData's
    arrays are its own, which the next call overwrites (a zero diss or
    visc stays zero).  Without work,
    the call runs the stage's formula code at once in a workspace of its
    own, and nothing it returns is shared.
    """
    held = work is not None
    if not held:
        work = _StageWork(grid.n_cells, recon, diss, gas.is_viscous)
    elif work.key != (grid, gas, flux_kind, bcs):
        work.bind(grid, gas, flux_kind, bcs)
    # the stage writes rho, u and p (cons_to_prim's formula) into the cell
    # block and then the ghosts; the records form beta and u^2
    rho_row, u, p, t = work.prim
    # rows by index: unpacking an array costs ~0.3 us more
    rho, m, E = cells[0], cells[1], cells[2]
    rho_row[...] = rho
    np.divide(m, rho, u)
    np.multiply(_HALF, m, t)
    np.multiply(t, u, t)
    np.subtract(E, t, t)
    np.multiply(work.gm1 if held else gas.gamma - 1.0, t, p)
    # a valid cell is finite with rho > 0 and p > 0.  The min fails on a
    # rho or p that is not > 0 or is NaN, the max on inf or NaN; u = -inf
    # makes p -inf or NaN.  Only a failure looks for the first bad cell.
    # (The ufuncs' reduce is ndarray.min and max without their wrapper.)
    inner = work.inner
    if not (np.minimum.reduce(work.rho_p, None) > 0.0
            and np.maximum.reduce(inner, None) < np.inf):
        valid = np.isfinite(inner).all(axis=0) & (inner[::2] > 0.0).all(axis=0)
        idx = int(np.argmin(valid))
        raise InvalidStateError(
            f"invalid state in cell {idx}: rho={inner[0, idx]:.6g}, "
            f"p={inner[2, idx]:.6g}")
    if held:
        for f, a in work.calls:
            f(*a)
    else:
        work.run(grid, gas, flux_kind, bcs)
    faces = FaceData(work.central, work.diss, work.visc, work.net,
                     work.sides, gas, bcs.is_periodic)
    return work.rhs, faces
