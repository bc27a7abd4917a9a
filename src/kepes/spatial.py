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
the calls recorded once from the kernels' formula code (kepes.record),
one window per lane and width, bound at each window of that width; a
one-shot call runs that code at once.  A held stage of at least LANES
cells, given a second CPU, runs two halves of its faces as two lanes,
the second in a forked lane process (_LaneChild), in a shared mmap:
each lane forms and checks its cells and the halo its windows read,
fills the ghosts of its end, runs its windows and writes the rhs of its
cells, bitwise as in one lane.  The net flux F - G is formed once, and
a shock_outflow boundary writes its last face there alone.  FaceData
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
# A workspace of at least LANES cells, given a second CPU, runs its faces
# in two lanes (_lanes).  A held sod RHS took 0.96 ms in two lanes against
# 1.51 in one at 10^4 cells and 7.55 against 14.71 at 10^5, two lanes
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


def _caught(calls):
    """Replay the bound calls; the exception they raised, else None."""
    try:
        for f, a in calls:
            f(*a)
    except Exception as raised:
        return raised
    return None


def _to_prim(w, rho, u, p, t, gm1):
    """cons_to_prim's formula: the rows rho, u and p of the conserved
    (3, m) cells w, the row t taking the temporary."""
    # rows by index: unpacking an array costs ~0.3 us more
    r, m = w[0], w[1]
    rho[...] = r
    np.divide(m, r, u)
    np.multiply(_HALF, m, t)
    np.multiply(t, u, t)
    np.subtract(w[2], t, t)
    np.multiply(gm1, t, p)


def _check(inner, rho_p, first=0):
    """Raise InvalidStateError, its cell set, on the first invalid one of
    the cells first, first + 1, ... whose (rho, u, p) rows are inner
    (rho_p: rows rho and p).  A valid cell is finite with rho > 0 and
    p > 0.  The min fails on a rho or p that is not > 0 or is NaN, the max
    on inf or NaN; u = -inf makes p -inf or NaN.  Only a failure looks for
    the first bad cell.  (The ufuncs' reduce is ndarray.min and max
    without their wrapper.)"""
    if not (np.minimum.reduce(rho_p, None) > 0.0
            and np.maximum.reduce(inner, None) < np.inf):
        valid = np.isfinite(inner).all(axis=0) & (inner[::2] > 0.0).all(axis=0)
        idx = int(np.argmin(valid))
        exc = InvalidStateError(
            f"invalid state in cell {first + idx}: rho={inner[0, idx]:.6g}, "
            f"p={inner[2, idx]:.6g}")
        exc.cell = first + idx
        raise exc


class _LaneChild:
    """A process forked to replay the bound calls of a workspace's second
    lane, which write the workspace's shared mmaps.  For each command, the caller's np.geterr() pickled, it
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
                    with np.errstate(**err):
                        exc = _caught(calls)
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
    replays second under this call's np.errstate; both run here once the
    child has stopped.  Once both have stopped, an exception of either
    is raised here: the invalid state of the lower cell (_check), as one
    lane checks every cell before its first window, else first's."""
    here = child.pid is None
    if not here:
        try:
            os.write(child.commands, pickle.dumps(np.geterr()))
        except BrokenPipeError:
            raise child.wait() from None
    mine = None
    try:
        mine = _caught(first)
    finally:
        theirs = _caught(second) if here else child.wait()
    raised = [exc for exc in (mine, theirs) if exc is not None]
    if raised:
        raise min(raised, key=lambda exc: getattr(exc, "cell", np.inf))


class _StageWork:
    """Every array an RHS stage writes, and the calls it makes, for n
    cells, the reconstruction, the dissipation and whether the gas is
    viscous; the calls are recorded for the key (the grid, gas, central
    flux and boundaries) of the first call with it.

    It owns the (5, n + 4) cell block (rows rho, beta, u, u^2 and p, two
    ghost cells per side), the central, dissipative and viscous fluxes
    (zero without dissipation or viscosity), the net flux and rhs.  Its
    faces run in one lane (_Lane), or in two from LANES cells given
    os.fork and a second CPU (_spare_cpu): the faces before cut and the
    rest, halves give or take a face.  A lane runs its faces in windows
    (_Window), with a buffer of records sized for a window of
    min(n + 1, WINDOW) faces and a scratch (size: both lengths, the first
    lane's).  run() is the stage after its validity check as formula
    code, run at once by a one-shot stage; bind() records it into calls,
    each public kernel one entry.  It records the first window of each
    kind of a lane (its width and, for the JST end rule, the grid ends it
    holds) and binds that recording at each window of the kind (_shift).
    A record forms its log means with its other averages, and only where
    the config reads them (_faces).  Two lanes whose recorded kernels are
    no wrappers run as one _lanes entry, whose second lane a _LaneChild
    replays until close() or the next bind: each lane forms and checks
    its cells (_Lane.open), runs its windows and writes the rhs of the
    cells between two of its faces but cells cut - 2 and cut - 1, whose
    rhs the calls after the entry write.
    """

    def __init__(self, n: int, recon: ReconSpec, diss: DissipationSpec,
                 viscous: bool):
        two = n + 1 > WINDOW and n >= LANES and _spare_cpu()
        # the cell block, the four fluxes and rhs, each on rows of its
        # own, in one buffer, for two lanes with the conserved cells 0 and
        # 1 (head) last, in a shared mmap that the child writes
        self.shared = two
        self.buf = buf = self._new(20 * n + 32 + 6 * two)
        self.block = buf[:5 * (n + 4)].reshape(5, n + 4)
        self.central, self.diss, self.visc, self.net = (
            buf[5 * (n + 4):17 * n + 32].reshape(4, 3, n + 1))
        self.rhs = buf[17 * n + 32:20 * n + 32].reshape(3, n)
        self.head = buf[20 * n + 32:].reshape(3, 2) if two else None
        self.rows = rows = self.block[::2]
        self.inner = inner = rows[:, 2:-2]
        self.rho_p = inner[::2]
        # face k sits between cells k+1 and k+2 of rows
        self.sides = rows[:, 1:n + 3]
        if not two:  # a new mmap reads zero
            if diss.kind == "none":
                self.diss[...] = 0.0
            if not viscous:
                self.visc[...] = 0.0
        # rhs is written last: its first row is the prologue's temporary
        self.prim = (inner[0], inner[1], inner[2], self.rhs[0])
        # the middle face, or the one before it where a lane of WINDOW + 1
        # faces would take two windows of WINDOW / 2
        cut = (n + 1) // 2
        self.cut = cut = cut - (WINDOW + 1 in (cut, n + 1 - cut))
        ends = [0, cut, n + 1] if two else [0, n + 1]
        self.room = FaceMeans.ROWS * min(n + 1, WINDOW)
        self.lanes = [_Lane(self, a, b, recon, diss, viscous)
                      for a, b in zip(ends, ends[1:])]
        self.windows = [win for lane in self.lanes for win in lane.windows]
        self.records, self.scratch = self.lanes[0].records, np.empty(0)
        self.recon, self.diss_spec, self.viscous = recon, diss, viscous
        self.key = self.calls = None
        # the cells that the first of two paired lanes forms (_Lane.open)
        self.given = None
        self._stop = None  # the lane process's stop, once one is forked

    def _new(self, size):
        """A new float array of size; of two lanes, an mmap's, which goes
        back to the system with it (README, "Stage lanes")."""
        return (np.frombuffer(mmap.mmap(-1, 8 * size)) if self.shared
                else np.empty(size))

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
        n, ends = grid.n_cells, (self.diss_spec.kind == "scalar"
                                 and not bcs.is_periodic)

        def kind(i, win):  # lane, width and, for the JST end rule, ends
            a, b = win.faces.start, win.faces.stop
            return i, b - a, ends and (a == 0, b == n + 1)

        # the first window of each kind, and its recorded calls
        stages = {}
        for i, lane in enumerate(self.lanes):
            for win in lane.windows:
                if kind(i, win) not in stages:
                    stages[kind(i, win)] = win, record(self._faces, [win],
                                                       *key)
        # of two lanes, each forms up to n // 2 + 3 cells with a row of its
        # scratch (_Lane.open)
        size = max([(n // 2 + 3) * (len(self.lanes) - 1)]
                   + [stage.size for _, stage in stages.values()])
        lists = []
        for i, lane in enumerate(self.lanes):
            if lane.scratch.size < size:
                lane.scratch = self._new(size)
            lists.append([])
            for win in lane.windows:
                tpl, stage = stages[kind(i, win)]
                lists[i] += stage.bind(lane.scratch, self._shift(tpl, win))
        wrapped = any(stage.wrapped for _, stage in stages.values())
        del stages, stage  # the lane process is forked without them
        self.scratch = self.lanes[0].scratch
        self.close()
        # the prologue's operand
        self.gm1 = const(gas.gamma - 1.0)
        self.given = self.calls = None
        if len(lists) == 2 and not wrapped:
            with contextlib.suppress(OSError):  # no fork: both lanes here
                self.calls = self._pair(lists, key)
        if self.calls is None:
            self.calls = (record(self._open, *key).bind(self.scratch)
                          + sum(lists, []) + self._closed(0, n + 1, key))
        self.key = key

    def _closed(self, a, b, key):
        return record(self._close, a, b, *key).bind(self.scratch)

    def _pair(self, lists, key):
        """The calls of the bound windows of two lanes run as a pair, the
        second by a _LaneChild forked here."""
        cut, n, given = self.cut, key[0].n_cells, [None]
        # the first lane writes the rhs of the cells before cut - 2, the
        # second from cut on, and the calls after both the two between:
        # rhs holds the second lane's cells from cut - 2 on until it has
        # formed them
        first, second = (
            [(lane.open, ())] + calls + self._closed(a, b, key)
            for lane, calls, (a, b) in zip(self.lanes, lists,
                                           ((0, cut - 1), (cut, n + 1))))
        for lane in self.lanes:
            lane.edges(self, key[3], given)
        child = _LaneChild(second)
        # a dropped workspace stops its child too
        self._stop = weakref.finalize(self, child.stop)
        self.given = given
        return ([(_lanes, (first, second, child))]
                + self._closed(cut - 2, cut + 1, key))

    def _shift(self, tpl, win):
        """None for the window tpl itself, else the move (Recorder.bind) of
        tpl's recorded calls to the window win of its lane and kind: an
        array in the buffer, a view of the block or the fluxes, becomes
        the one as many columns on as win starts after tpl, and tpl's
        records win's."""
        if win is tpl:
            return None
        buf = self.buf
        base = buf.__array_interface__["data"][0]
        d = 8 * (win.faces.start - tpl.faces.start)
        objs = {id(tpl.cell_means): win.cell_means, id(tpl.means): win.means}

        def move(x):
            if type(x) is not np.ndarray:
                return objs.get(id(x), x)
            # numpy makes buf the base of each view of it; the address of
            # an array costs ~2 us, and most operands (records) lie outside
            if x.base is not buf:
                return x
            at = x.__array_interface__["data"][0] - base + d
            return np.ndarray(x.shape, x.dtype, buf, at, x.strides)
        return move

    def run(self, grid: Grid1D, gas: GasModel, flux_kind: str,
            bcs: BoundarySpec):
        """The stage after its validity check, as formula code."""
        self._open(grid, gas, flux_kind, bcs)
        self._faces(self.windows, grid, gas, flux_kind, bcs)
        self._close(0, grid.n_cells + 1, grid, gas, flux_kind, bcs)

    def _open(self, grid, gas, flux_kind, bcs):
        cells = wrap(self.rows)
        call(apply_boundary, _fill_ghosts, cells, bcs, cells)

    def _faces(self, windows, grid, gas, flux_kind, bcs):
        if flux_kind not in CENTRAL_FLUXES:
            raise ValueError(f"unknown flux kind {flux_kind!r}")
        recon, diss, viscous = self.recon, self.diss_spec, self.viscous
        n = grid.n_cells
        # the log means each record forms: the face record's for the kepec
        # flux and the matrix dissipation, the cell-pair record's for the
        # scalar form with the logarithmic beta mean; at first order the
        # two are one record
        face_ln = flux_kind == "kepec" or diss.kind == "matrix"
        cell_ln = (diss.kind == "scalar"
                   and diss.beta_average == "logarithmic")
        if recon.order == 1:
            face_ln = cell_ln = face_ln or cell_ln
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
                call(FaceMeans._refill, _means, pairs, False, cell_ln,
                     pairs._bar)
            if recon.order == 2:
                # rows rho, u and p of both sides, which reconstruct_face
                # fills
                call(reconstruct_face, _reconstruct, rows, recon,
                     means.pairs[:, ::2])
                call(FaceMeans._refill, _means, means, True, face_ln,
                     means._bar)
            call(CENTRAL_FLUXES[flux_kind], FORMULAS[flux_kind], means, gas,
                 central)
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

    def _close(self, a, b, grid, gas, flux_kind, bcs):
        # the rhs of the cells between two of the faces a .. b - 1
        net, n = wrap(self.net), grid.n_cells
        rhs = wrap(self.rhs)[:, a:b - 1]
        if b == n + 1 and bcs.right.kind == "shock_outflow":
            # boundary-flux step: the last face carries the prescribed mass
            # flux and, in momentum and energy, the net flux of the face
            # before it, so the last cell sees zero update in them
            net[0, n:] = bcs.right.mass_flux
            net[1:, n] = net[1:, n - 1]
        # -(net[1:] - net[:-1]) / dx: x / -dx is -(x / dx) bitwise
        np.subtract(net[:, a + 1:b], net[:, a:b - 1], out=rhs)
        rhs /= -grid.dx


class _Lane:
    """The faces a .. b - 1 (faces) of a stage workspace, in windows
    whose records share one buffer (records), and the scratch of their
    recorded calls.  Of two lanes run as a pair, open() forms the lane's
    cells in the cell block, as edges() set it."""

    def __init__(self, work, a, b, recon, diss, viscous):
        # k windows of equal size, give or take a face, so that each
        # window of a larger grid holds more than WINDOW / 2 = 4,096
        # faces: numpy buffers, and allocates for, a 2-D call on a strided
        # or broadcast operand whose rows are shorter
        k = -(-(b - a) // WINDOW)
        cuts = [a + i * (b - a) // k for i in range(k + 1)]
        cell_pairs = recon.order == 1 or diss.kind == "scalar" or viscous
        self.faces = slice(a, b)
        self.records = work._new(work.room
                                 * (cell_pairs + (recon.order == 2)))
        self.windows = [_Window(work, lo, hi, recon, cell_pairs,
                                self.records)
                        for lo, hi in zip(cuts, cuts[1:])]
        self.scratch = np.empty(0)

    def edges(self, work, bcs: BoundarySpec, given):
        """Set what open() forms under the boundaries bcs: the spans of
        cells the lane's windows read, its own first (an invalid cell of
        the other end is the other lane's too), as (the list holding
        their conserved cells, their columns, their rows, its rows rho and
        p, a scratch row), and the ghosts of its end that copy a cell."""
        rows, n = work.rows, work.rows.shape[1] - 4
        a, b = self.faces.start, self.faces.stop
        # the cells a - 2 .. b and, under periodic boundaries, two cells
        # at the other end as its end's ghosts: (cells lo .. hi - 1, their
        # column in rows, the first lane's given cells or the second's copy)
        spans = ([(0, b + 1, 2, given), (n - 2, n, 0, given)] if a == 0
                 else [(a - 2, n, a, [work.rhs]), (0, 2, n + 2, [work.head])])
        self.spans = [(src, slice(lo, hi), (r := rows[:, col:col + hi - lo]),
                       r[::2], self.scratch[:hi - lo])
                      for lo, hi, col, src in spans[:1 + bcs.is_periodic]]
        bc, ghost, edge = ((bcs.left, rows[:, :2], rows[:, 2:3]) if a == 0
                           else (bcs.right, rows[:, -2:], rows[:, -3:-2]))
        self.ghosts = [] if bcs.is_periodic else [(ghost, _ghost(bc, edge))]
        self.gm1 = work.gm1

    def open(self):
        """Form the lane's cells in the cell block, a span at a time, each
        checked before the next (_check), and then copy its ghosts."""
        for src, cells, rows, rho_p, t in self.spans:
            _to_prim(src[0][:, cells], *rows, t, self.gm1)
            _check(rows, rho_p, cells.start)
        for ghost, edge in self.ghosts:
            ghost[...] = edge


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
    if held and work.given is not None:
        # paired lanes form and check their own cells (_Lane.open), the
        # second from the shared buffer: its cells cut - 2 .. n - 1 in rhs,
        # whose columns it writes last, and 0 and 1 (its periodic ghosts)
        cut = work.cut
        work.rhs[:, cut - 2:] = cells[:, cut - 2:]
        work.head[...] = cells[:, :2]
        work.given[0] = cells
    else:
        # the stage writes rho, u and p into the cell block and then the
        # ghosts; the records form beta and u^2
        _to_prim(cells, *work.prim, work.gm1 if held else gas.gamma - 1.0)
        _check(work.inner, work.rho_p)
    if held:
        for f, a in work.calls:
            f(*a)
    else:
        work.run(grid, gas, flux_kind, bcs)
    faces = FaceData(work.central, work.diss, work.visc, work.net,
                     work.sides, gas, bcs.is_periodic)
    return work.rhs, faces
