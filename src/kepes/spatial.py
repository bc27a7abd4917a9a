"""Semi-discrete residual assembly on a uniform 1-D grid.

assemble_rhs evaluates du_j/dt = -(F_{j+1/2} - F_{j-1/2})/dx
+ (G_{j+1/2} - G_{j-1/2})/dx with F a central flux plus optional scalar or
matrix dissipation and G the viscous flux.  Two ghost cells per side feed
the reconstruction and the four-point scalar-dissipation stencil.  The
state is the stacked (3, n) array of the rows rho, m, E, and rhs comes back
in that form.  Inside, the cells and their ghosts are one (5, n + 4) cell
block of the rows rho, beta, u, u^2, p: the stage writes rho, u and p, the
stencil kernels read those three rows whole, and a cell-pair record forms
beta and u^2.  The faces run in windows of at most WINDOW faces: per
window, one FaceMeans record, which holds the window's face pairs as one
contiguous (2, 5, m) block, is the pair input of the central flux and
the dissipation, and each flux is written into the window's columns of
a stacked (3, n + 1) array.  The block, the fluxes and the windows live
in a stage workspace (_StageWork) that the march holds and every call
refills in place, by running the calls the workspace binds once.
The net flux F - G is formed once, and a shock_outflow boundary writes
its last face there alone.  All per-face quantities needed by the budget
diagnostics are returned in a FaceData record, which derives them only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dissipation import (DissipationSpec, _jst_work, _matrix_work,
                          jst_dissipation, matrix_dissipation)
from .fluxes import CENTRAL_FLUXES, _central_work
from .reconstruction import ReconSpec, _recon_work, reconstruct_face
from .thermo import (
    _FOUR_THIRDS,
    _HALF,
    _ONE,
    _ZERO,
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    _calls,
    _check_states,
    _constant,
    _copy,
    _fields_calls,
    _Scratch,
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

    # dx and -dx as the stage's ufunc operands
    _dx = _constant(lambda grid: grid.dx)
    _neg_dx = _constant(lambda grid: -grid.dx)

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

    # the prescribed mass flux as the stage's copy operand
    _mass_flux = _constant(lambda bc: bc.mass_flux)

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


def _visc_work(m: FaceMeans, gas: GasModel, dx, scratch, out=None):
    """viscous_face_flux's work for the record m and the cell width dx:
    the stacked result out, new unless given, and the calls, with the
    temperature of m's cells and four temporaries (the face temperature,
    mu, q and one more) from scratch."""
    if out is None:
        out = np.empty((3,) + m.shape)
    T = scratch.take(*m._cells.shape[1:])
    t_l, t_r = m._side_views(T)
    t_face, mu, q, t = (scratch.take(*m.shape) for _ in range(4))
    tau = out[1, ...]
    return out, _calls([
        (temperature, m._cells, gas, T),
        (np.add, t_l, t_r, t_face), (np.multiply, _HALF, t_face, t_face),
        (gas.viscosity, t_face, mu),
        # q = -kappa (t_r - t_l) / dx
        (gas.conductivity, t_face, mu, q), (np.negative, q, q),
        (np.subtract, t_r, t_l, t), (np.multiply, q, t, q),
        (np.divide, q, dx, q),
        _copy(out[0, ...], _ZERO),
        (np.multiply, _FOUR_THIRDS, mu, t),
        (np.subtract, m.right[1, ...], m.left[1, ...], t_face),
        (np.multiply, t, t_face, t), (np.divide, t, dx, tau),
        (np.multiply, m.u_bar, tau, t), (np.subtract, t, q, out[2, ...])])


def viscous_face_flux(m: FaceMeans, gas: GasModel, dx: float,
                      work=None) -> np.ndarray:
    """Stacked viscous flux (0, tau, u_bar tau - q) of the adjacent cell
    states of the record m.

    tau = (4/3) mu du/dx and q = -kappa dT/dx with mu, kappa evaluated at
    the arithmetic-mean face temperature.  dx is a float or, as the stage
    passes it, the grid's 0-d dx.  work, when given, is _visc_work's for
    m and dx.
    """
    out, calls = work or _visc_work(m, gas, dx, _Scratch())
    for f, a in calls:
        f(*a)
    return out


def _ghost_calls(rows, bcs: BoundarySpec):
    """apply_boundary's calls for rows and bcs: the copies into the two
    ghost cells of each side."""
    lo, hi = rows[:, :2], rows[:, -2:]
    if bcs.is_periodic:
        return _calls([_copy(lo, rows[:, -4:-2]),
                       _copy(hi, rows[:, 2:4])])
    return _calls([_copy(lo, _ghost(bcs.left, rows[:, 2:3])),
                   _copy(hi, _ghost(bcs.right, rows[:, -3:-2]))])


def apply_boundary(rows: np.ndarray, bcs: BoundarySpec,
                   calls=None) -> np.ndarray:
    """Fill, in place, the two ghost cells per side of rows, the (3, n + 4)
    (rho, u, p) rows whose columns 2 .. n + 1 hold n cells; returns
    rows.  calls, when given, is _ghost_calls(rows, bcs)."""
    for f, a in calls or _ghost_calls(rows, bcs):
        f(*a)
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


class _StageWork:
    """Every array an RHS stage writes, and the calls it makes, bound
    once per march from the cell count n, the reconstruction, the
    dissipation and whether the gas is viscous, and, on the first call
    with them, the grid, the gas, the central flux and the boundaries
    (key; a call with another key binds the calls again).

    The workspace owns the (5, n + 4) cell block (rows rho, beta, u, u^2
    and p of the n cells and two ghost cells per side), the central,
    dissipative and viscous fluxes (zero arrays for a stage without
    dissipation or viscosity), the net flux and rhs.  The faces run in
    windows (_Window) of at most WINDOW faces, in order; all windows
    share one buffer of records (records: the cell-pair record and, at
    order 2, the face record, with their log means) and one scratch
    buffer (thermo._Scratch) that holds every kernel's temporaries.  The
    kernels of a window run in sequence and share the scratch; a kernel
    that reads log means forms them before it writes a temporary, since
    log_mean's lie in the same room.  calls is the list the stage runs
    after its validity check: the ghost fill, each window's calls, the
    boundary-flux step of a shock_outflow side and the rhs difference,
    where each public kernel is one entry (so a trace of the public
    functions sees every kernel) and the calls of a private helper are
    spliced in.  size is the pair of lengths of the record and the
    scratch buffers, those of a window of WINDOW faces (of all n + 1 on
    a smaller grid), so it is the same at every n past WINDOW faces: the
    workspace learns it by a first binding on stand-ins, since no take
    depends on the key.
    """

    # the stand-in dx, gas, flux and end rule of the sizing binding
    _SIZING = (_ONE, GasModel(), "kepec", True)

    def __init__(self, n: int, recon: ReconSpec, diss: DissipationSpec,
                 viscous: bool):
        self.block = np.empty((5, n + 4))
        self.rows = rows = self.block[::2]
        self.inner = inner = rows[:, 2:-2]
        self.rho_p = inner[::2]
        # face k sits between cells k+1 and k+2 of rows
        self.sides = rows[:, 1:n + 3]
        # each its own array: a caller that writes into one of the
        # returned fluxes must not change another
        self.central, self.diss, self.visc, self.net = (
            np.empty((3, n + 1)) for _ in range(4))
        if diss.kind == "none":
            self.diss[...] = 0.0
        if not viscous:
            self.visc[...] = 0.0
        self.rhs = rhs = np.empty((3, n))
        # rhs is written last: its first row is the prologue's temporary
        self.prim = (inner[0], inner[1], inner[2], rhs[0])
        # n + 1 faces in k windows of equal size, give or take a face, so
        # that each window of a larger grid holds more than WINDOW / 2 =
        # 4,096 faces: numpy buffers, and allocates for, a 2-D call on a
        # strided or broadcast operand whose rows are shorter
        k = -(-(n + 1) // WINDOW)
        cuts = [i * (n + 1) // k for i in range(k + 1)]
        # a window of min(n + 1, WINDOW) faces sets both lengths
        sizing = _Scratch(0), _Scratch(0)
        _Window(self, 0, min(n + 1, WINDOW), recon, diss, viscous,
                *sizing).bind(*self._SIZING)
        self.size = tuple(s.size for s in sizing)
        records, scratch = map(_Scratch, self.size)
        self.windows = [_Window(self, a, b, recon, diss, viscous,
                                records.rewind(), scratch)
                        for a, b in zip(cuts[:-1], cuts[1:])]
        self.key = self.calls = None

    def bind(self, grid: Grid1D, gas: GasModel, flux_kind: str,
             bcs: BoundarySpec):
        """Bind calls for the key (grid, gas, flux_kind, bcs)."""
        if flux_kind not in CENTRAL_FLUXES:
            raise ValueError(f"unknown flux kind {flux_kind!r}")
        calls = [(apply_boundary, self.rows, bcs,
                  _ghost_calls(self.rows, bcs))]
        # the boundary faces of a scalar stencil reuse the nearest
        # interior sensor, in the windows that hold them
        for win in self.windows:
            calls += win.bind(grid._dx, gas, flux_kind, not bcs.is_periodic)
        n, net, rhs = grid.n_cells, self.net, self.rhs
        if bcs.right.kind == "shock_outflow":
            # boundary-flux step: the last face carries the prescribed mass
            # flux and, in momentum and energy, the net flux of the face
            # before it, so the last cell sees zero update in them
            calls += [_copy(net[0, n:], bcs.right._mass_flux),
                      _copy(net[1:, n], net[1:, n - 1])]
        # -(net[1:] - net[:-1]) / dx: x / -dx is -(x / dx) bitwise
        calls += [(np.subtract, net[:, 1:], net[:, :-1], rhs),
                  (np.divide, rhs, grid._neg_dx, rhs)]
        self.calls = _calls(calls)
        self.key = grid, gas, flux_kind, bcs


class _Window:
    """The faces a .. b - 1 (faces) of the workspace work, and their
    calls.

    Those faces read the block columns a .. b + 2, so the window's view
    of the cell block is the cell block of a (b - a - 1)-cell grid, and
    each kernel is bound on it by its _*_work function as on a whole
    grid's; its results go to the columns a .. b - 1 of work's fluxes
    (fluxes: central, diss, visc and net).  The window's records take
    their blocks from records and its kernels their temporaries from
    scratch, which every window shares.  The cell-pair record (cell_means:
    first order, the scalar stencil, the viscous flux) and the face record
    (means: at order 2 the reconstructed faces', else cell_means) are
    refilled by the window's calls.  ends flags whether the window holds
    the grid's first face and its last, where the JST end rule acts.
    """

    def __init__(self, work, a, b, recon, diss, viscous, records, scratch):
        faces = b - a
        self.block = work.block[:, a:b + 3]
        self.rows = rows = self.block[::2]
        self.faces = slice(a, b)
        self.ends = (a == 0, b == work.net.shape[1])
        self.fluxes = tuple(f[:, a:b] for f in (work.central, work.diss,
                                               work.visc, work.net))
        self.recon, self.diss, self.viscous = recon, diss, viscous
        self.scratch = scratch
        # face k of the window sits between its cells k+1 and k+2.  These
        # cell pairs are the face pairs at first order and, at any order,
        # the pairs that the scalar stencil and the viscous flux difference.
        self.cell_pairs = self.cell_means = None
        if recon.order == 1 or diss.kind == "scalar" or viscous:
            self.cell_means = FaceMeans._held(
                (faces,), rows, (..., slice(1, faces + 1)),
                (..., slice(2, faces + 2)), records)
            # the (2, 5, faces) cell pairs as one view of the block, whose
            # side k starts at column a + k + 1
            col, row = work.block.strides[1], work.block.strides[0]
            self.cell_pairs = np.ndarray((2, 5, faces), float, work.block,
                                         (a + 1) * col, (col, row, col))
        self.means = self.cell_means
        if recon.order == 2:
            self.means = FaceMeans._held((faces,), blocks=records)

    def bind(self, dx, gas: GasModel, flux_kind: str, end_rule: bool):
        """The window's calls for the grid's 0-d dx, the gas, the central
        flux and whether the JST end rule acts at the grid's ends; each
        kernel takes its temporaries from the start of the scratch."""
        recon, diss, scratch = self.recon, self.diss, self.scratch
        pairs, means, rows = self.cell_means, self.means, self.rows
        central, d_flux, g_flux, net = self.fluxes
        calls = []
        if pairs is not None:
            # beta and u^2 once per cell, on the block, then the cell pairs
            calls += _fields_calls(self.block, scratch.rewind())
            calls.append(_copy(pairs.pairs, self.cell_pairs))
            calls += pairs._take(scratch.rewind(), False)
        if recon.order == 2:
            # rows rho, u and p of both sides, which reconstruct_face fills
            work = _recon_work(rows, recon, means.pairs[:, ::2],
                               scratch.rewind())
            calls.append((reconstruct_face, rows, recon, work))
            calls += means._take(scratch.rewind(), True)
        work = _central_work(means, gas, flux_kind, scratch.rewind(), central)
        calls.append((CENTRAL_FLUXES[flux_kind], means, gas, work))
        if diss.kind == "matrix":
            work = _matrix_work(means, gas, diss, flux_kind, scratch.rewind(),
                                d_flux)
            calls.append((matrix_dissipation, means, gas, diss, flux_kind,
                          work))
        elif diss.kind == "scalar":
            # the stencil differences the cells, whose pairs are the face
            # pairs only without reconstruction; the cell block's row 1
            # holds beta
            ends = self.ends if end_rule else (False, False)
            beta = self.block[1]
            work = _jst_work(rows, pairs, gas, diss, ends, beta,
                             scratch.rewind(), d_flux)
            calls.append((jst_dissipation, rows, pairs, gas, diss, ends, beta,
                          work))
        if self.viscous:
            work = _visc_work(pairs, gas, dx, scratch.rewind(), g_flux)
            calls.append((viscous_face_flux, pairs, gas, dx, work))
        # net = F - G.  An inviscid G is zero and x - 0 is x, so it is not
        # subtracted.
        calls.append((np.add, central, d_flux, net))
        if self.viscous:
            calls.append((np.subtract, net, g_flux, net))
        return calls


def assemble_rhs(cells, grid: Grid1D, gas: GasModel, flux_kind: str,
                 diss: DissipationSpec, recon: ReconSpec, bcs: BoundarySpec,
                 work: _StageWork | None = None):
    """Semi-discrete right-hand side and the per-face diagnostic record.

    cells is the stacked (3, n) array of the rows rho, m, E; rhs comes
    back as a (3, n) array.  work is the stage workspace that the march
    holds (a _StageWork of this grid, recon, diss and gas): the call runs
    its calls, bound again first when the grid, gas, flux or boundaries
    are not those of the last call, and rhs and the returned FaceData's
    central, diss, visc, net, cells, left and right are arrays of it, so
    the next call with the same work overwrites them (the zero diss and
    visc of a stage without dissipation or viscosity stay zero).  Without
    work, the call builds a workspace of its own, and nothing it returns
    is shared.
    """
    if work is None:
        work = _StageWork(grid.n_cells, recon, diss, gas.is_viscous)
    if work.key != (grid, gas, flux_kind, bcs):
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
    np.multiply(gas._gm1, t, p)
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
    for f, a in work.calls:
        f(*a)
    faces = FaceData(work.central, work.diss, work.visc, work.net,
                     work.sides, gas, bcs.is_periodic)
    return work.rhs, faces
