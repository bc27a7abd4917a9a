"""Semi-discrete residual assembly on a uniform 1-D grid.

assemble_rhs evaluates du_j/dt = -(F_{j+1/2} - F_{j-1/2})/dx
+ (G_{j+1/2} - G_{j-1/2})/dx with F a central flux plus optional scalar or
matrix dissipation and G the viscous flux.  Two ghost cells per side feed
the reconstruction and the four-point scalar-dissipation stencil.  The
state is the stacked (3, n) array of the rows rho, m, E, and rhs comes back
in that form.  Inside, the cells and their ghosts are one (5, n + 4) cell
block of the rows rho, beta, u, u^2, p: the stage writes rho, u and p, the
stencil kernels read those three rows whole, and a cell-pair record forms
beta and u^2.  One FaceMeans record, which holds the face pairs as one
contiguous (2, 5, n + 1) block, is the pair input of the central flux
and the dissipation, and each flux is a stacked (3, n + 1) array.  The
block and the records live in a stage workspace (_StageWork) that the
march holds and every call refills in place.
The net flux F - G is formed once, and a shock_outflow boundary writes
its last face there alone.  All per-face quantities needed by the budget
diagnostics are returned in a FaceData record, which derives them only
when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dissipation import DissipationSpec, jst_dissipation, matrix_dissipation
from .fluxes import CENTRAL_FLUXES
from .reconstruction import ReconSpec, reconstruct_face
from .thermo import (
    _FOUR_THIRDS,
    _HALF,
    _ZERO,
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    _check_states,
    _constant,
    _form_fields,
    entropy_vars,
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
    0).  du, u_bar, dv and dpsi are built from the cell values adjacent to
    each face, the stacked (rho, u, p) rows left and right, which is what
    the summation-by-parts budget identities require.  They and p_tilde
    are computed on first read, so marching never pays for them.
    """

    central: np.ndarray
    diss: np.ndarray
    visc: np.ndarray
    net: np.ndarray
    left: np.ndarray
    right: np.ndarray
    gas: GasModel
    periodic: bool

    @property
    def cells(self) -> np.ndarray:
        """The (rho, u, p) rows of the n cells, (3, n): a view of the rows
        the stage formed."""
        return self.right[:, :-1]

    @cached_property
    def u_bar(self) -> np.ndarray:
        return 0.5 * (self.left[1] + self.right[1])

    @cached_property
    def du(self) -> np.ndarray:
        return self.right[1] - self.left[1]

    @cached_property
    def dv(self) -> np.ndarray:
        """(n_faces, 3), face-major and contiguous: the budget sums add in
        memory order, so this layout fixes their rounding."""
        dv = (entropy_vars(self.right, self.gas)
              - entropy_vars(self.left, self.gas))
        return np.ascontiguousarray(dv.T)

    @cached_property
    def dpsi(self) -> np.ndarray:
        return self.right[0] * self.right[1] - self.left[0] * self.left[1]

    @cached_property
    def p_tilde(self) -> np.ndarray:
        return self.central[1] - self.u_bar * self.central[0]


def viscous_face_flux(m: FaceMeans, gas: GasModel, dx: float) -> np.ndarray:
    """Stacked viscous flux (0, tau, u_bar tau - q) of the adjacent cell
    states of the record m.

    tau = (4/3) mu du/dx and q = -kappa dT/dx with mu, kappa evaluated at
    the arithmetic-mean face temperature.  dx is a float or, as the stage
    passes it, the grid's 0-d dx.
    """
    t_l, t_r = m.sides(lambda q: temperature(q, gas))
    t_face = _HALF * (t_l + t_r)
    mu = gas.viscosity(t_face)
    kappa = gas.conductivity(t_face, mu)
    q = -kappa * (t_r - t_l) / dx
    out = np.empty((3,) + m.shape)
    out[0] = _ZERO
    tau = np.divide(_FOUR_THIRDS * mu * (m.right[1] - m.left[1]), dx,
                    out=out[1, ...])
    np.subtract(m.u_bar * tau, q, out=out[2, ...])
    return out


def apply_boundary(rows: np.ndarray, bcs: BoundarySpec) -> np.ndarray:
    """Fill, in place, the two ghost cells per side of rows, the (3, n + 4)
    (rho, u, p) rows whose columns 2 .. n + 1 hold n cells; returns
    rows."""
    if bcs.is_periodic:
        rows[:, :2] = rows[:, -4:-2]
        rows[:, -2:] = rows[:, 2:4]
    else:
        rows[:, :2] = _ghost(bcs.left, rows[:, 2:3])
        rows[:, -2:] = _ghost(bcs.right, rows[:, -3:-2])
    return rows


def _ghost(bc: BoundaryCondition, edge):
    # fixed_state holds its state; the other kinds copy the edge cell
    return bc.ghost if bc.kind == "fixed_state" else edge


class _StageWork:
    """What an RHS stage refills, built once per march from the cell count
    n, the reconstruction, the dissipation and whether the gas is viscous:
    the (5, n + 4) cell block (rows rho, beta, u, u^2 and p of the n cells
    and two ghost cells per side) and its views, the record of the cell
    pairs (cell_means: first order, the scalar stencil, the viscous flux),
    the face record (means: at order 2 the reconstructed faces', else
    cell_means) and the zero fluxes of a stage without dissipation or
    viscosity.
    """

    def __init__(self, n: int, recon: ReconSpec, diss: DissipationSpec,
                 viscous: bool):
        self.block = block = np.empty((5, n + 4))
        self.rows = rows = block[::2]
        self.inner = rows[:, 2:-2]
        # face k sits between cells k+1 and k+2 of rows.  These cell pairs
        # are the face pairs at first order and, at any order, the pairs
        # that the scalar stencil and the viscous flux difference.
        lo, hi = slice(1, n + 2), slice(2, n + 3)
        self.left, self.right = rows[:, lo], rows[:, hi]
        self.block_lo, self.block_hi = block[:, lo], block[:, hi]
        self.cell_means = None
        if recon.order == 1 or diss.kind == "scalar" or viscous:
            self.cell_means = FaceMeans._held((n + 1,), rows, (..., lo),
                                              (..., hi))
        self.means = self.cell_means
        if recon.order == 2:
            self.means = FaceMeans._held((n + 1,))
            # rows rho, u and p of both sides, which reconstruct_face fills
            self.face_sides = self.means.pairs[:, ::2]
        # each its own array: a caller that writes into one of the
        # returned fluxes must not change another
        self.no_diss = np.zeros((3, n + 1)) if diss.kind == "none" else None
        self.no_visc = None if viscous else np.zeros((3, n + 1))


def assemble_rhs(cells, grid: Grid1D, gas: GasModel, flux_kind: str,
                 diss: DissipationSpec, recon: ReconSpec, bcs: BoundarySpec,
                 work: _StageWork | None = None):
    """Semi-discrete right-hand side and the per-face diagnostic record.

    cells is the stacked (3, n) array of the rows rho, m, E; rhs comes
    back as a (3, n) array.  work is the stage workspace that the march
    holds (a _StageWork of this grid, recon, diss and gas): the call
    refills it, and the returned FaceData's cells, left and right (and,
    without dissipation or viscosity, diss and visc) are views of it, so
    the next call with the same work overwrites them.  Without work, the
    call builds a workspace of its own, and nothing it returns is shared.
    """
    if flux_kind not in CENTRAL_FLUXES:
        raise ValueError(f"unknown flux kind {flux_kind!r}")
    n = grid.n_cells
    viscous = gas.is_viscous
    if work is None:
        work = _StageWork(n, recon, diss, viscous)
    # the stage writes rho, u and p (cons_to_prim's formula) into the cell
    # block and then the ghosts; the records form beta and u^2
    inner = work.inner
    rho, m = cells[0], cells[1]
    inner[0] = rho
    u = np.divide(m, rho, inner[1])
    np.multiply(gas._gm1, cells[2] - _HALF * m * u, inner[2])
    # a valid cell is finite with rho > 0 and p > 0.  The min fails on a
    # rho or p that is not > 0 or is NaN, the max on inf or NaN; u = -inf
    # makes p -inf or NaN.  Only a failure looks for the first bad cell.
    if not (inner[::2].min() > 0.0 and inner.max() < np.inf):
        valid = np.isfinite(inner).all(axis=0) & (inner[::2] > 0.0).all(axis=0)
        idx = int(np.argmin(valid))
        raise InvalidStateError(
            f"invalid state in cell {idx}: rho={inner[0, idx]:.6g}, "
            f"p={inner[2, idx]:.6g}")
    rows = work.rows
    apply_boundary(rows, bcs)

    pairs = work.cell_means
    if pairs is not None:
        # beta and u^2 once per cell, on the block, then the cell pairs
        _form_fields(work.block)
        pairs.pairs[0] = work.block_lo
        pairs.pairs[1] = work.block_hi
        pairs._refill(False)
    means = work.means
    if recon.order == 2:
        reconstruct_face(rows, recon, work.face_sides)
        means._refill(True)
    central = CENTRAL_FLUXES[flux_kind](means, gas)

    if diss.kind == "matrix":
        d_flux = matrix_dissipation(means, gas, diss, flux_kind)
    elif diss.kind == "scalar":
        # the stencil differences the cells, whose pairs are the face pairs
        # only without reconstruction; boundary faces reuse the nearest
        # interior sensor, and the cell block's row 1 holds beta
        d_flux = jst_dissipation(rows, pairs, gas, diss, not bcs.is_periodic,
                                 work.block[1])
    else:
        d_flux = work.no_diss
    if viscous:
        g_flux = viscous_face_flux(pairs, gas, grid._dx)
    else:
        g_flux = work.no_visc

    # net = F - G.  An inviscid G is zero and x - 0 is x, so it is not
    # subtracted.
    net = central + d_flux
    if viscous:
        net -= g_flux
    if bcs.right.kind == "shock_outflow":
        # boundary-flux step: the last face carries the prescribed mass
        # flux and, in momentum and energy, the net flux of the face before
        # it, so the last cell sees zero update in them
        net[0, n] = bcs.right.mass_flux
        net[1:, n] = net[1:, n - 1]
    # -(net[1:] - net[:-1]) / dx: x / -dx is -(x / dx) bitwise
    rhs = net[:, 1:] - net[:, :-1]
    rhs /= grid._neg_dx
    faces = FaceData(central, d_flux, g_flux, net, work.left, work.right,
                     gas, bcs.is_periodic)
    return rhs, faces
