"""Semi-discrete residual assembly on a uniform 1-D grid.

assemble_rhs evaluates du_j/dt = -(F_{j+1/2} - F_{j-1/2})/dx
+ (G_{j+1/2} - G_{j-1/2})/dx with F a central flux plus optional scalar or
matrix dissipation and G the viscous flux.  Two ghost cells per side feed
the reconstruction and the four-point scalar-dissipation stencil.  The
state is the stacked (3, n) array of the rows rho, m, E, and rhs comes back
in that form.  Inside, the cells are one (3, n + 4) array of the rows rho,
u, p that the stencil kernels read whole, one FaceMeans record of the face
pairs per call feeds the central flux and the dissipation, and each flux
is a stacked (3, n + 1) array.  All per-face quantities needed by the
budget diagnostics are returned in a FaceData record, which derives them
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dissipation import (DissipationSpec, _pressure_sensor, _switches,
                          jst_dissipation, matrix_dissipation)
from .fluxes import CENTRAL_FLUXES
from .reconstruction import ReconSpec, reconstruct_face
from .thermo import (
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    cons_to_prim,
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
        if self.kind == "shock_outflow" and self.mass_flux is None:
            raise ValueError("shock_outflow boundary needs a mass_flux")


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
    as stacked (3, n_faces) arrays.  Arrays have one entry per face
    (n_cells + 1; under periodic boundaries face n_cells duplicates face
    0).  du, u_bar, dv and dpsi are built from the cell values adjacent to
    each face, the stacked (rho, u, p) rows left and right, which is what
    the summation-by-parts budget identities require.  They and p_tilde
    are computed on first read, so marching never pays for them.
    """

    central: np.ndarray
    diss: np.ndarray
    visc: np.ndarray
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

    def net(self) -> np.ndarray:
        """Total face flux (F - G) as an (n_faces, 3) array."""
        return (self.central + self.diss - self.visc).T

    @cached_property
    def net_ends(self) -> np.ndarray:
        """net()[0] and net()[-1], the first and the last face, as a (2, 3)
        array formed once from those faces alone: the budget terms read
        only these two."""
        ends = [0, -1]
        return (self.central[:, ends] + self.diss[:, ends]
                - self.visc[:, ends]).T


def viscous_face_flux(left: PrimState, right: PrimState, gas: GasModel,
                      dx: float, means: FaceMeans | None = None) -> np.ndarray:
    """Stacked viscous flux (0, tau, u_bar tau - q) from adjacent cell
    states.

    tau = (4/3) mu du/dx and q = -kappa dT/dx with mu, kappa evaluated at
    the arithmetic-mean face temperature.  means is the pair's FaceMeans.
    """
    pairs = FaceMeans(left, right) if means is None else means
    t_l, t_r = pairs.sides(lambda q: temperature(q, gas))
    t_face = 0.5 * (t_l + t_r)
    mu = gas.viscosity(t_face)
    kappa = gas.conductivity(t_face, mu)
    q = -kappa * (t_r - t_l) / dx
    out = np.empty((3,) + pairs.shape)
    out[0] = 0.0
    tau = np.divide((4.0 / 3.0) * mu * (pairs.right[1] - pairs.left[1]), dx,
                    out=out[1, ...])
    np.subtract(pairs.u_bar * tau, q, out=out[2, ...])
    return out


def apply_boundary(cells, bcs: BoundarySpec) -> np.ndarray:
    """The (rho, u, p) rows of n cells, an array or a triple of rows,
    extended by two ghost cells per side into one (3, n + 4) array."""
    out = np.empty((3, np.shape(cells[0])[0] + 4))
    out[0, 2:-2], out[1, 2:-2], out[2, 2:-2] = cells
    if bcs.is_periodic:
        out[:, :2] = out[:, -4:-2]
        out[:, -2:] = out[:, 2:4]
    else:
        out[:, :2] = _ghost(bcs.left, out[:, 2:3])
        out[:, -2:] = _ghost(bcs.right, out[:, -3:-2])
    return out


def _ghost(bc: BoundaryCondition, edge):
    # fixed_state holds its state; the other kinds copy the edge cell
    if bc.kind != "fixed_state":
        return edge
    return np.array(bc.state)[:, None]


def assemble_rhs(cells, grid: Grid1D, gas: GasModel, flux_kind: str,
                 diss: DissipationSpec, recon: ReconSpec, bcs: BoundarySpec):
    """Semi-discrete right-hand side and the per-face diagnostic record.

    cells is the stacked (3, n) array of the rows rho, m, E; rhs comes
    back as a (3, n) array.
    """
    if flux_kind not in CENTRAL_FLUXES:
        raise ValueError(f"unknown flux kind {flux_kind!r}")
    n, dx = grid.n_cells, grid.dx
    rows = apply_boundary(cons_to_prim(cells, gas), bcs)
    inner = rows[:, 2:-2]
    # a valid cell is finite with rho > 0 and p > 0; all cells are tested
    # at once, and only a failure looks for the first invalid cell
    if (np.count_nonzero(np.isfinite(inner)) < inner.size
            or not inner[::2].min() > 0.0):
        valid = np.isfinite(inner).all(axis=0) & (inner[::2] > 0.0).all(axis=0)
        idx = int(np.argmin(valid))
        raise InvalidStateError(
            f"invalid state in cell {idx}: rho={inner[0, idx]:.6g}, "
            f"p={inner[2, idx]:.6g}")

    # face k sits between cells k+1 and k+2 of rows.  These cell pairs are
    # the face pairs at first order and, at any order, the pairs that the
    # scalar stencil and the viscous flux difference.
    lo, hi = slice(1, n + 2), slice(2, n + 3)
    pairs = None
    if recon.order == 1 or diss.kind == "scalar" or gas.is_viscous:
        pairs = FaceMeans.of_cells(rows, lo, hi)
    means = pairs
    if recon.order == 2:
        means = FaceMeans(*reconstruct_face(rows, recon))
    central = CENTRAL_FLUXES[flux_kind](means.left, means.right, gas, means)

    if diss.kind == "matrix":
        d_flux = matrix_dissipation(means.left, means.right, gas, diss,
                                    flux_kind, means)
    elif diss.kind == "scalar":
        nu = np.zeros(n + 4)
        p = rows[2]
        nu[1:-1] = _pressure_sensor(p[:-2], p[1:-1], p[2:])
        if not bcs.is_periodic:
            # boundary faces reuse the nearest interior sensor
            nu[1] = nu[2]
            nu[-2] = nu[-3]
        eps2, eps4 = _switches(nu[1:n + 2], nu[2:n + 3], diss.kappa2,
                               diss.kappa4)
        # the stencil differences the cells, whose pairs are the face pairs
        # only without reconstruction
        d_flux = jst_dissipation(rows, gas, diss, eps2, eps4, pairs)
    else:
        d_flux = np.zeros((3, n + 1))
    if gas.is_viscous:
        g_flux = viscous_face_flux(pairs.left, pairs.right, gas, dx, pairs)
    else:
        g_flux = np.zeros((3, n + 1))

    if bcs.right.kind == "shock_outflow":
        # boundary-flux step: the last face carries the prescribed mass
        # flux and, in momentum and energy, the net flux of the face before
        # it, so the last cell sees zero update in them; its dissipative
        # and viscous parts are zero
        central[1:, n] = (central[1:, n - 1] + d_flux[1:, n - 1]
                          - g_flux[1:, n - 1])
        central[0, n] = bcs.right.mass_flux
        d_flux[:, n] = 0.0
        g_flux[:, n] = 0.0

    net = central + d_flux - g_flux
    rhs = -(net[:, 1:] - net[:, :-1]) / dx
    faces = FaceData(central, d_flux, g_flux, rows[:, lo], rows[:, hi], gas,
                     bcs.is_periodic)
    return rhs, faces
