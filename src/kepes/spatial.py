"""Semi-discrete residual assembly on a uniform 1-D grid.

assemble_rhs evaluates du_j/dt = -(F_{j+1/2} - F_{j-1/2})/dx
+ (G_{j+1/2} - G_{j-1/2})/dx with F a central flux plus optional scalar or
matrix dissipation and G the viscous flux.  Two ghost cells per side feed
the reconstruction and the four-point scalar-dissipation stencil.  One
FaceMeans record of the face pairs per call feeds the central flux and the
dissipation.  All per-face quantities needed by the budget diagnostics are
returned in a FaceData record, which derives them only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dissipation import DissipationSpec, jst_dissipation, matrix_dissipation
from .fluxes import CENTRAL_FLUXES, FluxVector
from .reconstruction import ReconSpec, reconstruct_face
from .thermo import (
    ConsState,
    FaceMeans,
    GasModel,
    InvalidStateError,
    PrimState,
    cons_to_prim,
    entropy_vars,
    validate_prim,
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

    Arrays have one entry per face (n_cells + 1; under periodic boundaries
    face n_cells duplicates face 0).  du, u_bar, dv and dpsi are built from
    the cell values adjacent to each face (left, right), which is what the
    summation-by-parts budget identities require.  They and p_tilde are
    computed on first read, so marching never pays for them.
    """

    central: FluxVector
    diss: FluxVector
    visc: FluxVector
    left: PrimState
    right: PrimState
    gas: GasModel
    periodic: bool

    @cached_property
    def u_bar(self) -> np.ndarray:
        return 0.5 * (self.left.u + self.right.u)

    @cached_property
    def du(self) -> np.ndarray:
        return self.right.u - self.left.u

    @cached_property
    def dv(self) -> np.ndarray:
        return (entropy_vars(self.right, self.gas).as_array()
                - entropy_vars(self.left, self.gas).as_array())

    @cached_property
    def dpsi(self) -> np.ndarray:
        return self.right.rho * self.right.u - self.left.rho * self.left.u

    @cached_property
    def p_tilde(self) -> np.ndarray:
        return (np.asarray(self.central.f_m)
                - self.u_bar * np.asarray(self.central.f_rho))

    def net(self) -> np.ndarray:
        """Total face flux (F - G) as an (n_faces, 3) array."""
        return (self.central + self.diss - self.visc).as_array()


def viscous_face_flux(left: PrimState, right: PrimState, gas: GasModel,
                      dx: float) -> FluxVector:
    """Viscous flux (0, tau, u_bar tau - q) from adjacent cell states.

    tau = (4/3) mu du/dx and q = -kappa dT/dx with mu, kappa evaluated at
    the arithmetic-mean face temperature.
    """
    t_l = left.temperature(gas)
    t_r = right.temperature(gas)
    t_face = 0.5 * (t_l + t_r)
    mu = gas.viscosity(t_face)
    kappa = gas.conductivity(t_face)
    tau = (4.0 / 3.0) * mu * (right.u - left.u) / dx
    q = -kappa * (t_r - t_l) / dx
    u_bar = 0.5 * (left.u + right.u)
    return FluxVector(np.zeros_like(tau), tau, u_bar * tau - q)


def _take(q: PrimState, idx) -> PrimState:
    return PrimState(q.rho[idx], q.u[idx], q.p[idx])


def apply_boundary(prim: PrimState, bcs: BoundarySpec) -> PrimState:
    """Extend the interior cell array by two ghost cells per side."""
    n = np.shape(prim.rho)[0]

    def ghost(bc: BoundaryCondition, name, edge):
        # fixed_state holds its state; the other kinds copy the edge cell
        return getattr(bc.state, name) if bc.kind == "fixed_state" else edge

    def one_field(name):
        f = np.asarray(getattr(prim, name), dtype=float)
        out = np.empty(n + 4)
        out[2:-2] = f
        if bcs.is_periodic:
            out[:2] = f[-2:]
            out[-2:] = f[:2]
        else:
            out[:2] = ghost(bcs.left, name, f[0])
            out[-2:] = ghost(bcs.right, name, f[-1])
        return out

    return PrimState(one_field("rho"), one_field("u"), one_field("p"))


def _cell_sensor(p_ext: np.ndarray, periodic: bool) -> np.ndarray:
    """Shock sensor nu for extended cells 1 .. n+2 (returned full length,
    entries 0 and n+3 unused)."""
    nu = np.zeros_like(p_ext)
    nu[1:-1] = (np.abs(p_ext[:-2] - 2.0 * p_ext[1:-1] + p_ext[2:])
                / (p_ext[:-2] + 2.0 * p_ext[1:-1] + p_ext[2:]))
    if not periodic:
        # boundary faces reuse the nearest interior sensor
        nu[1] = nu[2]
        nu[-2] = nu[-3]
    return nu


def _components(f: FluxVector):
    return f.f_rho, f.f_m, f.f_e


def _zero_flux(n_faces: int) -> FluxVector:
    """All-zero flux with its own array per component."""
    return FluxVector(np.zeros(n_faces), np.zeros(n_faces), np.zeros(n_faces))


def _shock_outflow_fluxes(central: FluxVector, diss: FluxVector,
                          visc: FluxVector, mass_flux: float):
    """Boundary-flux step of the shock_outflow right face: it carries the
    prescribed mass flux and, in momentum and energy, the net flux of the
    face before it, so the last cell sees zero update in them; its
    dissipative and viscous parts are zero.  Returns new flux vectors."""
    c, d, v = (np.array(_components(f)) for f in (central, diss, visc))
    c[1:, -1] = c[1:, -2] + d[1:, -2] - v[1:, -2]
    c[0, -1] = mass_flux
    d[:, -1] = 0.0
    v[:, -1] = 0.0
    return FluxVector(*c), FluxVector(*d), FluxVector(*v)


def assemble_rhs(cells: ConsState, grid: Grid1D, gas: GasModel,
                 flux_kind: str, diss: DissipationSpec, recon: ReconSpec,
                 bcs: BoundarySpec):
    """Semi-discrete right-hand side and the per-face diagnostic record."""
    if flux_kind not in CENTRAL_FLUXES:
        raise ValueError(f"unknown flux kind {flux_kind!r}")
    central_flux = CENTRAL_FLUXES[flux_kind]

    prim = cons_to_prim(cells, gas)
    bad = validate_prim(prim)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InvalidStateError(
            f"invalid state in cell {idx}: rho={prim.rho[idx]:.6g}, "
            f"p={prim.p[idx]:.6g}")

    ext = apply_boundary(prim, bcs)
    n = grid.n_cells
    dx = grid.dx

    # stencil views for the n+1 faces: face k sits between ext cells
    # k+1 and k+2
    qm1, q0, q1, q2 = (_take(ext, slice(k, n + 1 + k)) for k in range(4))

    face_l, face_r = reconstruct_face((qm1, q0, q1, q2), recon)
    means = FaceMeans(face_l, face_r)
    central = central_flux(face_l, face_r, gas, means)

    if diss.kind == "matrix":
        d_flux = matrix_dissipation(face_l, face_r, gas, diss, flux_kind,
                                    means)
    elif diss.kind == "scalar":
        nu_ext = _cell_sensor(ext.p, bcs.is_periodic)
        nu_face = np.maximum(nu_ext[1:n + 2], nu_ext[2:n + 3])
        eps2 = np.minimum(1.0, diss.kappa2 * nu_face)
        eps4 = np.maximum(0.0, diss.kappa4 - eps2)
        # the stencil differences cell states, whose pairs (q0, q1) are the
        # face pairs only without reconstruction
        d_flux = jst_dissipation((qm1, q0, q1, q2), gas, diss,
                                 eps2=eps2, eps4=eps4,
                                 means=means if recon.order == 1 else None)
    else:
        d_flux = _zero_flux(n + 1)
    if gas.is_viscous:
        g_flux = viscous_face_flux(q0, q1, gas, dx)
    else:
        g_flux = _zero_flux(n + 1)

    if bcs.right.kind == "shock_outflow":
        central, d_flux, g_flux = _shock_outflow_fluxes(
            central, d_flux, g_flux, bcs.right.mass_flux)

    rhs = []
    for c, d, v in zip(_components(central), _components(d_flux),
                       _components(g_flux)):
        net = c + d - v
        rhs.append(-(net[1:] - net[:-1]) / dx)

    faces = FaceData(central=central, diss=d_flux, visc=g_flux, left=q0,
                     right=q1, gas=gas, periodic=bcs.is_periodic)
    return ConsState(*rhs), faces
