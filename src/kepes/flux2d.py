"""Normal-direction 2-D flux kernels: entropy-conservative central flux and
matrix-dissipation ingredients.

These are pure per-face kernels; there is no 2-D grid machinery here.  The
kernels reduce exactly to their 1-D counterparts for n = (1, 0) and zero
transverse velocity, and commute with simultaneous rotation of the
velocities and the face normal.  The KEPEC flux, the face average and
the eigenvalue laws are the 1-D kernels, applied in the normal frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipation import DissipationSpec, eigenvalue_law, face_average
from .fluxes import flux_kepec
from .thermo import FaceMeans, GasModel, PrimState, _avg

__all__ = [
    "PrimState2D",
    "FaceNormal",
    "exact_flux_2d",
    "entropy_vars_2d",
    "flux_kepec_2d",
    "eigen_system_2d",
    "eigenvalue_law_2d",
    "matrix_dissipation_2d",
    "tadmor_residual_2d",
    "rotate_state",
    "rotation_covariance_check",
]


@dataclass(frozen=True)
class PrimState2D:
    """Primitive variables (rho, u1, u2, p) with Cartesian velocities."""

    rho: object
    u1: object
    u2: object
    p: object

    @property
    def beta(self):
        return self.rho / (2.0 * self.p)

    @property
    def speed2(self):
        return self.u1 * self.u1 + self.u2 * self.u2


@dataclass(frozen=True)
class FaceNormal:
    """Unit face normal (n1, n2)."""

    n1: float
    n2: float

    def __post_init__(self):
        norm = np.asarray(self.n1) ** 2 + np.asarray(self.n2) ** 2
        if not np.all(np.abs(norm - 1.0) <= 1.0e-14):
            raise ValueError("face normal must have unit length")


def exact_flux_2d(q: PrimState2D, n: FaceNormal, gas: GasModel) -> np.ndarray:
    """Pointwise flux f1 n1 + f2 n2, stacked on the last axis."""
    un = q.u1 * n.n1 + q.u2 * n.n2
    E = q.p / (gas.gamma - 1.0) + 0.5 * q.rho * q.speed2
    return np.stack(np.broadcast_arrays(
        q.rho * un,
        q.p * n.n1 + q.rho * q.u1 * un,
        q.p * n.n2 + q.rho * q.u2 * un,
        (E + q.p) * un), axis=-1)


def entropy_vars_2d(q: PrimState2D, gas: GasModel) -> np.ndarray:
    """v = [(gamma-s)/(gamma-1) - beta |u|^2, 2 beta u1, 2 beta u2, -2 beta]."""
    g = gas.gamma
    s = np.log(q.p) - g * np.log(q.rho)
    beta = q.beta
    return np.stack(np.broadcast_arrays(
        (g - s) / (g - 1.0) - beta * q.speed2,
        2.0 * beta * q.u1,
        2.0 * beta * q.u2,
        -2.0 * beta), axis=-1)


def _normal_frame(q: PrimState2D, n: FaceNormal):
    """(PrimState(rho, u.n, p), u.t) with the tangent t = (-n2, n1)."""
    return (PrimState(q.rho, q.u1 * n.n1 + q.u2 * n.n2, q.p),
            q.u2 * n.n1 - q.u1 * n.n2)


def flux_kepec_2d(left: PrimState2D, right: PrimState2D, n: FaceNormal,
                  gas: GasModel) -> np.ndarray:
    """Kinetic-energy-preserving, entropy-conservative flux along n.

    fluxes.flux_kepec of the normal-frame pair plus the transverse terms
    f_t = t_bar f_rho and (t_bar^2 - mean(u_t^2)/2) f_rho in f_e, with the
    momentum pair rotated back; dv . f = d(rho u.n) holds exactly.
    """
    (q_l, t_l), (q_r, t_r) = _normal_frame(left, n), _normal_frame(right, n)
    f_rho, f_n, f_e = flux_kepec(FaceMeans(q_l, q_r), gas)
    t_bar = _avg(t_l, t_r)
    f_t = t_bar * f_rho
    f_e = f_e + (t_bar * t_bar - 0.5 * _avg(t_l * t_l, t_r * t_r)) * f_rho
    return np.stack(np.broadcast_arrays(
        f_rho, f_n * n.n1 - f_t * n.n2, f_n * n.n2 + f_t * n.n1, f_e),
        axis=-1)


def tadmor_residual_2d(left: PrimState2D, right: PrimState2D, n: FaceNormal,
                       flux: np.ndarray, gas: GasModel):
    """dv . f - d(rho u.n) for a 4-component normal flux."""
    dv = entropy_vars_2d(right, gas) - entropy_vars_2d(left, gas)
    dpsi = (right.rho * (right.u1 * n.n1 + right.u2 * n.n2)
            - left.rho * (left.u1 * n.n1 + left.u2 * n.n2))
    return np.sum(dv * flux, axis=-1) - dpsi


def eigen_system_2d(avg, n: FaceNormal, gas: GasModel):
    """Eigenvector matrix R (..., 4, 4) and scaling
    S = diag[rho/2g, (g-1)rho/g, p, rho/2g] with p = rho a^2 / gamma.

    Columns are ordered (u.n - a, u.n, shear, u.n + a); the shear column is
    (0, n2, -n1, u1 n2 - u2 n1).  R S R^T equals the 2-D entropy Jacobian
    du/dv.
    """
    rho, u1, u2, a, H = (np.asarray(x, dtype=float) for x in avg)
    n1, n2 = n.n1, n.n2
    un = u1 * n1 + u2 * n2
    one = np.ones_like(rho)
    zero = np.zeros_like(rho)
    R = np.stack([
        np.stack([one, one, zero, one], axis=-1),
        np.stack([u1 - a * n1, u1, n2 * one, u1 + a * n1], axis=-1),
        np.stack([u2 - a * n2, u2, -n1 * one, u2 + a * n2], axis=-1),
        np.stack([H - a * un, 0.5 * (u1 * u1 + u2 * u2),
                  u1 * n2 - u2 * n1, H + a * un], axis=-1),
    ], axis=-2)
    g = gas.gamma
    p = rho * a * a / g
    S = np.stack([rho / (2.0 * g), (g - 1.0) * rho / g, p, rho / (2.0 * g)],
                 axis=-1)
    return R, S


def eigenvalue_law_2d(un_f, a_f, left: PrimState2D, right: PrimState2D,
                      n: FaceNormal, gas: GasModel, spec: DissipationSpec):
    """|Lambda| entries (..., 4) for the selected law, normal-direction
    eigenvalues (u.n - a, u.n, u.n, u.n + a): the 1-D law of the normal
    problem, with the shear entry equal to the entropy-wave entry."""
    m = FaceMeans(_normal_frame(left, n)[0], _normal_frame(right, n)[0])
    return eigenvalue_law(un_f, a_f, m, gas, spec)[..., [0, 1, 1, 2]]


def matrix_dissipation_2d(left: PrimState2D, right: PrimState2D,
                          n: FaceNormal, gas: GasModel,
                          spec: DissipationSpec) -> np.ndarray:
    """-(1/2) R |Lambda| S R^T dv along the face normal.  rho, u.n and a
    are the 1-D face average of the normal-frame pair, the Cartesian
    velocities are averaged alongside, and H = a^2/(gamma - 1) + |u|^2/2."""
    m = FaceMeans(_normal_frame(left, n)[0], _normal_frame(right, n)[0])
    avg = face_average(m, gas)
    u1_f, u2_f = _avg(left.u1, right.u1), _avg(left.u2, right.u2)
    H_f = avg.a * avg.a / (gas.gamma - 1.0) + 0.5 * (u1_f * u1_f
                                                     + u2_f * u2_f)
    R, S = eigen_system_2d((avg.rho, u1_f, u2_f, avg.a, H_f), n, gas)
    lam = eigenvalue_law(avg.u, avg.a, m, gas, spec)[..., [0, 1, 1, 2]]
    dv = entropy_vars_2d(right, gas) - entropy_vars_2d(left, gas)
    w = (lam * S) * np.einsum("...ji,...j->...i", R, dv)
    return -0.5 * np.einsum("...ij,...j->...i", R, w)


def rotate_state(q: PrimState2D, angle: float) -> PrimState2D:
    """Rotate the velocity vector by angle (radians)."""
    c, s = np.cos(angle), np.sin(angle)
    return PrimState2D(q.rho, c * q.u1 - s * q.u2, s * q.u1 + c * q.u2, q.p)


def rotation_covariance_check(left: PrimState2D, right: PrimState2D,
                              n: FaceNormal, gas: GasModel,
                              angle: float) -> bool:
    """True when rotating both states and the normal rotates the momentum
    flux pair and leaves the mass and energy fluxes unchanged."""
    c, s = np.cos(angle), np.sin(angle)
    n_rot = FaceNormal(c * n.n1 - s * n.n2, s * n.n1 + c * n.n2)
    f_base = flux_kepec_2d(left, right, n, gas)
    f_rot = flux_kepec_2d(rotate_state(left, angle), rotate_state(right, angle),
                          n_rot, gas)
    expected = np.stack(np.broadcast_arrays(
        f_base[..., 0],
        c * f_base[..., 1] - s * f_base[..., 2],
        s * f_base[..., 1] + c * f_base[..., 2],
        f_base[..., 3]), axis=-1)
    return bool(np.all(np.abs(f_rot - expected) <= 1.0e-12))
