"""Scalar and matrix artificial dissipation for the central fluxes.

The scalar operator is a JST-style blend of second and fourth differences
applied to the (rho, u, 1/beta) jump slots of a kinetic-energy and
entropy-stable difference vector D.  The matrix operator is the
entropy-variable form -(1/2) R |Lambda| S R^T dv, where R holds the flux
eigenvectors, S is Barth's scaling with R S R^T equal to the Jacobian
du/dv, and |Lambda| is one of five eigenvalue laws trading accuracy
against robustness.  matrix_dissipation multiplies that product out in
closed form; face_average, eigen_system, eigenvalue_law and assemble_q
build the matrices explicitly and serve as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import (FaceMeans, GasModel, PrimState, entropy_vars_jump,
                     log_mean, sound_speed)

__all__ = [
    "DissipationSpec",
    "FaceAverage",
    "scalar_d_vector",
    "scalar_quadratic_form",
    "jst_switches",
    "jst_dissipation",
    "face_average",
    "eigen_system",
    "eigenvalue_law",
    "assemble_q",
    "matrix_dissipation",
    "MATRIX_LAWS",
    "SCALAR_BETA_AVERAGES",
]

MATRIX_LAWS = ("roe", "ec1", "kes", "rus", "hyb")
SCALAR_BETA_AVERAGES = ("arithmetic", "logarithmic")


@dataclass(frozen=True)
class DissipationSpec:
    """Dissipation selection: none, scalar (JST) or matrix.

    kappa2/kappa4 are the second/fourth-difference switch constants;
    beta_average picks the beta mean inside the scalar energy slot
    (logarithmic makes the entropy production exact); ec1_beta is the
    acoustic eigenvalue augmentation coefficient of the EC1 law.
    """

    kind: str = "none"
    kappa2: float = 0.0
    kappa4: float = 0.0
    beta_average: str = "logarithmic"
    matrix_law: str = "roe"
    ec1_beta: float = 1.0 / 6.0

    def __post_init__(self):
        if self.kind not in ("none", "scalar", "matrix"):
            raise ValueError(f"unknown dissipation kind {self.kind!r}")
        if self.kappa2 < 0 or self.kappa4 < 0:
            raise ValueError("kappa2 and kappa4 must be >= 0")
        if self.beta_average not in SCALAR_BETA_AVERAGES:
            raise ValueError(f"unknown beta_average {self.beta_average!r}")
        if self.matrix_law not in MATRIX_LAWS:
            raise ValueError(f"unknown matrix law {self.matrix_law!r}")
        if self.ec1_beta < 0:
            raise ValueError("ec1_beta must be >= 0")


@dataclass(frozen=True)
class FaceAverage:
    """Face-averaged (rho, u, a, H) feeding the dissipation matrix."""

    rho: object
    u: object
    a: object
    H: object


def _scalar_d_from_jumps(m: FaceMeans, gas: GasModel, beta_average: str,
                         d_rho, d_u, d_inv_beta):
    """Stacked D vector with the three jump slots supplied by the caller,
    and the wave speed lambda = |u_bar| + sqrt(gamma/(2 beta_m))."""
    g = gas.gamma
    beta_m = m.beta_ln if beta_average == "logarithmic" else m.beta_bar
    out = np.empty((3,) + m.shape)
    out[0] = d_rho
    np.add(m.u_bar * d_rho, m.rho_bar * d_u, out=out[1, ...])
    np.add((0.5 / ((g - 1.0) * beta_m) + 0.5 * m.left[1] * m.right[1])
           * d_rho + m.rho_bar * m.u_bar * d_u,
           m.rho_bar / (2.0 * (g - 1.0)) * d_inv_beta, out=out[2, ...])
    lam = np.abs(m.u_bar) + np.sqrt(g / (2.0 * beta_m))
    return out, lam


def scalar_d_vector(left: PrimState, right: PrimState, gas: GasModel,
                    beta_average: str = "logarithmic"):
    """Second-order scalar dissipation vector D, stacked, and the wave speed
    lambda.

    D_rho = d(rho), D_m = d(rho u); the energy slot is chosen so that
    dv . D is a positive quadratic in the jumps (exactly so with the
    logarithmic beta average).  lambda = |u_bar| + sqrt(gamma/(2 beta)).
    """
    m = FaceMeans(left, right)
    # the jumps of the record's sides, which are broadcast against each
    # other, so that the three slots of D stack
    d_rho, d_u = m.right[:2] - m.left[:2]
    # -(d beta)/(beta_L beta_R): algebraically 1/beta_R - 1/beta_L but
    # without the cancellation of two large reciprocals
    d_inv_beta = -(m.beta_r - m.beta_l) / (m.beta_l * m.beta_r)
    return _scalar_d_from_jumps(m, gas, beta_average, d_rho, d_u, d_inv_beta)


def scalar_quadratic_form(left: PrimState, right: PrimState, gas: GasModel):
    """Closed-form value of dv . D for the logarithmic variant:
    (d rho)^2/rho_ln + 2 rho_bar beta_bar (d u)^2
    + rho_bar (d beta)^2 / ((gamma-1) beta_L beta_R).
    """
    g = gas.gamma
    d_rho = right.rho - left.rho
    d_u = right.u - left.u
    d_beta = right.beta - left.beta
    rho_bar = 0.5 * (left.rho + right.rho)
    beta_bar = 0.5 * (left.beta + right.beta)
    rho_ln = log_mean(left.rho, right.rho)
    return (d_rho * d_rho / rho_ln
            + 2.0 * rho_bar * beta_bar * d_u * d_u
            + rho_bar * d_beta * d_beta / ((g - 1.0) * left.beta * right.beta))


def _pressure_sensor(p_m1, p_0, p_1):
    """Cell sensor nu = |p_{j-1} - 2 p_j + p_{j+1}|
    / (p_{j-1} + 2 p_j + p_{j+1})."""
    return np.abs(p_m1 - 2.0 * p_0 + p_1) / (p_m1 + 2.0 * p_0 + p_1)


def _switches(nu_l, nu_r, kappa2, kappa4):
    """(eps2, eps4) of the face between cells with sensors nu_l and nu_r."""
    eps2 = np.minimum(1.0, kappa2 * np.maximum(nu_l, nu_r))
    return eps2, np.maximum(0.0, kappa4 - eps2)


def jst_switches(p_stencil, kappa2, kappa4):
    """Pressure-sensor switches (eps2, eps4) at the face j+1/2.

    p_stencil holds the four pressures (p_{j-1}, p_j, p_{j+1}, p_{j+2});
    the face sensor is the maximum of the two cell sensors
    nu = |p_{j-1} - 2 p_j + p_{j+1}| / (p_{j-1} + 2 p_j + p_{j+1}).
    """
    pm1, p0, p1, p2 = (np.asarray(p, dtype=float) for p in p_stencil)
    return _switches(_pressure_sensor(pm1, p0, p1),
                     _pressure_sensor(p0, p1, p2), kappa2, kappa4)


def jst_dissipation(cells, gas: GasModel, spec: DissipationSpec,
                    eps2=None, eps4=None, means: FaceMeans | None = None):
    """Blended second/fourth-difference dissipation flux of the faces of
    the stacked (rho, u, p) of m cells along the last axis.

    Face j + 1/2, j = 1 .. m - 3, reads the stencil
    (q_{j-1}, q_j, q_{j+1}, q_{j+2}); each jump slot of D is replaced by
    eps2 * (q_{j+1} - q_j) - eps4 * (q_{j+2} - 3 q_{j+1} + 3 q_j - q_{j-1})
    of the (rho, u, 1/beta) slots.  Returns the stacked flux correction
    -(1/2) lambda D of the m - 3 faces.  Pass both switches to override
    the pressure sensor (the solver does this at boundaries).  means is the
    FaceMeans record of the pairs (q_j, q_{j+1}).
    """
    if (eps2 is None) != (eps4 is None):
        raise ValueError("pass both eps2 and eps4, or neither")
    n = cells.shape[-1] - 3
    if eps2 is None:
        p = cells[2]
        eps2, eps4 = jst_switches([p[..., k:k + n] for k in range(4)],
                                  spec.kappa2, spec.kappa4)
    m = (FaceMeans.of_cells(cells, slice(1, n + 1), slice(2, n + 2))
         if means is None else means)
    slots = np.empty(cells.shape)
    slots[:2] = cells[:2]
    slots[2] = 1.0 / (cells[0] / (2.0 * cells[2]))
    fm1, f0, f1, f2 = (slots[..., k:k + n] for k in range(4))
    d_rho, d_u, d_inv_beta = (eps2 * (f1 - f0)
                              - eps4 * (f2 - 3.0 * f1 + 3.0 * f0 - fm1))
    D, lam = _scalar_d_from_jumps(m, gas, spec.beta_average,
                                  d_rho, d_u, d_inv_beta)
    D *= -0.5 * lam
    return D


def face_average(left: PrimState, right: PrimState, gas: GasModel,
                 flux_kind: str = "kepec",
                 means: FaceMeans | None = None) -> FaceAverage:
    """Averaged (rho, u, a, H) for the dissipation matrix.

    The sound speed a = sqrt(gamma/(2 beta_ln)) uses the logarithmic beta
    mean, which is what makes stationary contacts transparent to the
    matrix dissipation.  Pairing with the arithmetic-average central flux
    ("kepec_ac") keeps arithmetic averages here as well, losing that
    property.  The density mean follows the mass-flux average of the
    central flux.
    """
    m = FaceMeans(left, right) if means is None else means
    if flux_kind == "kepec_ac":
        rho_f, beta_m = m.rho_bar, m.beta_bar
    else:
        rho_f, beta_m = m.rho_ln, m.beta_ln
    a_f = np.sqrt(gas.gamma / (2.0 * beta_m))
    H_f = a_f * a_f / (gas.gamma - 1.0) + 0.5 * m.u_bar * m.u_bar
    return FaceAverage(rho_f, m.u_bar, a_f, H_f)


def _eigen_entries(avg: FaceAverage, gas: GasModel):
    """Rows 2 and 3 of R (row 1 is ones) as a (2, 3, ...) array, columns
    (u-a, u, u+a), and the acoustic and entropy-wave entries of S."""
    rho, u, a, H = avg.rho, avg.u, avg.a, avg.H
    g = gas.gamma
    ua = u * a
    rows = np.empty((2, 3) + np.shape(ua))
    np.subtract(u, a, out=rows[0, 0, ...])
    rows[0, 1] = u
    np.add(u, a, out=rows[0, 2, ...])
    np.subtract(H, ua, out=rows[1, 0, ...])
    np.multiply(0.5 * u, u, out=rows[1, 1, ...])
    np.add(H, ua, out=rows[1, 2, ...])
    return rows, rho / (2.0 * g), (g - 1.0) * rho / g


def eigen_system(avg: FaceAverage, gas: GasModel):
    """Eigenvector matrix R and scaling S = diag[rho/2g, (g-1)rho/g, rho/2g].

    Columns of R are ordered (u-a, u, u+a).  With H = a^2/(gamma-1) + u^2/2
    the product R S R^T equals the entropy-variable Jacobian du/dv, so
    Q = R |Lambda| S R^T is symmetric positive semidefinite for any
    nonnegative |Lambda|.
    """
    rows, s_ac, s_mid = _eigen_entries(avg, gas)
    R = np.concatenate((np.ones_like(rows[:1]), rows))
    return (np.ascontiguousarray(np.moveaxis(R, (0, 1), (-2, -1))),
            np.stack([s_ac, s_mid, s_ac], axis=-1))


def eigenvalue_law(u_f, a_f, left: PrimState, right: PrimState,
                   gas: GasModel, spec: DissipationSpec):
    """|Lambda| entries (3,) or (..., 3) for the selected law.

    roe:  (|u-a|, |u|, |u+a|)
    ec1:  roe with the acoustic entries augmented by ec1_beta * |d lambda|
          using the pointwise cell eigenvalues
    kes:  (|u|+a, |u|, |u|+a), equal acoustic entries (kinetic-energy stable)
    rus:  (|u|+a) I
    hyb:  (1-phi) roe + phi rus with phi = clip(sqrt(|dp|/(2 p_bar)), 0, 1)
    """
    u_f, a_f, *fields = np.broadcast_arrays(u_f, a_f, *left, *right)
    m = FaceMeans(fields[:3], fields[3:])
    speeds = np.array((u_f - a_f, u_f, u_f + a_f))
    lam = _law(speeds, a_f, m, gas, spec)
    return np.ascontiguousarray(np.moveaxis(lam, 0, -1))


def _acoustic_speeds(q, gas: GasModel):
    """The acoustic eigenvalues (u - a, u + a) of the states q, stacked."""
    a = sound_speed(q, gas)
    u = q[1]
    out = np.empty((2,) + np.shape(a))
    np.subtract(u, a, out=out[0, ...])
    np.add(u, a, out=out[1, ...])
    return out


def _law(speeds, a_f, m: FaceMeans, gas: GasModel, spec: DissipationSpec):
    """Stacked |Lambda| of eigenvalue_law from the wave speeds
    (u-a, u, u+a) of the face."""
    law = spec.matrix_law
    lam = np.abs(speeds)
    if law == "roe":
        return lam
    if law == "ec1":
        side_l, side_r = m.sides(lambda q: _acoustic_speeds(q, gas))
        lam[::2] += spec.ec1_beta * np.abs(side_r - side_l)
        return lam
    abs_u = lam[1]
    lam_max = abs_u + a_f
    if law == "kes":
        lam[::2] = lam_max
        return lam
    if law == "rus":
        lam[...] = lam_max
        return lam
    if law == "hyb":
        dp = m.right[2] - m.left[2]
        phi = np.clip(np.sqrt(np.abs(dp) / (2.0 * m.p_bar)), 0.0, 1.0)
        return (1.0 - phi) * lam + phi * lam_max
    raise ValueError(f"unknown matrix law {law!r}")


def assemble_q(R, lam, S):
    """Dissipation matrix Q = R |Lambda| S R^T, shape (..., 3, 3)."""
    return np.einsum("...ik,...k,...jk->...ij", R, lam * S, R)


def matrix_dissipation(left: PrimState, right: PrimState, gas: GasModel,
                       spec: DissipationSpec, flux_kind: str = "kepec",
                       means: FaceMeans | None = None) -> np.ndarray:
    """Stacked entropy-variable matrix dissipation -(1/2) R |Lambda| S R^T dv,
    multiplied out in closed form: w = |Lambda| S R^T dv, then R w, formed
    in place."""
    m = FaceMeans(left, right) if means is None else means
    avg = face_average(m.left, m.right, gas, flux_kind, m)
    rows, s_ac, s_mid = _eigen_entries(avg, gas)
    w = _law(rows[0], avg.a, m, gas, spec)
    w[::2] *= s_ac
    w[1] *= s_mid
    # freed before dv is formed, which lowers the peak memory of a stage
    del avg, s_ac, s_mid
    dv = entropy_vars_jump(m.left, m.right, gas, m)
    w *= dv[0] + rows[0] * dv[1] + rows[1] * dv[2]
    rows *= w
    # dv is spent: its workspace takes the result.  The two acoustic waves
    # are summed before the entropy wave is added.
    out = dv
    np.add(w[0], w[2], out=out[0, ...])
    np.add(rows[:, 0], rows[:, 2], out=out[1:])
    out[0] += w[1]
    out[1:] += rows[:, 1]
    out *= -0.5
    return out
