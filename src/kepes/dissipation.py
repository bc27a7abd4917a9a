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

from .fluxes import FluxVector
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
    """D vector with the three jump slots supplied by the caller, and the
    wave speed lambda = |u_bar| + sqrt(gamma/(2 beta_m))."""
    g = gas.gamma
    beta_m = m.beta_ln if beta_average == "logarithmic" else m.beta_bar
    d_m = m.u_bar * d_rho + m.rho_bar * d_u
    d_e = ((0.5 / ((g - 1.0) * beta_m) + 0.5 * m.left.u * m.right.u) * d_rho
           + m.rho_bar * m.u_bar * d_u
           + m.rho_bar / (2.0 * (g - 1.0)) * d_inv_beta)
    lam = np.abs(m.u_bar) + np.sqrt(g / (2.0 * beta_m))
    return FluxVector(d_rho, d_m, d_e), lam


def scalar_d_vector(left: PrimState, right: PrimState, gas: GasModel,
                    beta_average: str = "logarithmic"):
    """Second-order scalar dissipation vector D and the wave speed lambda.

    D_rho = d(rho), D_m = d(rho u); the energy slot is chosen so that
    dv . D is a positive quadratic in the jumps (exactly so with the
    logarithmic beta average).  lambda = |u_bar| + sqrt(gamma/(2 beta)).
    """
    m = FaceMeans(left, right)
    d_rho = right.rho - left.rho
    d_u = right.u - left.u
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


def jst_switches(p_stencil, kappa2, kappa4):
    """Pressure-sensor switches (eps2, eps4) at the face j+1/2.

    p_stencil holds the four pressures (p_{j-1}, p_j, p_{j+1}, p_{j+2});
    the face sensor is the maximum of the two cell sensors
    nu = |p_{j-1} - 2 p_j + p_{j+1}| / (p_{j-1} + 2 p_j + p_{j+1}).
    """
    pm1, p0, p1, p2 = (np.asarray(p, dtype=float) for p in p_stencil)
    nu_l = np.abs(pm1 - 2.0 * p0 + p1) / (pm1 + 2.0 * p0 + p1)
    nu_r = np.abs(p0 - 2.0 * p1 + p2) / (p0 + 2.0 * p1 + p2)
    nu = np.maximum(nu_l, nu_r)
    eps2 = np.minimum(1.0, kappa2 * nu)
    eps4 = np.maximum(0.0, kappa4 - eps2)
    return eps2, eps4


def jst_dissipation(stencil, gas: GasModel, spec: DissipationSpec,
                    eps2=None, eps4=None, means: FaceMeans | None = None):
    """Blended second/fourth-difference dissipation flux at the face.

    stencil holds the four cell states (q_{j-1}, q_j, q_{j+1}, q_{j+2});
    each jump slot of D is replaced by
    eps2 * (q_{j+1} - q_j) - eps4 * (q_{j+2} - 3 q_{j+1} + 3 q_j - q_{j-1}).
    Returns the flux correction -(1/2) lambda D.  Pass precomputed
    switches to override the pressure sensor (the solver does this at
    boundaries).  means is the FaceMeans record of (q_j, q_{j+1}).
    """
    qm1, q0, q1, q2 = stencil
    if eps2 is None or eps4 is None:
        eps2, eps4 = jst_switches((qm1.p, q0.p, q1.p, q2.p),
                                  spec.kappa2, spec.kappa4)

    def blend(fm1, f0, f1, f2):
        return eps2 * (f1 - f0) - eps4 * (f2 - 3.0 * f1 + 3.0 * f0 - fm1)

    d_rho = blend(qm1.rho, q0.rho, q1.rho, q2.rho)
    d_u = blend(qm1.u, q0.u, q1.u, q2.u)
    m = FaceMeans(q0, q1) if means is None else means
    d_inv_beta = blend(1.0 / qm1.beta, 1.0 / m.beta_l,
                       1.0 / m.beta_r, 1.0 / q2.beta)
    D, lam = _scalar_d_from_jumps(m, gas, spec.beta_average,
                                  d_rho, d_u, d_inv_beta)
    return D * (-0.5 * lam)


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
    """Rows 2 and 3 of R (row 1 is ones) and the acoustic and entropy-wave
    entries of S."""
    rho, u, a, H = avg.rho, avg.u, avg.a, avg.H
    g = gas.gamma
    return ((u - a, u, u + a),
            (H - u * a, 0.5 * u * u, H + u * a),
            (rho / (2.0 * g), (g - 1.0) * rho / g))


def eigen_system(avg: FaceAverage, gas: GasModel):
    """Eigenvector matrix R and scaling S = diag[rho/2g, (g-1)rho/g, rho/2g].

    Columns of R are ordered (u-a, u, u+a).  With H = a^2/(gamma-1) + u^2/2
    the product R S R^T equals the entropy-variable Jacobian du/dv, so
    Q = R |Lambda| S R^T is symmetric positive semidefinite for any
    nonnegative |Lambda|.
    """
    speeds, enthalpies, (s_ac, s_mid) = _eigen_entries(avg, gas)
    one = np.ones_like(avg.u)
    R = np.stack([
        np.stack([one, one, one], axis=-1),
        np.stack(speeds, axis=-1),
        np.stack(enthalpies, axis=-1),
    ], axis=-2)
    S = np.stack([s_ac, s_mid, s_ac], axis=-1)
    return R, S


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
    return np.stack(_law_components(u_f, a_f, left, right, gas, spec), axis=-1)


def _law_components(u_f, a_f, left: PrimState, right: PrimState,
                    gas: GasModel, spec: DissipationSpec):
    """The three |Lambda| entries of eigenvalue_law, as a tuple."""
    law = spec.matrix_law
    abs_u = np.abs(u_f)
    if law == "roe":
        return np.abs(u_f - a_f), abs_u, np.abs(u_f + a_f)
    if law == "ec1":
        a_l = sound_speed(left, gas)
        a_r = sound_speed(right, gas)
        d1 = np.abs((right.u - a_r) - (left.u - a_l))
        d3 = np.abs((right.u + a_r) - (left.u + a_l))
        return (np.abs(u_f - a_f) + spec.ec1_beta * d1, abs_u,
                np.abs(u_f + a_f) + spec.ec1_beta * d3)
    lam_max = abs_u + a_f
    if law == "kes":
        return lam_max, abs_u, lam_max
    if law == "rus":
        return lam_max, lam_max, lam_max
    if law == "hyb":
        p_bar = 0.5 * (left.p + right.p)
        phi = np.clip(np.sqrt(np.abs(right.p - left.p) / (2.0 * p_bar)), 0.0, 1.0)
        blend = phi * lam_max
        return ((1.0 - phi) * np.abs(u_f - a_f) + blend,
                (1.0 - phi) * abs_u + blend,
                (1.0 - phi) * np.abs(u_f + a_f) + blend)
    raise ValueError(f"unknown matrix law {law!r}")


def assemble_q(R, lam, S):
    """Dissipation matrix Q = R |Lambda| S R^T, shape (..., 3, 3)."""
    return np.einsum("...ik,...k,...jk->...ij", R, lam * S, R)


def matrix_dissipation(left: PrimState, right: PrimState, gas: GasModel,
                       spec: DissipationSpec, flux_kind: str = "kepec",
                       means: FaceMeans | None = None) -> FluxVector:
    """Entropy-variable matrix dissipation -(1/2) R |Lambda| S R^T dv,
    multiplied out in closed form: w = |Lambda| S R^T dv, then R w."""
    m = FaceMeans(left, right) if means is None else means
    avg = face_average(left, right, gas, flux_kind, m)
    (c1, c2, c3), (h1, h2, h3), (s_ac, s_mid) = _eigen_entries(avg, gas)
    lam1, lam2, lam3 = _law_components(avg.u, avg.a, left, right, gas, spec)
    dv = entropy_vars_jump(left, right, gas, m)
    w1 = (lam1 * s_ac) * (dv.v1 + c1 * dv.v2 + h1 * dv.v3)
    w2 = (lam2 * s_mid) * (dv.v1 + c2 * dv.v2 + h2 * dv.v3)
    w3 = (lam3 * s_ac) * (dv.v1 + c3 * dv.v2 + h3 * dv.v3)
    # the two acoustic waves are summed before the entropy wave is added
    return FluxVector(-0.5 * ((w1 + w3) + w2),
                      -0.5 * ((c1 * w1 + c3 * w3) + c2 * w2),
                      -0.5 * ((h1 * w1 + h3 * w3) + h2 * w2))
