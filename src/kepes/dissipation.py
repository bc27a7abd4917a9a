"""Scalar and matrix artificial dissipation for the central fluxes.

The scalar operator is a JST-style blend of second and fourth differences
applied to the (rho, u, 1/beta) jump slots of a kinetic-energy and
entropy-stable difference vector D.  The matrix operator is the
entropy-variable form -(1/2) R |Lambda| S R^T dv, where R holds the flux
eigenvectors, S is Barth's scaling with R S R^T equal to the Jacobian
du/dv, and |Lambda| is one of five eigenvalue laws trading accuracy
against robustness.  matrix_dissipation multiplies that product out in
closed form; face_average, eigen_system, eigenvalue_law and assemble_q
build the matrices explicitly and serve as its reference.  A kernel of
face pairs takes their FaceMeans record as its one pair input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import (_HALF, _NEG_HALF, _ONE, _THREE, _TWO, _ZERO, FaceMeans,
                     GasModel, PrimState, _constant, _stacked,
                     entropy_vars_jump, log_mean, sound_speed)

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
        if not (self.kappa2 >= 0 and self.kappa4 >= 0):
            raise ValueError("kappa2 and kappa4 must be >= 0")
        if self.beta_average not in SCALAR_BETA_AVERAGES:
            raise ValueError(f"unknown beta_average {self.beta_average!r}")
        if self.matrix_law not in MATRIX_LAWS:
            raise ValueError(f"unknown matrix law {self.matrix_law!r}")
        if not self.ec1_beta >= 0:
            raise ValueError("ec1_beta must be >= 0")

    # the stage's ufunc operands
    _kappa2 = _constant(lambda spec: spec.kappa2)
    _kappa4 = _constant(lambda spec: spec.kappa4)
    _ec1_beta = _constant(lambda spec: spec.ec1_beta)


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
    beta_m = m.beta_ln if beta_average == "logarithmic" else m.beta_bar
    out = np.empty((3,) + m.shape)
    out[0] = d_rho
    np.add(m.u_bar * d_rho, m.rho_bar * d_u, out=out[1, ...])
    np.add((_HALF / (gas._gm1 * beta_m) + _HALF * m.left[1] * m.right[1])
           * d_rho + m.rho_bar * m.u_bar * d_u,
           m.rho_bar / gas._two_gm1 * d_inv_beta, out=out[2, ...])
    lam = np.abs(m.u_bar) + np.sqrt(gas._gamma / (_TWO * beta_m))
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


def _switches(p, kappa2, kappa4, end_rule=False):
    """jst_switches of the faces between cells j and j + 1, j = 1 .. m - 3,
    of the pressures p of m cells along the last axis, with the sensor of
    each cell j = 1 .. m - 2 formed once.  With end_rule the first and the
    last of those cells take the sensor of their inner neighbour."""
    pm1, p1 = p[..., :-2], p[..., 2:]
    two_p0 = _TWO * p[..., 1:-1]
    nu = np.abs(pm1 - two_p0 + p1) / (pm1 + two_p0 + p1)
    if end_rule:
        nu[..., 0] = nu[..., 1]
        nu[..., -1] = nu[..., -2]
    eps2 = np.minimum(_ONE, kappa2 * np.maximum(nu[..., :-1], nu[..., 1:]))
    return eps2, np.maximum(_ZERO, kappa4 - eps2)


def jst_switches(p_stencil, kappa2, kappa4):
    """Pressure-sensor switches (eps2, eps4) at the face j+1/2.

    p_stencil holds the four pressures (p_{j-1}, p_j, p_{j+1}, p_{j+2});
    the face sensor is the maximum of the two cell sensors
    nu = |p_{j-1} - 2 p_j + p_{j+1}| / (p_{j-1} + 2 p_j + p_{j+1}).
    """
    p = np.stack(np.broadcast_arrays(*p_stencil), axis=-1).astype(float)
    eps2, eps4 = _switches(p, kappa2, kappa4)
    return eps2[..., 0], eps4[..., 0]


def jst_dissipation(cells, m: FaceMeans, gas: GasModel,
                    spec: DissipationSpec, end_rule: bool = False,
                    beta=None):
    """Blended second/fourth-difference dissipation flux of the faces of
    the stacked (rho, u, p) of k cells along the last axis.

    Face j + 1/2, j = 1 .. k - 3, reads the stencil
    (q_{j-1}, q_j, q_{j+1}, q_{j+2}); each jump slot of D is replaced by
    eps2 * (q_{j+1} - q_j) - eps4 * (q_{j+2} - 3 q_{j+1} + 3 q_j - q_{j-1})
    of the (rho, u, 1/beta) slots, with the pressure-sensor switches of
    jst_switches.  With end_rule, which the stage sets at non-periodic
    boundaries, the first and the last face read the sensor of their inner
    cell in place of the outer one's.  Returns the stacked flux
    correction -(1/2) lambda D of the k - 3 faces.  m is the FaceMeans
    record of the pairs (q_j, q_{j+1}); beta, when given, is
    rho / (2 p) of the cells, as the stage's cell block holds it.
    """
    n = cells.shape[-1] - 3
    eps2, eps4 = _switches(cells[2], spec._kappa2, spec._kappa4, end_rule)
    slots = np.empty(cells.shape)
    slots[:2] = cells[:2]
    if beta is None:
        beta = cells[0] / (_TWO * cells[2])
    slots[2] = _ONE / beta
    fm1, f0, f1, f2 = (slots[..., k:k + n] for k in range(4))
    # 3 f1 and 3 f0 are slices of one scaled copy of the slots
    three = _THREE * slots
    d_rho, d_u, d_inv_beta = (eps2 * (f1 - f0)
                              - eps4 * (f2 - three[..., 2:2 + n]
                                        + three[..., 1:1 + n] - fm1))
    D, lam = _scalar_d_from_jumps(m, gas, spec.beta_average,
                                  d_rho, d_u, d_inv_beta)
    D *= _NEG_HALF * lam
    return D


def face_average(m: FaceMeans, gas: GasModel,
                 flux_kind: str = "kepec") -> FaceAverage:
    """Averaged (rho, u, a, H) of the pairs of m for the dissipation matrix.

    The sound speed a = sqrt(gamma/(2 beta_ln)) uses the logarithmic beta
    mean, which is what makes stationary contacts transparent to the
    matrix dissipation.  Pairing with the arithmetic-average central flux
    ("kepec_ac") keeps arithmetic averages here as well, losing that
    property.  The density mean follows the mass-flux average of the
    central flux.  matrix_dissipation forms the same averages inline.
    """
    rho_f, beta_m = _rho_beta(m, flux_kind)
    a_f = np.sqrt(gas.gamma / (2.0 * beta_m))
    H_f = a_f * a_f / (gas.gamma - 1.0) + 0.5 * m.u_bar * m.u_bar
    return FaceAverage(rho_f, m.u_bar, a_f, H_f)


def _rho_beta(m: FaceMeans, flux_kind: str):
    """The density and beta means of the dissipation matrix: arithmetic
    beside the kepec_ac flux, logarithmic otherwise."""
    if flux_kind == "kepec_ac":
        return m.rho_bar, m.beta_bar
    return m.rho_ln, m.beta_ln


def eigen_system(avg: FaceAverage, gas: GasModel):
    """Eigenvector matrix R and scaling S = diag[rho/2g, (g-1)rho/g, rho/2g].

    Columns of R are ordered (u-a, u, u+a).  With H = a^2/(gamma-1) + u^2/2
    the product R S R^T equals the entropy-variable Jacobian du/dv, so
    Q = R |Lambda| S R^T is symmetric positive semidefinite for any
    nonnegative |Lambda|.
    """
    rho, u, a, H = avg.rho, avg.u, avg.a, avg.H
    g = gas.gamma
    ua = u * a
    R = _stacked(1.0, 1.0, 1.0, u - a, u, u + a, H - ua, 0.5 * u * u, H + ua)
    R = np.moveaxis(R.reshape((3, 3) + R.shape[1:]), (0, 1), (-2, -1))
    s_ac = rho / (2.0 * g)
    return (np.ascontiguousarray(R),
            np.stack(np.broadcast_arrays(s_ac, (g - 1.0) * rho / g, s_ac),
                     axis=-1))


def eigenvalue_law(u_f, a_f, m: FaceMeans, gas: GasModel,
                   spec: DissipationSpec):
    """|Lambda| entries (3,) or (..., 3) for the selected law, of the pairs
    of the record m and their face speeds u_f, a_f (broadcast to m.shape).

    roe:  (|u-a|, |u|, |u+a|)
    ec1:  roe with the acoustic entries augmented by ec1_beta * |d lambda|
          using the pointwise cell eigenvalues
    kes:  (|u|+a, |u|, |u|+a), equal acoustic entries (kinetic-energy stable)
    rus:  (|u|+a) I
    hyb:  (1-phi) roe + phi rus with phi = clip(sqrt(|dp|/(2 p_bar)), 0, 1)
    """
    u_f, a_f = (np.broadcast_to(x, m.shape) for x in (u_f, a_f))
    speeds = np.array((u_f - a_f, u_f, u_f + a_f))
    lam = _law(speeds, a_f, m, gas, spec)
    return np.ascontiguousarray(np.moveaxis(lam, 0, -1))


def _acoustic_speeds(q, gas: GasModel):
    """The acoustic eigenvalues (u - a, u + a) of the states q, stacked."""
    a = sound_speed(q, gas)
    u = q[1]
    out = np.empty((2,) + a.shape)
    np.subtract(u, a, out[0, ...])
    np.add(u, a, out[1, ...])
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
        lam[::2] += spec._ec1_beta * np.abs(side_r - side_l)
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
        # phi = clip(sqrt(|dp|/(2 p_bar)), 0, 1): the root is >= 0 or NaN,
        # so the upper bound alone gives the same value
        dp = m.right[2] - m.left[2]
        phi = np.minimum(np.sqrt(np.abs(dp) / (_TWO * m.p_bar)), _ONE)
        return (_ONE - phi) * lam + phi * lam_max
    raise ValueError(f"unknown matrix law {law!r}")


def assemble_q(R, lam, S):
    """Dissipation matrix Q = R |Lambda| S R^T, shape (..., 3, 3)."""
    return np.einsum("...ik,...k,...jk->...ij", R, lam * S, R)


def matrix_dissipation(m: FaceMeans, gas: GasModel, spec: DissipationSpec,
                       flux_kind: str = "kepec") -> np.ndarray:
    """Stacked entropy-variable matrix dissipation -(1/2) R |Lambda| S R^T dv
    of the pairs of m, multiplied out in closed form: w = |Lambda| S R^T dv,
    then R w, formed in place.  The averages (rho, u, a, H) are
    face_average's, and each face quantity is formed once."""
    rho, beta = _rho_beta(m, flux_kind)
    u = m.u_bar
    a = np.sqrt(gas._gamma / (_TWO * beta))
    # rows 2 and 3 of R (row 1 is ones), columns (u - a, u, u + a) and
    # (H - u a, u^2/2, H + u a) with H = a^2/(gamma - 1) + u^2/2
    rows = np.empty((2, 3) + m.shape)
    half_u2 = np.multiply(_HALF * u, u, rows[1, 1, ...])
    H = a * a / gas._gm1 + half_u2
    ua = u * a
    np.subtract(u, a, rows[0, 0, ...])
    rows[0, 1] = u
    np.add(u, a, rows[0, 2, ...])
    np.subtract(H, ua, rows[1, 0, ...])
    np.add(H, ua, rows[1, 2, ...])
    w = _law(rows[0], a, m, gas, spec)
    # S: the views are scaled in place (w[k] *= would write them back)
    w_ac, w_mid = w[::2], w[1, ...]
    w_ac *= rho / gas._two_gamma
    w_mid *= gas._gm1 * rho / gas._gamma
    # freed before dv is formed, which lowers the peak memory of a stage
    del a, H, ua
    dv = entropy_vars_jump(m, gas)
    w *= dv[0] + rows[0] * dv[1] + rows[1] * dv[2]
    rows *= w
    # dv is spent: its workspace takes the result.  The two acoustic waves
    # are summed before the entropy wave is added.
    out = dv
    out0, out12 = out[0, ...], out[1:]
    np.add(w[0], w[2], out0)
    np.add(rows[:, 0], rows[:, 2], out12)
    out0 += w_mid
    out12 += rows[:, 1]
    out *= _NEG_HALF
    return out
