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

from .record import call, empty, run
from .thermo import (FaceMeans, GasModel, PrimState, _check_finite, _evj,
                     _sound_speed, _stacked, entropy_vars_jump, log_mean,
                     sound_speed)

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
        _check_finite(kappa2=self.kappa2, kappa4=self.kappa4,
                      ec1_beta=self.ec1_beta)


@dataclass(frozen=True)
class FaceAverage:
    """Face-averaged (rho, u, a, H) feeding the dissipation matrix."""

    rho: object
    u: object
    a: object
    H: object


def _beta_mean(m: FaceMeans, beta_average: str):
    """The beta mean of the scalar energy slot and wave speed."""
    return m.beta_ln if beta_average == "logarithmic" else m.beta_bar


def _scalar_d(m: FaceMeans, gas: GasModel, beta_m, d_rho, d_u, d_inv_beta,
              out=None):
    """The stacked D vector, with the three jump slots supplied by the
    caller, into out (new unless given), and the wave speed
    lambda = |u_bar| + sqrt(gamma/(2 beta_m))."""
    out = empty(3, *m.shape) if out is None else out
    g = gas.gamma
    u_bar, rho_bar = m.u_bar, m.rho_bar
    out[0] = d_rho
    out[1] = u_bar * d_rho + rho_bar * d_u
    out[2] = ((0.5 / ((g - 1.0) * beta_m) + 0.5 * m.left[1] * m.right[1])
              * d_rho + rho_bar * u_bar * d_u
              + rho_bar / (2.0 * (g - 1.0)) * d_inv_beta)
    c = np.sqrt(g / (2 * beta_m))
    return out, abs(u_bar) + c


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
    return _scalar_d(m, gas, _beta_mean(m, beta_average), d_rho, d_u,
                     d_inv_beta)


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


def _switches(p, kappa2, kappa4, ends):
    """jst_switches (eps2, eps4) of the faces between cells j and j + 1,
    j = 1 .. m - 3, of the pressures p of m cells along the last axis, with
    the sensor nu of each cell j = 1 .. m - 2 formed once.  ends is a pair
    of flags: with the first set, the first of those cells takes the
    sensor of its inner neighbour, and with the second, the last."""
    pm1, p0, p1 = p[..., :-2], p[..., 1:-1], p[..., 2:]
    two_p0 = 2 * p0
    nu = abs(pm1 - two_p0 + p1) / (pm1 + two_p0 + p1)
    if ends[0]:
        nu[..., 0] = nu[..., 1]
    if ends[1]:
        nu[..., -1] = nu[..., -2]
    eps2 = np.minimum(1, kappa2 * np.maximum(nu[..., :-1], nu[..., 1:]))
    return eps2, np.maximum(0, kappa4 - eps2)


def jst_switches(p_stencil, kappa2, kappa4):
    """Pressure-sensor switches (eps2, eps4) at the face j+1/2.

    p_stencil holds the four pressures (p_{j-1}, p_j, p_{j+1}, p_{j+2});
    the face sensor is the maximum of the two cell sensors
    nu = |p_{j-1} - 2 p_j + p_{j+1}| / (p_{j-1} + 2 p_j + p_{j+1}).
    """
    p = np.stack(np.broadcast_arrays(*p_stencil), axis=-1).astype(float)
    eps2, eps4 = _switches(p, kappa2, kappa4, (False, False))
    return eps2[..., 0], eps4[..., 0]


def _jst(cells, m: FaceMeans, gas: GasModel, spec: DissipationSpec, ends,
         beta, out=None):
    """jst_dissipation's formula for the stacked (rho, u, p) of k cells
    along the last axis, the record m of their inner pairs, the (first,
    last) end flags and beta (None, or the cells' beta), into out (new
    unless given)."""
    n = cells.shape[-1] - 3
    eps2, eps4 = _switches(cells[2], spec.kappa2, spec.kappa4, ends)
    # the slots (rho, u, 1/beta) of the cells
    slots = empty(*cells.shape)
    slots[:2] = cells[:2]
    if beta is None:
        beta = cells[0] / (2 * cells[2])
    slots[2] = 1 / beta
    # 3 f1 and 3 f0 are slices of one scaled copy of the slots
    three = 3 * slots
    fm1, f0, f1, f2 = (slots[..., k:k + n] for k in range(4))
    jumps = (eps2 * (f1 - f0)
             - eps4 * (f2 - three[..., 2:2 + n] + three[..., 1:1 + n] - fm1))
    out, lam = _scalar_d(m, gas, _beta_mean(m, spec.beta_average), *jumps,
                         out)
    out *= -0.5 * lam
    return out


def jst_dissipation(cells, m: FaceMeans, gas: GasModel,
                    spec: DissipationSpec, end_rule: bool | tuple = False,
                    beta=None, work=None):
    """Blended second/fourth-difference dissipation flux of the faces of
    the stacked (rho, u, p) of k cells along the last axis.

    Face j + 1/2, j = 1 .. k - 3, reads the stencil
    (q_{j-1}, q_j, q_{j+1}, q_{j+2}); each jump slot of D is replaced by
    eps2 * (q_{j+1} - q_j) - eps4 * (q_{j+2} - 3 q_{j+1} + 3 q_j - q_{j-1})
    of the (rho, u, 1/beta) slots, with the pressure-sensor switches of
    jst_switches.  With end_rule, which the stage sets at non-periodic
    boundaries, the first and the last face read the sensor of their inner
    cell in place of the outer one's; a (first, last) pair of flags sets
    the rule at each end alone, as a stage window that holds one end of
    the grid does.  Returns the stacked flux correction -(1/2) lambda D of
    the k - 3 faces.  m is the FaceMeans record of the pairs (q_j,
    q_{j+1}); beta, when given, is rho / (2 p) of the cells, as the
    stage's cell block holds it.  work is as record.run takes it.
    """
    ends = end_rule if isinstance(end_rule, tuple) else (end_rule,) * 2
    return run(work, _jst, cells, m, gas, spec, ends, beta)


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
    lam = np.empty(speeds.shape)
    _law(speeds, a_f, m, gas, spec, lam)
    return np.ascontiguousarray(np.moveaxis(lam, 0, -1))


def _law(speeds, a_f, m: FaceMeans, gas: GasModel, spec: DissipationSpec,
         lam):
    """The stacked |Lambda| of eigenvalue_law from the wave speeds (u - a,
    u, u + a) and the sound speed a_f of the face, into lam."""
    law = spec.matrix_law
    np.abs(speeds, out=lam)
    if law == "roe":
        return
    if law == "ec1":
        # the acoustic eigenvalues of the cells, and the jump of each
        # across its face
        cells = m._cells
        a = call(sound_speed, _sound_speed, cells, gas,
                 empty(*cells.shape[1:]))
        ac = empty(2, *a.shape)
        ac[0] = cells[1] - a
        ac[1] = cells[1] + a
        side_l, side_r = m._side_views(ac)
        lam[::2] += spec.ec1_beta * abs(side_r - side_l)
        return
    if law not in ("kes", "rus", "hyb"):
        raise ValueError(f"unknown matrix law {law!r}")
    lam_max = lam[1] + a_f
    if law == "kes":
        lam[::2] = lam_max
    elif law == "rus":
        lam[...] = lam_max
    else:
        # phi = clip(sqrt(|dp|/(2 p_bar)), 0, 1): the root is >= 0 or NaN,
        # so the upper bound alone gives the same value; then
        # (1 - phi) lam + phi lam_max
        phi = np.minimum(np.sqrt(abs(m.right[2] - m.left[2])
                                 / (2 * m.p_bar)), 1)
        np.multiply(1 - phi, lam, out=lam)
        lam += phi * lam_max


def assemble_q(R, lam, S):
    """Dissipation matrix Q = R |Lambda| S R^T, shape (..., 3, 3)."""
    return np.einsum("...ik,...k,...jk->...ij", R, lam * S, R)


def _matrix(m: FaceMeans, gas: GasModel, spec: DissipationSpec,
            flux_kind: str, out=None):
    """matrix_dissipation's formula, into out (new unless given), which
    the entropy-variable jump takes first."""
    out = empty(3, *m.shape) if out is None else out
    g = gas.gamma
    rho, beta = _rho_beta(m, flux_kind)
    u = m.u_bar
    # R is a row of ones over the rows (u - a, u, u + a) and (H - u a,
    # u^2/2, H + u a), H = a^2/(gamma - 1) + u^2/2; the first row of the
    # block holds w in place of the ones
    R = empty(3, 3, *m.shape)
    w, speeds, enthalpies = R
    a = np.sqrt(g / (2 * beta))
    enthalpies[1] = 0.5 * u * u
    H = a * a / (g - 1.0) + enthalpies[1]
    ua = u * a
    speeds[0] = u - a
    speeds[1] = u
    speeds[2] = u + a
    enthalpies[0] = H - ua
    enthalpies[2] = H + ua
    _law(speeds, a, m, gas, spec, w)
    # S: the acoustic rows of w are scaled by rho/(2 gamma), the entropy
    # row by (gamma - 1) rho/gamma
    s_ac = rho / (2.0 * g)
    w[0] *= s_ac
    w[2] *= s_ac
    w[1] *= (g - 1.0) * rho / g
    dv0, dv1, dv2 = call(entropy_vars_jump, _evj, m, gas, out)
    w *= dv0 + speeds * dv1 + enthalpies * dv2
    speeds *= w
    enthalpies *= w
    # dv is spent: it takes R w.  The two acoustic waves are summed before
    # the entropy wave is added.
    np.add(R[:, 0], R[:, 2], out=out)
    out += R[:, 1]
    out *= -0.5
    return out


def matrix_dissipation(m: FaceMeans, gas: GasModel, spec: DissipationSpec,
                       flux_kind: str = "kepec", work=None) -> np.ndarray:
    """Stacked entropy-variable matrix dissipation -(1/2) R |Lambda| S R^T dv
    of the pairs of m, multiplied out in closed form: w = |Lambda| S R^T dv,
    then R w, formed in place.  The averages (rho, u, a, H) are
    face_average's, and each face quantity is formed once.  work is as
    record.run takes it."""
    return run(work, _matrix, m, gas, spec, flux_kind)
