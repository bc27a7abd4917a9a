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
from functools import partial

import numpy as np

from .thermo import (_HALF, _NEG_HALF, _ONE, _THREE, _TWO, _ZERO, FaceMeans,
                     GasModel, PrimState, _calls, _check_finite, _constant,
                     _copy, _evj_work, _run, _Scratch, _stacked,
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
        _check_finite(kappa2=self.kappa2, kappa4=self.kappa4,
                      ec1_beta=self.ec1_beta)

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


def _beta_mean(m: FaceMeans, beta_average: str):
    """The beta mean of the scalar energy slot and wave speed, as a
    kernel binds it (FaceMeans._ln_operands)."""
    return (m._ln_operands[1] if beta_average == "logarithmic"
            else m.beta_bar)


def _scalar_d_calls(m: FaceMeans, gas: GasModel, beta_m, d_rho, d_u,
                    d_inv_beta, scratch, out=None):
    """The calls that form the stacked D vector, with the three jump slots
    supplied by the caller, into out, new unless given, and the wave
    speed lambda = |u_bar| + sqrt(gamma/(2 beta_m)) into a temporary;
    returns out, lambda and the calls, whose temporaries (two, then
    lambda) come from scratch."""
    if out is None:
        out = np.empty((3,) + m.shape)
    t1, t2, lam = (scratch.take(*m.shape) for _ in range(3))
    u_bar, rho_bar = m.u_bar, m.rho_bar
    return out, lam, [
        _copy(out[0, ...], d_rho),
        (np.multiply, u_bar, d_rho, t1), (np.multiply, rho_bar, d_u, t2),
        (np.add, t1, t2, out[1, ...]),
        (np.multiply, gas._gm1, beta_m, t1), (np.divide, _HALF, t1, t1),
        (np.multiply, _HALF, m.left[1, ...], t2),
        (np.multiply, t2, m.right[1, ...], t2),
        (np.add, t1, t2, t1), (np.multiply, t1, d_rho, t1),
        (np.multiply, rho_bar, u_bar, t2), (np.multiply, t2, d_u, t2),
        (np.add, t1, t2, t1),
        (np.divide, rho_bar, gas._two_gm1, t2),
        (np.multiply, t2, d_inv_beta, t2), (np.add, t1, t2, out[2, ...]),
        (np.multiply, _TWO, beta_m, t1), (np.divide, gas._gamma, t1, t1),
        (np.sqrt, t1, t1), (np.abs, u_bar, lam), (np.add, lam, t1, lam)]


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
    D, lam, calls = _scalar_d_calls(m, gas, _beta_mean(m, beta_average),
                                    d_rho, d_u, d_inv_beta, _Scratch())
    _run(calls)
    return D, lam


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


def _switch_calls(p, kappa2, kappa4, ends, eps2, eps4, scratch):
    """The calls that form jst_switches of the faces between cells j and
    j + 1, j = 1 .. m - 3, of the pressures p of m cells along the last
    axis into eps2 and eps4, with the sensor nu of each cell j = 1 .. m -
    2 formed once, and 2 p_0, nu and a temporary from scratch.  ends is a
    pair of flags: with the first set, the first of those cells takes the
    sensor of its inner neighbour, and with the second, the last."""
    inner = p.shape[:-1] + (p.shape[-1] - 2,)
    two_p0, nu, t = (scratch.take(*inner) for _ in range(3))
    pm1, p0, p1 = p[..., :-2], p[..., 1:-1], p[..., 2:]
    calls = [
        (np.multiply, _TWO, p0, two_p0), (np.subtract, pm1, two_p0, nu),
        (np.add, nu, p1, nu), (np.abs, nu, nu),
        (np.add, pm1, two_p0, t), (np.add, t, p1, t),
        (np.divide, nu, t, nu)]
    if ends[0]:
        calls.append(_copy(nu[..., 0], nu[..., 1]))
    if ends[1]:
        calls.append(_copy(nu[..., -1], nu[..., -2]))
    return calls + [
        (partial(np.maximum, out=eps2), nu[..., :-1], nu[..., 1:]),
        (np.multiply, kappa2, eps2, eps2),
        (partial(np.minimum, out=eps2), _ONE, eps2),
        (np.subtract, kappa4, eps2, eps4),
        (partial(np.maximum, out=eps4), _ZERO, eps4)]


def jst_switches(p_stencil, kappa2, kappa4):
    """Pressure-sensor switches (eps2, eps4) at the face j+1/2.

    p_stencil holds the four pressures (p_{j-1}, p_j, p_{j+1}, p_{j+2});
    the face sensor is the maximum of the two cell sensors
    nu = |p_{j-1} - 2 p_j + p_{j+1}| / (p_{j-1} + 2 p_j + p_{j+1}).
    """
    p = np.stack(np.broadcast_arrays(*p_stencil), axis=-1).astype(float)
    eps2, eps4 = np.empty(p.shape[:-1] + (1,)), np.empty(p.shape[:-1] + (1,))
    _run(_switch_calls(p, kappa2, kappa4, (False, False), eps2, eps4,
                       _Scratch()))
    return eps2[..., 0], eps4[..., 0]


def _jst_work(cells, m: FaceMeans, gas: GasModel, spec: DissipationSpec,
              ends, beta, scratch, out=None):
    """jst_dissipation's work for the stacked (rho, u, p) of k cells along
    the last axis, the record m of their inner pairs, the (first, last)
    end flags and beta (None, or the cells' beta): the stacked result
    out, new unless given, and the calls, with the switches, the jumps,
    the slots (rho, u, 1/beta) of the cells, their three-fold copy, a
    temporary and D's temporaries from scratch."""
    faces = cells.shape[1:-1] + (cells.shape[-1] - 3,)
    n = faces[-1]
    eps2, eps4, jumps = (scratch.take(*faces), scratch.take(*faces),
                         scratch.take(3, *faces))
    at = scratch.at
    calls = _switch_calls(cells[2, ...], spec._kappa2, spec._kappa4, ends,
                          eps2, eps4, scratch)
    scratch.at = at
    slots, three = scratch.take(*cells.shape), scratch.take(*cells.shape)
    t = scratch.take(3, *faces)
    slot_b = slots[2, ...]
    fm1, f0, f1, f2 = (slots[..., k:k + n] for k in range(4))
    calls.append(_copy(slots[:2], cells[:2]))
    if beta is None:
        calls += [(np.multiply, _TWO, cells[2, ...], slot_b),
                  (np.divide, cells[0, ...], slot_b, slot_b)]
        beta = slot_b
    calls += [
        (np.divide, _ONE, beta, slot_b),
        # 3 f1 and 3 f0 are slices of one scaled copy of the slots
        (np.multiply, _THREE, slots, three),
        (np.subtract, f1, f0, jumps),
        (np.multiply, eps2, jumps, jumps),
        (np.subtract, f2, three[..., 2:2 + n], t),
        (np.add, t, three[..., 1:1 + n], t),
        (np.subtract, t, fm1, t),
        (np.multiply, eps4, t, t),
        (np.subtract, jumps, t, jumps)]
    scratch.at = at
    out, lam, d_calls = _scalar_d_calls(
        m, gas, _beta_mean(m, spec.beta_average), jumps[0, ...],
        jumps[1, ...], jumps[2, ...], scratch, out)
    return out, _calls(calls + d_calls + [(np.multiply, _NEG_HALF, lam, lam),
                                          (np.multiply, out, lam, out)])


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
    the grid does.  Returns the stacked flux
    correction -(1/2) lambda D of the k - 3 faces.  m is the FaceMeans
    record of the pairs (q_j, q_{j+1}); beta, when given, is
    rho / (2 p) of the cells, as the stage's cell block holds it.  work,
    when given, is _jst_work's for these cells, m, end_rule and beta.
    """
    # a log mean is formed before any temporary of work is written
    if spec.beta_average == "logarithmic":
        m.beta_ln
    if work is None:
        ends = end_rule if isinstance(end_rule, tuple) else (end_rule,) * 2
        work = _jst_work(cells, m, gas, spec, ends, beta, _Scratch())
    out, calls = work
    for f, a in calls:
        f(*a)
    return out


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
    """The density and beta means of the dissipation matrix, as a kernel
    binds them: arithmetic beside the kepec_ac flux, logarithmic
    otherwise."""
    if flux_kind == "kepec_ac":
        return m.rho_bar, m.beta_bar
    return m._ln_operands


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
    _run(_law_calls(speeds, a_f, m, gas, spec, lam, _Scratch()))
    return np.ascontiguousarray(np.moveaxis(lam, 0, -1))


def _law_calls(speeds, a_f, m: FaceMeans, gas: GasModel,
               spec: DissipationSpec, lam, scratch):
    """The calls that form the stacked |Lambda| of eigenvalue_law from the
    wave speeds (u - a, u, u + a) of the face into lam, with the law's
    temporaries from scratch.  ec1: the stacked acoustic eigenvalues
    (u - a, u + a) and the sound speed of the cells of m, and the jump of
    each eigenvalue across its face; kes, rus and hyb: |u| + a, phi and a
    temporary."""
    law = spec.matrix_law
    lam_ac, abs_u = lam[::2], lam[1, ...]
    calls = [(np.abs, speeds, lam)]
    if law == "roe":
        return calls
    if law == "ec1":
        # the acoustic eigenvalues of the cells, and the jump of each
        # across its face
        cells = m._cells
        ac = scratch.take(2, *cells.shape[1:])
        a = scratch.take(*cells.shape[1:])
        t = scratch.take(2, *m.shape)
        side_l, side_r = m._side_views(ac)
        return calls + [
            (sound_speed, cells, gas, a),
            (np.subtract, cells[1, ...], a, ac[0, ...]),
            (np.add, cells[1, ...], a, ac[1, ...]),
            (np.subtract, side_r, side_l, t),
            (np.abs, t, t),
            (np.multiply, spec._ec1_beta, t, t),
            (np.add, lam_ac, t, lam_ac)]
    if law not in ("kes", "rus", "hyb"):
        raise ValueError(f"unknown matrix law {law!r}")
    lam_max, phi, t = (scratch.take(*m.shape) for _ in range(3))
    calls.append((np.add, abs_u, a_f, lam_max))
    if law == "kes":
        return calls + [_copy(lam_ac, lam_max)]
    if law == "rus":
        return calls + [_copy(lam, lam_max)]
    # phi = clip(sqrt(|dp|/(2 p_bar)), 0, 1): the root is >= 0 or NaN, so
    # the upper bound alone gives the same value; then
    # (1 - phi) lam + phi lam_max
    return calls + [
        (np.subtract, m.right[2, ...], m.left[2, ...], phi),
        (np.abs, phi, phi),
        (np.multiply, _TWO, m.p_bar, t),
        (np.divide, phi, t, phi),
        (np.sqrt, phi, phi),
        (partial(np.minimum, out=phi), phi, _ONE),
        (np.subtract, _ONE, phi, t),
        (np.multiply, t, lam, lam),
        (np.multiply, phi, lam_max, phi),
        (np.add, lam, phi, lam)]


def assemble_q(R, lam, S):
    """Dissipation matrix Q = R |Lambda| S R^T, shape (..., 3, 3)."""
    return np.einsum("...ik,...k,...jk->...ij", R, lam * S, R)


def _matrix_work(m: FaceMeans, gas: GasModel, spec: DissipationSpec,
                 flux_kind: str, scratch, out=None):
    """matrix_dissipation's work for the record m, spec and the central
    flux: out, the entropy-variable jump's result (new unless given),
    which takes the result, and the calls.  From scratch: one (3, 3) + m
    block of w and rows 2 and 3 of R, a, H and u a, the law's
    temporaries, a temporary, the jump's and the two products of R^T dv.
    Arrays that are dead by the time a later one is written share its
    room in scratch."""
    shape, u = m.shape, m.u_bar
    rho, beta = _rho_beta(m, flux_kind)
    R = scratch.take(3, 3, *shape)
    w, speeds, enthalpies = R
    live = scratch.at
    a = scratch.take(*shape)
    after_a = scratch.at
    H, ua = scratch.take(*shape), scratch.take(*shape)
    scratch.at = after_a
    law = _law_calls(speeds, a, m, gas, spec, w, scratch)
    scratch.at = after_a
    t = scratch.take(*shape)
    scratch.at = live
    dv = _evj_work(m, gas, scratch, out)
    out = dv[0]
    scratch.at = live
    by_dv1, by_dv2 = scratch.take(2, 3, *shape)
    (u_minus_a, u_row, u_plus_a), (h_minus, half_u2, h_plus) = (
        [rows[k, ...] for k in range(3)] for rows in (speeds, enthalpies))
    return out, _calls([
        (np.multiply, _TWO, beta, a), (np.divide, gas._gamma, a, a),
        (np.sqrt, a, a),
        # R is a row of ones over the rows (u - a, u, u + a) and
        # (H - u a, u^2/2, H + u a), H = a^2/(gamma - 1) + u^2/2; the
        # first row of the block holds w in place of the ones, and ua
        # holds u/2 until u a is formed
        (np.multiply, _HALF, u, ua), (np.multiply, ua, u, half_u2),
        (np.multiply, a, a, H), (np.divide, H, gas._gm1, H),
        (np.add, H, half_u2, H), (np.multiply, u, a, ua),
        (np.subtract, u, a, u_minus_a), _copy(u_row, u),
        (np.add, u, a, u_plus_a),
        (np.subtract, H, ua, h_minus), (np.add, H, ua, h_plus)] + law + [
        # S: the acoustic rows of w are scaled by rho/(2 gamma), the
        # entropy row by (gamma - 1) rho/gamma
        (np.divide, rho, gas._two_gamma, t),
        (np.multiply, w[0, ...], t, w[0, ...]),
        (np.multiply, w[2, ...], t, w[2, ...]),
        (np.multiply, gas._gm1, rho, t), (np.divide, t, gas._gamma, t),
        (np.multiply, w[1, ...], t, w[1, ...]),
        (entropy_vars_jump, m, gas, dv),
        # w *= dv[0] + rows[0] dv[1] + rows[1] dv[2]
        (np.multiply, speeds, out[1, ...], by_dv1),
        (np.add, out[0, ...], by_dv1, by_dv1),
        (np.multiply, enthalpies, out[2, ...], by_dv2),
        (np.add, by_dv1, by_dv2, by_dv1), (np.multiply, w, by_dv1, w),
        (np.multiply, speeds, w, speeds),
        (np.multiply, enthalpies, w, enthalpies),
        # dv is spent: it takes R w.  The two acoustic waves are summed
        # before the entropy wave is added.
        (np.add, R[:, 0], R[:, 2], out), (np.add, out, R[:, 1], out),
        (np.multiply, out, _NEG_HALF, out)])


def matrix_dissipation(m: FaceMeans, gas: GasModel, spec: DissipationSpec,
                       flux_kind: str = "kepec", work=None) -> np.ndarray:
    """Stacked entropy-variable matrix dissipation -(1/2) R |Lambda| S R^T dv
    of the pairs of m, multiplied out in closed form: w = |Lambda| S R^T dv,
    then R w, formed in place.  The averages (rho, u, a, H) are
    face_average's, and each face quantity is formed once.  work, when
    given, is _matrix_work's for m, spec and flux_kind."""
    # entropy_vars_jump reads the log means: they are formed here, before
    # a temporary of work is written (the stage's log_mean and work share
    # the stage's scratch)
    m.rho_ln
    out, calls = work or _matrix_work(m, gas, spec, flux_kind, _Scratch())
    for f, a in calls:
        f(*a)
    return out
