"""Central two-point numerical fluxes for the 1-D Euler equations.

Every flux here is dissipation-free.  The kinetic-energy-preserving family
writes the momentum flux as f_m = p_tilde + u_bar * f_rho with the
arithmetic-mean velocity u_bar; the entropy-conservative members pin the
remaining averages with logarithmic means so that the two-point condition
dv . f = d(rho u) holds exactly across any interface.
Every flux takes the FaceMeans record of its pairs and returns the stacked
(3, ...) array (f_rho, f_m, f_e); the solver passes the one record it
builds per stage.  Each runs its formula (FORMULAS), which the stage
records, and takes work as record.run does.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .record import call, empty, run
from .thermo import (
    FaceMeans,
    _avg,
    _log_mean,
    _stacked,
    GasModel,
    PrimState,
    entropy_vars,
    log_mean,
    total_enthalpy,
)

__all__ = [
    "exact_flux",
    "flux_kep",
    "flux_roe_ec",
    "flux_kepec_ac",
    "flux_kepec",
    "flux_central_mean",
    "tadmor_residual",
    "CENTRAL_FLUXES",
]


def _exact(q, gas: GasModel):
    """The rows of exact_flux, as formula code."""
    rho, u, p = q
    f_rho = rho * u
    H = total_enthalpy(q, gas)
    return f_rho, p + f_rho * u, f_rho * H


def exact_flux(q: PrimState, gas: GasModel) -> np.ndarray:
    """Pointwise Euler flux (rho u, p + rho u^2, (E + p) u)."""
    return _stacked(*_exact(q, gas))


def _kep_family(m: FaceMeans, gas: GasModel, out=None, log=True):
    """The KEP family's flux f_rho = rho_f u_bar, f_m = p_tilde + u_bar
    f_rho and f_e = (1/(2 (gamma-1) beta_f) - u2_bar/2) f_rho + u_bar f_m,
    with the logarithmic means rho_f, beta_f (log) or the arithmetic ones,
    into out (new unless given)."""
    rho_f, beta_f = (m.rho_ln, m.beta_ln) if log else (m.rho_bar, m.beta_bar)
    out = empty(3, *m.shape) if out is None else out
    u_bar = m.u_bar
    out[0] = rho_f * u_bar
    f_rho = out[0]
    # p_tilde = rho_bar / (2 beta_bar)
    out[1] = m.rho_bar / (2 * m.beta_bar) + u_bar * f_rho
    out[2] = ((0.5 / ((gas.gamma - 1.0) * beta_f) - 0.5 * m.u2_bar) * f_rho
              + u_bar * out[1])
    return out


def _kep(m: FaceMeans, gas: GasModel, out=None):
    """flux_kep's formula, into out (new unless given)."""
    out = empty(3, *m.shape) if out is None else out
    H_bar = _avg(total_enthalpy(m.left, gas), total_enthalpy(m.right, gas))
    out[0] = m.rho_bar * m.u_bar
    out[1] = m.p_bar + m.u_bar * out[0]
    out[2] = out[0] * H_bar
    return out


def flux_kep(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving flux built from plain arithmetic averages.

    f_rho = rho_bar u_bar, p_tilde = p_bar, f_e = rho_bar u_bar H_bar.
    """
    return run(work, _kep, m, gas)


def _roe_ec(m: FaceMeans, gas: GasModel, out=None):
    """flux_roe_ec's formula, into out (new unless given)."""
    g = gas.gamma
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = m.left, m.right
    z1l, z1r = np.sqrt(rho_l / p_l), np.sqrt(rho_r / p_r)
    z2l, z2r = z1l * u_l, z1r * u_r
    z3l, z3r = z1l * p_l, z1r * p_r

    z1_bar, z2_bar, z3_bar = _avg(z1l, z1r), _avg(z2l, z2r), _avg(z3l, z3r)
    z1_ln = call(log_mean, _log_mean, z1l, z1r, empty(*m.shape))
    z3_ln = call(log_mean, _log_mean, z3l, z3r, empty(*m.shape))

    rho_t = z1_bar * z3_ln
    u_t = z2_bar / z1_bar
    p1_t = z3_bar / z1_bar
    p2_t = (g + 1.0) / (2.0 * g) * z3_ln / z1_ln + (g - 1.0) / (2.0 * g) * p1_t
    a_t = np.sqrt(g * p2_t / rho_t)
    H_t = a_t * a_t / (g - 1.0) + 0.5 * u_t * u_t

    out = empty(3, *m.shape) if out is None else out
    out[0] = rho_t * u_t
    out[1] = p1_t + u_t * out[0]
    out[2] = H_t * out[0]
    return out


def flux_roe_ec(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Entropy-conservative flux based on the parameter vector
    z = sqrt(rho/p) (1, u, p).

    Satisfies dv . f = d(rho u) exactly but is not kinetic-energy
    preserving: the momentum flux carries the weighted velocity
    u_tilde = z2_bar/z1_bar instead of the arithmetic mean.  Its averages
    are means of z, not of (rho, u, beta): it reads only the sides of m.
    """
    return run(work, _roe_ec, m, gas)


def flux_kepec_ac(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving, approximately entropy-consistent flux.

    Arithmetic averages throughout; the entropy-conservation residual is
    O(jump^3).  p_tilde = rho_bar/(2 beta_bar) is the harmonic-temperature
    pressure average.
    """
    return run(work, FORMULAS["kepec_ac"], m, gas)


def flux_kepec(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving and exactly entropy-conservative flux.

    Same structure as flux_kepec_ac with the density and beta averages in
    the mass and energy fluxes replaced by logarithmic means.
    """
    return run(work, _kep_family, m, gas)


def _central_mean(m: FaceMeans, gas: GasModel, out=None):
    """flux_central_mean's formula, into out (new unless given)."""
    out = empty(3, *m.shape) if out is None else out
    for k, (f_l, f_r) in enumerate(zip(_exact(m.left, gas),
                                       _exact(m.right, gas))):
        out[k] = f_l + f_r
    out *= 0.5
    return out


def flux_central_mean(m: FaceMeans, gas: GasModel,
                      work=None) -> np.ndarray:
    """Arithmetic mean of the pointwise fluxes, (f(L) + f(R))/2.

    The central part of a classic Roe-type scheme; neither entropy
    conservative nor kinetic-energy preserving.  It evaluates the
    record's sides, which are broadcast against each other, so a scalar
    side combines with an array side.
    """
    return run(work, _central_mean, m, gas)


def tadmor_residual(left: PrimState, right: PrimState, flux, gas: GasModel):
    """Two-point entropy-conservation residual dv . f - d(rho u) of the
    stacked flux."""
    # the record's sides are broadcast against each other
    m = FaceMeans(left, right)
    dv = entropy_vars(m.right, gas) - entropy_vars(m.left, gas)
    (rho_l, u_l, _), (rho_r, u_r, _) = left, right
    dpsi = rho_r * u_r - rho_l * u_l
    return dv[0] * flux[0] + dv[1] * flux[1] + dv[2] * flux[2] - dpsi


# Fluxes selectable for time integration
CENTRAL_FLUXES = {
    "kep": flux_kep,
    "roe_ec": flux_roe_ec,
    "kepec_ac": flux_kepec_ac,
    "kepec": flux_kepec,
    "roe_baseline": flux_central_mean,
}
# The formula of each flux, which the stage records
FORMULAS = {"kep": _kep, "roe_ec": _roe_ec,
            "kepec_ac": partial(_kep_family, log=False),
            "kepec": _kep_family, "roe_baseline": _central_mean}
