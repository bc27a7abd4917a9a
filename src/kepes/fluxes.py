"""Central two-point numerical fluxes for the 1-D Euler equations.

Every flux here is dissipation-free.  The kinetic-energy-preserving family
writes the momentum flux as f_m = p_tilde + u_bar * f_rho with the
arithmetic-mean velocity u_bar; the entropy-conservative members pin the
remaining averages with logarithmic means so that the two-point condition
dv . f = d(rho u) holds exactly across any interface.
Every flux returns the stacked (3, ...) array (f_rho, f_m, f_e) and takes
an optional trailing FaceMeans record of the pair; the solver passes the
one record it builds per stage.  The stage's fluxes write their rows
into one array per call (row [i, ...] is a view, 0-d for a single pair).
"""

from __future__ import annotations

import numpy as np

from .thermo import (
    FaceMeans,
    _avg,
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


def exact_flux(q: PrimState, gas: GasModel) -> np.ndarray:
    """Pointwise Euler flux (rho u, p + rho u^2, (E + p) u)."""
    rho, u, p = q
    f_rho = rho * u
    H = total_enthalpy(q, gas)
    return _stacked(f_rho, p + f_rho * u, f_rho * H)


def flux_kep(left: PrimState, right: PrimState, gas: GasModel,
             means: FaceMeans | None = None) -> np.ndarray:
    """Kinetic-energy-preserving flux built from plain arithmetic averages.

    f_rho = rho_bar u_bar, p_tilde = p_bar, f_e = rho_bar u_bar H_bar.
    """
    m = FaceMeans(left, right) if means is None else means
    H_bar = _avg(total_enthalpy(m.left, gas), total_enthalpy(m.right, gas))
    out = np.empty((3,) + m.shape)
    f_rho = np.multiply(m.rho_bar, m.u_bar, out=out[0, ...])
    np.add(m.p_bar, m.u_bar * f_rho, out=out[1, ...])
    np.multiply(f_rho, H_bar, out=out[2, ...])
    return out


def flux_roe_ec(left: PrimState, right: PrimState, gas: GasModel,
                means: FaceMeans | None = None) -> np.ndarray:
    """Entropy-conservative flux based on the parameter vector
    z = sqrt(rho/p) (1, u, p).

    Satisfies dv . f = d(rho u) exactly but is not kinetic-energy
    preserving: the momentum flux carries the weighted velocity
    u_tilde = z2_bar/z1_bar instead of the arithmetic mean.  Its averages
    are means of z, not of (rho, u, beta), so means is not read.
    """
    g = gas.gamma
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = left, right
    wl = np.sqrt(rho_l / p_l)
    wr = np.sqrt(rho_r / p_r)
    z1l, z1r = wl, wr
    z2l, z2r = wl * u_l, wr * u_r
    z3l, z3r = wl * p_l, wr * p_r

    z1_bar, z2_bar, z3_bar = _avg(z1l, z1r), _avg(z2l, z2r), _avg(z3l, z3r)
    z1_ln = log_mean(z1l, z1r)
    z3_ln = log_mean(z3l, z3r)

    rho_t = z1_bar * z3_ln
    u_t = z2_bar / z1_bar
    p1_t = z3_bar / z1_bar
    p2_t = (g + 1.0) / (2.0 * g) * z3_ln / z1_ln + (g - 1.0) / (2.0 * g) * p1_t
    a_t = np.sqrt(g * p2_t / rho_t)
    H_t = a_t * a_t / (g - 1.0) + 0.5 * u_t * u_t

    f_rho = rho_t * u_t
    return np.array((f_rho, p1_t + u_t * f_rho, H_t * f_rho))


def _kep_family(m: FaceMeans, gas: GasModel, rho_f, beta_f):
    """KEP flux f_rho = rho_f u_bar, f_m = p_tilde + u_bar f_rho and
    f_e = (1/(2 (gamma-1) beta_f) - u2_bar/2) f_rho + u_bar f_m."""
    g = gas.gamma
    out = np.empty((3,) + m.shape)
    f_rho = np.multiply(rho_f, m.u_bar, out=out[0, ...])
    p_t = m.rho_bar / (2.0 * m.beta_bar)
    f_m = np.add(p_t, m.u_bar * f_rho, out=out[1, ...])
    np.add((0.5 / ((g - 1.0) * beta_f) - 0.5 * m.u2_bar) * f_rho,
           m.u_bar * f_m, out=out[2, ...])
    return out


def flux_kepec_ac(left: PrimState, right: PrimState, gas: GasModel,
                  means: FaceMeans | None = None) -> np.ndarray:
    """Kinetic-energy-preserving, approximately entropy-consistent flux.

    Arithmetic averages throughout; the entropy-conservation residual is
    O(jump^3).  p_tilde = rho_bar/(2 beta_bar) is the harmonic-temperature
    pressure average.
    """
    m = FaceMeans(left, right) if means is None else means
    return _kep_family(m, gas, m.rho_bar, m.beta_bar)


def flux_kepec(left: PrimState, right: PrimState, gas: GasModel,
               means: FaceMeans | None = None) -> np.ndarray:
    """Kinetic-energy-preserving and exactly entropy-conservative flux.

    Same structure as flux_kepec_ac with the density and beta averages in
    the mass and energy fluxes replaced by logarithmic means.
    """
    m = FaceMeans(left, right) if means is None else means
    return _kep_family(m, gas, m.rho_ln, m.beta_ln)


def flux_central_mean(left: PrimState, right: PrimState, gas: GasModel,
                      means: FaceMeans | None = None) -> np.ndarray:
    """Arithmetic mean of the pointwise fluxes, (f(L) + f(R))/2.

    The central part of a classic Roe-type scheme; neither entropy
    conservative nor kinetic-energy preserving.  It evaluates the
    record's sides, which are broadcast against each other, so a scalar
    side combines with an array side.
    """
    m = FaceMeans(left, right) if means is None else means
    return _avg(exact_flux(m.left, gas), exact_flux(m.right, gas))


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
