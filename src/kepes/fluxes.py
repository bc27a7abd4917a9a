"""Central two-point numerical fluxes for the 1-D Euler equations.

Every flux here is dissipation-free.  The kinetic-energy-preserving family
writes the momentum flux as f_m = p_tilde + u_bar * f_rho with the
arithmetic-mean velocity u_bar; the entropy-conservative members pin the
remaining averages with logarithmic means so that the two-point condition
dv . f = d(rho u) holds exactly across any interface.
Every flux takes the FaceMeans record of its pairs and returns the stacked
(3, ...) array (f_rho, f_m, f_e); the solver passes the one record it
builds per stage.  A flux writes into the out of its work
(_central_work), which the stage binds once per march and a one-shot
call builds: the KEP family runs its bound calls, and the other fluxes
write out's rows ([i, ...], a view, 0-d for a single pair).
"""

from __future__ import annotations

import numpy as np

from .thermo import (
    _HALF,
    _TWO,
    FaceMeans,
    _calls,
    _Scratch,
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


def _central_work(m: FaceMeans, gas: GasModel, flux_kind: str, scratch,
                 out=None):
    """A central flux's work for the record m: the stacked result out,
    new unless given, and, for the KEP family (flux_kepec_ac,
    flux_kepec), its calls with two temporaries from scratch; the other
    fluxes, which bind nothing, take out's three rows in their place.

    The KEP family's flux is f_rho = rho_f u_bar, f_m = p_tilde + u_bar
    f_rho and f_e = (1/(2 (gamma-1) beta_f) - u2_bar/2) f_rho + u_bar
    f_m, with the means rho_f, beta_f of its kind."""
    if out is None:
        out = np.empty((3,) + m.shape)
    f_rho, f_m, f_e = out[0, ...], out[1, ...], out[2, ...]
    # taken for every flux, so that the workspace's sizing pass, which
    # binds a stand-in flux, learns a size that fits them all
    t1, t2 = scratch.take(*m.shape), scratch.take(*m.shape)
    if flux_kind not in ("kepec_ac", "kepec"):
        return out, f_rho, f_m, f_e
    rho_f, beta_f = (m._ln_operands if flux_kind == "kepec"
                     else (m.rho_bar, m.beta_bar))
    u_bar = m.u_bar
    return out, _calls([
        (np.multiply, rho_f, u_bar, f_rho),
        # p_tilde = rho_bar / (2 beta_bar)
        (np.multiply, _TWO, m.beta_bar, t1), (np.divide, m.rho_bar, t1, t1),
        (np.multiply, u_bar, f_rho, t2), (np.add, t1, t2, f_m),
        (np.multiply, gas._gm1, beta_f, t1), (np.divide, _HALF, t1, t1),
        (np.multiply, _HALF, m.u2_bar, t2), (np.subtract, t1, t2, t1),
        (np.multiply, t1, f_rho, t1), (np.multiply, u_bar, f_m, t2),
        (np.add, t1, t2, f_e)])


def flux_kep(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving flux built from plain arithmetic averages.

    f_rho = rho_bar u_bar, p_tilde = p_bar, f_e = rho_bar u_bar H_bar.
    """
    out, f_rho, f_m, f_e = work or _central_work(m, gas, "kep", _Scratch())
    H_bar = _avg(total_enthalpy(m.left, gas), total_enthalpy(m.right, gas))
    np.multiply(m.rho_bar, m.u_bar, f_rho)
    np.add(m.p_bar, m.u_bar * f_rho, f_m)
    np.multiply(f_rho, H_bar, f_e)
    return out


def flux_roe_ec(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Entropy-conservative flux based on the parameter vector
    z = sqrt(rho/p) (1, u, p).

    Satisfies dv . f = d(rho u) exactly but is not kinetic-energy
    preserving: the momentum flux carries the weighted velocity
    u_tilde = z2_bar/z1_bar instead of the arithmetic mean.  Its averages
    are means of z, not of (rho, u, beta): it reads only the sides of m.
    """
    g = gas.gamma
    (rho_l, u_l, p_l), (rho_r, u_r, p_r) = m.left, m.right
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
    a_t = np.sqrt(gas._gamma * p2_t / rho_t)
    H_t = a_t * a_t / gas._gm1 + _HALF * u_t * u_t

    out, f_rho, f_m, f_e = work or _central_work(m, gas, "roe_ec",
                                                 _Scratch())
    np.multiply(rho_t, u_t, f_rho)
    np.add(p1_t, u_t * f_rho, f_m)
    np.multiply(H_t, f_rho, f_e)
    return out


def flux_kepec_ac(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving, approximately entropy-consistent flux.

    Arithmetic averages throughout; the entropy-conservation residual is
    O(jump^3).  p_tilde = rho_bar/(2 beta_bar) is the harmonic-temperature
    pressure average.
    """
    out, calls = work or _central_work(m, gas, "kepec_ac", _Scratch())
    for f, a in calls:
        f(*a)
    return out


def flux_kepec(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Kinetic-energy-preserving and exactly entropy-conservative flux.

    Same structure as flux_kepec_ac with the density and beta averages in
    the mass and energy fluxes replaced by logarithmic means.
    """
    # the log means are formed before a temporary of work is written
    m.rho_ln
    out, calls = work or _central_work(m, gas, "kepec", _Scratch())
    for f, a in calls:
        f(*a)
    return out


def flux_central_mean(m: FaceMeans, gas: GasModel,
                      work=None) -> np.ndarray:
    """Arithmetic mean of the pointwise fluxes, (f(L) + f(R))/2.

    The central part of a classic Roe-type scheme; neither entropy
    conservative nor kinetic-energy preserving.  It evaluates the
    record's sides, which are broadcast against each other, so a scalar
    side combines with an array side.
    """
    out = (work or _central_work(m, gas, "roe_baseline", _Scratch()))[0]
    np.add(exact_flux(m.left, gas), exact_flux(m.right, gas), out)
    out *= _HALF
    return out


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
