"""Interface-state reconstruction: first order or MUSCL with slope limiting.

Reconstruction acts on the primitive variables (rho, u, p); a face state
whose density or pressure would leave the physical region falls back to
the first-order cell value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import PrimState

__all__ = ["ReconSpec", "minmod", "van_albada", "reconstruct_face"]

VAN_ALBADA_EPS = 1.0e-12

LIMITERS = ("minmod", "van_albada", "none")


@dataclass(frozen=True)
class ReconSpec:
    order: int = 1
    limiter: str = "minmod"

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError("recon_order must be 1 or 2")
        if self.limiter not in LIMITERS:
            raise ValueError(f"unknown limiter {self.limiter!r}")


def minmod(a, b):
    """Zero on sign disagreement, else the smaller-magnitude argument."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.where(a * b > 0.0, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def van_albada(a, b, eps=VAN_ALBADA_EPS):
    """Smooth limiter (a^2 b + b^2 a + eps (a+b)) / (a^2 + b^2 + 2 eps)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return (a * a * b + b * b * a + eps * (a + b)) / (a * a + b * b + 2.0 * eps)


def _limited_slope(back, fwd, limiter):
    if limiter == "minmod":
        return minmod(back, fwd)
    if limiter == "van_albada":
        return van_albada(back, fwd)
    return 0.5 * (back + fwd)


def reconstruct_face(q_stencil, spec: ReconSpec):
    """Face states at j+1/2 from the stencil (q_{j-1}, q_j, q_{j+1}, q_{j+2}).

    Order 1 returns the adjacent cell states; order 2 extrapolates
    q_j + slope/2 and q_{j+1} - slope/2 with limited slopes, reverting a
    side to first order wherever rho or p would become non-positive.
    """
    qm1, q0, q1, q2 = q_stencil
    if spec.order == 1:
        return q0, q1

    def face_values(fm1, f0, f1, f2):
        slope0 = _limited_slope(f0 - fm1, f1 - f0, spec.limiter)
        slope1 = _limited_slope(f1 - f0, f2 - f1, spec.limiter)
        return f0 + 0.5 * slope0, f1 - 0.5 * slope1

    rho_l, rho_r = face_values(qm1.rho, q0.rho, q1.rho, q2.rho)
    u_l, u_r = face_values(qm1.u, q0.u, q1.u, q2.u)
    p_l, p_r = face_values(qm1.p, q0.p, q1.p, q2.p)

    bad_l = (rho_l <= 0.0) | (p_l <= 0.0)
    bad_r = (rho_r <= 0.0) | (p_r <= 0.0)
    left = PrimState(np.where(bad_l, q0.rho, rho_l),
                     np.where(bad_l, q0.u, u_l),
                     np.where(bad_l, q0.p, p_l))
    right = PrimState(np.where(bad_r, q1.rho, rho_r),
                      np.where(bad_r, q1.u, u_r),
                      np.where(bad_r, q1.p, p_r))
    return left, right
