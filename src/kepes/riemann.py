"""Exact solution of the 1-D Riemann problem for a perfect gas.

Used as the reference profile for error norms and discontinuity-width
metrics.  Star-region pressure is found with a Newton iteration on the
standard two-branch (shock / rarefaction) pressure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thermo import GasModel, PrimState, sound_speed

__all__ = ["RiemannSolution", "solve_riemann"]

_MAX_NEWTON = 60
_P_TOL = 1.0e-14


def _pressure_function(p, q: PrimState, a, g):
    """f_K(p) and df_K/dp for one side."""
    if p > q.p:  # shock branch
        A = 2.0 / ((g + 1.0) * q.rho)
        B = (g - 1.0) / (g + 1.0) * q.p
        root = np.sqrt(A / (p + B))
        return (p - q.p) * root, root * (1.0 - 0.5 * (p - q.p) / (B + p))
    # rarefaction branch
    pr = p / q.p
    f = 2.0 * a / (g - 1.0) * (pr ** ((g - 1.0) / (2.0 * g)) - 1.0)
    df = pr ** (-(g + 1.0) / (2.0 * g)) / (q.rho * a)
    return f, df


@dataclass
class RiemannSolution:
    """Self-similar solution; sample with x/t."""

    left: PrimState
    right: PrimState
    gas: GasModel
    p_star: float
    u_star: float
    rho_star_l: float
    rho_star_r: float

    def _wave(self, s):
        """Side s (-1 left, +1 right): its state, sound speed and (outer,
        inner) edge speeds, equal for a shock.  The right wave is the left
        wave mirrored (u -> -u, xi -> -xi)."""
        g = self.gas.gamma
        q = self.right if s > 0 else self.left
        a = float(sound_speed(q, self.gas))
        if self.p_star > q.p:
            edge = q.u + s * a * np.sqrt(
                (g + 1.0) / (2.0 * g) * self.p_star / q.p
                + (g - 1.0) / (2.0 * g))
            return q, a, (edge, edge)
        a_star = a * (self.p_star / q.p) ** ((g - 1.0) / (2.0 * g))
        return q, a, (q.u + s * a, self.u_star + s * a_star)

    def left_wave_speeds(self):
        """(head, tail) of the left wave; equal for a shock."""
        return self._wave(-1)[2]

    def right_wave_speeds(self):
        """(tail, head) of the right wave, in increasing xi."""
        return self._wave(1)[2][::-1]

    def sample(self, xi) -> PrimState:
        """State at similarity coordinate xi = x/t (vectorized)."""
        xi = np.asarray(xi, dtype=float)
        g = self.gas.gamma
        gm, gp = g - 1.0, g + 1.0
        rho = np.empty_like(xi)
        u = np.empty_like(xi)
        p = np.empty_like(xi)

        # each side in its mirrored coordinate s xi: the outer state lies
        # beyond the outer edge, the star state inside the inner edge; the
        # right side is written last, so xi = u_star takes its star state
        for s, rho_star in ((-1, self.rho_star_l), (1, self.rho_star_r)):
            q, a, (outer, inner) = self._wave(s)
            s_xi = s * xi
            m = s_xi >= s * outer
            rho[m], u[m], p[m] = q
            if self.p_star <= q.p:  # rarefaction fan
                m = (s_xi > s * inner) & (s_xi < s * outer)
                c = 2.0 / gp - s * gm / (gp * a) * (q.u - xi[m])
                rho[m] = q.rho * c ** (2.0 / gm)
                u[m] = 2.0 / gp * (-s * a + 0.5 * gm * q.u + xi[m])
                p[m] = q.p * c ** (2.0 * g / gm)
            m = (s_xi <= s * inner) & (s_xi >= s * self.u_star)
            rho[m], u[m], p[m] = rho_star, self.u_star, self.p_star
        return PrimState(rho, u, p)

    def profile(self, x, t, x0=0.0) -> PrimState:
        """Solution on physical coordinates at time t > 0."""
        return self.sample((np.asarray(x, dtype=float) - x0) / t)

    def density_jumps(self, t, x0=0.0):
        """Discontinuities in rho at time t as (position, left, right)."""
        jumps = []
        head_l, tail_l = self.left_wave_speeds()
        if self.p_star > self.left.p:
            jumps.append((x0 + head_l * t, float(self.left.rho),
                          self.rho_star_l))
        jumps.append((x0 + self.u_star * t, self.rho_star_l, self.rho_star_r))
        head_r, tail_r = self.right_wave_speeds()
        if self.p_star > self.right.p:
            jumps.append((x0 + head_r * t, self.rho_star_r,
                          float(self.right.rho)))
        return jumps


def solve_riemann(left: PrimState, right: PrimState,
                  gas: GasModel) -> RiemannSolution:
    """Star states of the Riemann problem (Newton on the pressure function)."""
    g = gas.gamma
    a_l = float(sound_speed(left, gas))
    a_r = float(sound_speed(right, gas))
    du = right.u - left.u
    if 2.0 * (a_l + a_r) / (g - 1.0) <= du:
        raise ValueError("initial states generate vacuum")

    # two-rarefaction initial guess
    z = (g - 1.0) / (2.0 * g)
    p = ((a_l + a_r - 0.5 * (g - 1.0) * du)
         / (a_l / left.p ** z + a_r / right.p ** z)) ** (1.0 / z)
    p = max(p, _P_TOL)

    for _ in range(_MAX_NEWTON):
        f_l, df_l = _pressure_function(p, left, a_l, g)
        f_r, df_r = _pressure_function(p, right, a_r, g)
        change = (f_l + f_r + du) / (df_l + df_r)
        p_new = max(p - change, _P_TOL)
        if abs(p_new - p) <= _P_TOL * max(1.0, p):
            p = p_new
            break
        p = p_new

    f_l, _ = _pressure_function(p, left, a_l, g)
    f_r, _ = _pressure_function(p, right, a_r, g)
    # an iterate pinned at _P_TOL passes the step test without being a root
    if p <= _P_TOL and f_l + f_r + du > 0.0:
        raise ValueError("initial states generate vacuum")
    u_star = 0.5 * (left.u + right.u) + 0.5 * (f_r - f_l)

    G = (g - 1.0) / (g + 1.0)

    def star_density(q: PrimState):
        pr = p / q.p
        if p > q.p:
            return q.rho * (pr + G) / (G * pr + 1.0)
        return q.rho * pr ** (1.0 / g)

    return RiemannSolution(left, right, gas, float(p), float(u_star),
                           float(star_density(left)),
                           float(star_density(right)))
