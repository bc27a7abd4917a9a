"""Ideal-gas thermodynamics: state containers, entropy pair, stable averages.

State containers hold floats or numpy arrays and every function broadcasts,
so the same code serves a single interface pair or a whole grid of them.
Working variables are density rho, velocity u, pressure p, with
beta = rho/(2*p) = 1/(2*R*T) and the (constant-free) specific entropy
s = ln(p) - gamma*ln(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ViscosityLaw",
    "GasModel",
    "PrimState",
    "ConsState",
    "EntropyVars",
    "FaceMeans",
    "InvalidStateError",
    "prim_to_cons",
    "cons_to_prim",
    "entropy_vars",
    "entropy_vars_jump",
    "prim_from_entropy_vars",
    "entropy_pair",
    "physical_entropy",
    "sound_speed",
    "total_enthalpy",
    "log_mean",
]

# Switch to the series branch of log_mean when zeta^2 = ((b-a)/(b+a))^2
# falls below this; keeps the average smooth through a == b.
LOG_MEAN_SWITCH = 1.0e-4


class InvalidStateError(ValueError):
    """A state with non-positive density, pressure or internal energy."""


@dataclass(frozen=True)
class ViscosityLaw:
    """Dynamic viscosity model.

    kind is one of "none", "constant", "power"; "power" evaluates
    mu_ref * (T / t_ref)**exponent.
    """

    kind: str = "none"
    mu_ref: float = 0.0
    t_ref: float = 1.0
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "power"):
            raise ValueError(f"unknown viscosity law {self.kind!r}")
        if self.mu_ref < 0:
            raise ValueError("mu_ref must be >= 0")
        if self.kind == "power" and self.t_ref <= 0:
            raise ValueError("t_ref must be > 0 for the power law")


@dataclass(frozen=True)
class GasModel:
    """Perfect-gas constants and transport laws.

    gas_constant defaults to 1 so that beta = rho/(2 p); the heat
    conductivity follows from the Prandtl number as
    kappa = gamma R mu / ((gamma - 1) Pr).
    """

    gamma: float = 1.4
    gas_constant: float = 1.0
    viscosity_law: ViscosityLaw = ViscosityLaw()
    prandtl: float = 0.72

    def __post_init__(self):
        if not self.gamma > 1:
            raise ValueError("gamma must be > 1")
        if not self.gas_constant > 0:
            raise ValueError("gas_constant must be > 0")
        if not self.prandtl > 0:
            raise ValueError("prandtl must be > 0")

    @property
    def is_viscous(self) -> bool:
        law = self.viscosity_law
        return law.kind != "none" and law.mu_ref > 0

    def viscosity(self, T):
        """Dynamic viscosity mu(T)."""
        law = self.viscosity_law
        if law.kind == "none":
            return np.zeros_like(np.asarray(T, dtype=float))
        if law.kind == "constant":
            return np.full_like(np.asarray(T, dtype=float), law.mu_ref)
        return law.mu_ref * (np.asarray(T, dtype=float) / law.t_ref) ** law.exponent

    def conductivity(self, T):
        """Heat conductivity kappa(T) = gamma R mu / ((gamma - 1) Pr)."""
        g, R = self.gamma, self.gas_constant
        return g * R * self.viscosity(T) / ((g - 1.0) * self.prandtl)


@dataclass(frozen=True)
class PrimState:
    """Primitive variables (rho, u, p); fields may be scalars or arrays."""

    rho: object
    u: object
    p: object

    @property
    def beta(self):
        return self.rho / (2.0 * self.p)

    def temperature(self, gas: GasModel):
        return self.p / (self.rho * gas.gas_constant)


@dataclass(frozen=True)
class ConsState:
    """Conserved variables (rho, momentum m, total energy E)."""

    rho: object
    m: object
    E: object

    def __add__(self, other):
        return ConsState(self.rho + other.rho, self.m + other.m, self.E + other.E)

    def __sub__(self, other):
        return ConsState(self.rho - other.rho, self.m - other.m, self.E - other.E)

    def __mul__(self, c):
        return ConsState(c * self.rho, c * self.m, c * self.E)

    __rmul__ = __mul__

    def copy(self):
        return ConsState(np.array(self.rho), np.array(self.m), np.array(self.E))


@dataclass(frozen=True)
class EntropyVars:
    """Entropy variables (v1, v2, v3) dual to (rho, m, E)."""

    v1: object
    v2: object
    v3: object

    def as_array(self):
        return np.stack(np.broadcast_arrays(self.v1, self.v2, self.v3), axis=-1)

    def __sub__(self, other):
        return EntropyVars(self.v1 - other.v1, self.v2 - other.v2, self.v3 - other.v3)


def prim_to_cons(q: PrimState, gas: GasModel) -> ConsState:
    """Map (rho, u, p) to (rho, rho u, E) with E = p/(gamma-1) + rho u^2/2."""
    m = q.rho * q.u
    E = q.p / (gas.gamma - 1.0) + 0.5 * q.rho * q.u * q.u
    return ConsState(q.rho, m, E)


def cons_to_prim(w: ConsState, gas: GasModel) -> PrimState:
    """Inverse of prim_to_cons; assumes a valid state."""
    u = w.m / w.rho
    p = (gas.gamma - 1.0) * (w.E - 0.5 * w.m * u)
    return PrimState(w.rho, u, p)


def validate_prim(q: PrimState) -> np.ndarray:
    """Boolean mask of invalid entries (rho <= 0 or p <= 0)."""
    return ~(np.greater(q.rho, 0.0) & np.greater(q.p, 0.0) & np.isfinite(q.rho)
             & np.isfinite(q.u) & np.isfinite(q.p))


def physical_entropy(q: PrimState, gas: GasModel):
    """s = ln(p) - gamma ln(rho), additive constant dropped."""
    return np.log(q.p) - gas.gamma * np.log(q.rho)


def entropy_vars(q: PrimState, gas: GasModel) -> EntropyVars:
    """v = [(gamma - s)/(gamma - 1) - beta u^2, 2 beta u, -2 beta]."""
    g = gas.gamma
    s = physical_entropy(q, gas)
    beta = q.beta
    return EntropyVars((g - s) / (g - 1.0) - beta * q.u * q.u,
                       2.0 * beta * q.u,
                       -2.0 * beta)


def prim_from_entropy_vars(v: EntropyVars, gas: GasModel) -> PrimState:
    """Invert entropy variables back to (rho, u, p)."""
    g = gas.gamma
    beta = -0.5 * v.v3
    u = -v.v2 / v.v3
    s = g - (g - 1.0) * (v.v1 + beta * u * u)
    p = np.exp(-(s + g * np.log(2.0 * beta)) / (g - 1.0))
    return PrimState(2.0 * beta * p, u, p)


def _avg(a, b):
    return 0.5 * (a + b)


class FaceMeans:
    """Two-point averages of the pairs (left, right), shared by the central
    flux, the dissipation and the entropy-variable jump of one RHS stage.

    The logarithmic means rho_ln and beta_ln are formed on first read, one
    log_mean call each; u2_bar is the mean of u^2.
    """

    def __init__(self, left: PrimState, right: PrimState):
        self.left = left
        self.right = right
        self.beta_l = left.beta
        self.beta_r = right.beta
        self.rho_bar = _avg(left.rho, right.rho)
        self.u_bar = _avg(left.u, right.u)
        self.beta_bar = _avg(self.beta_l, self.beta_r)
        self.u2_bar = _avg(left.u * left.u, right.u * right.u)

    @cached_property
    def rho_ln(self):
        return log_mean(self.left.rho, self.right.rho)

    @cached_property
    def beta_ln(self):
        return log_mean(self.beta_l, self.beta_r)


def entropy_vars_jump(left: PrimState, right: PrimState, gas: GasModel,
                      means: FaceMeans | None = None) -> EntropyVars:
    """Jump v(right) - v(left) written with the log-mean identities
    d(ln x) = dx / x_ln.

    Algebraically identical to differencing entropy_vars pointwise, but the
    cancellation noise for near-degenerate jumps (stationary contacts) is
    an order of magnitude smaller, which matters when such jumps are
    integrated over thousands of steps.  means is the pair's FaceMeans.
    """
    m = FaceMeans(left, right) if means is None else means
    g = gas.gamma
    d_rho = right.rho - left.rho
    d_u = right.u - left.u
    d_beta = m.beta_r - m.beta_l
    dv1 = (d_rho / m.rho_ln
           + (1.0 / ((g - 1.0) * m.beta_ln) - m.u2_bar) * d_beta
           - 2.0 * m.u_bar * m.beta_bar * d_u)
    dv2 = 2.0 * (m.beta_bar * d_u + m.u_bar * d_beta)
    return EntropyVars(dv1, dv2, -2.0 * d_beta)


def entropy_pair(q: PrimState, gas: GasModel):
    """Entropy function U = -rho s/(gamma-1), flux F = u U, potential psi = rho u."""
    s = physical_entropy(q, gas)
    U = -q.rho * s / (gas.gamma - 1.0)
    return U, q.u * U, q.rho * q.u


def sound_speed(q: PrimState, gas: GasModel):
    """a = sqrt(gamma p / rho)."""
    return np.sqrt(gas.gamma * q.p / q.rho)


def total_enthalpy(q: PrimState, gas: GasModel):
    """H = a^2/(gamma-1) + u^2/2 = gamma p/((gamma-1) rho) + u^2/2."""
    g = gas.gamma
    return g * q.p / ((g - 1.0) * q.rho) + 0.5 * q.u * q.u


def log_mean(a, b):
    """Logarithmic mean (b - a)/(ln b - ln a), stable as b -> a.

    For zeta = (b-a)/(b+a) with zeta^2 below LOG_MEAN_SWITCH the direct
    quotient is replaced by the series
    (a+b)/2 / (1 + zeta^2/3 + zeta^4/5 + zeta^6/7).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # fmin skips a NaN partner: this flags exactly the entries where
    # a <= 0 or b <= 0
    if (np.fmin(a, b) <= 0.0).any():
        raise ValueError("log_mean requires strictly positive arguments")
    diff = b - a
    total = b + a
    zeta = diff / total
    z2 = zeta * zeta
    series = 0.5 * total / (1.0 + z2 * (1.0 / 3.0 + z2 * (1.0 / 5.0 + z2 / 7.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = diff / (np.log(b) - np.log(a))
    return np.where(z2 < LOG_MEAN_SWITCH, series, direct)
