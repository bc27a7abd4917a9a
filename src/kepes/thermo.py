"""Ideal-gas thermodynamics: state containers, entropy pair, stable averages.

State containers are named row triples that hold floats or numpy arrays,
and every function broadcasts, so the same code serves a single interface
pair or a whole grid of them; a three-component result comes back as one
(3, ...) array.  Functions read a state by unpacking it, so a (3, ...) row
array and a PrimState (or ConsState) are the same input.  Working
variables are density rho, velocity u, pressure p, with
beta = rho/(2*p) = 1/(2*R*T) and the (constant-free) specific entropy
s = ln(p) - gamma*ln(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ViscosityLaw",
    "GasModel",
    "PrimState",
    "ConsState",
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
    "temperature",
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

    def conductivity(self, T, mu=None):
        """Heat conductivity kappa(T) = gamma R mu / ((gamma - 1) Pr); mu,
        if given, is viscosity(T) already evaluated."""
        g, R = self.gamma, self.gas_constant
        mu = self.viscosity(T) if mu is None else mu
        return g * R * mu / ((g - 1.0) * self.prandtl)


class PrimState(NamedTuple):
    """Primitive variables (rho, u, p); fields may be scalars or arrays."""

    rho: object
    u: object
    p: object

    @property
    def beta(self):
        return self.rho / (2.0 * self.p)


class ConsState(NamedTuple):
    """Conserved variables (rho, momentum m, total energy E)."""

    rho: object
    m: object
    E: object

    def copy(self):
        return ConsState(np.array(self.rho), np.array(self.m), np.array(self.E))

    def stacked(self) -> np.ndarray:
        """The rows rho, m, E as one (3, ...) array, the marched state."""
        return np.array((self.rho, self.m, self.E), dtype=float)


def prim_to_cons(q, gas: GasModel) -> ConsState:
    """Map (rho, u, p) to (rho, rho u, E) with E = p/(gamma-1) + rho u^2/2."""
    rho, u, p = q
    m = rho * u
    E = p / (gas.gamma - 1.0) + 0.5 * rho * u * u
    return ConsState(rho, m, E)


def cons_to_prim(w, gas: GasModel) -> PrimState:
    """Inverse of prim_to_cons; assumes a valid state."""
    rho, m, E = w
    u = m / rho
    return PrimState(rho, u, (gas.gamma - 1.0) * (E - 0.5 * m * u))


def temperature(q, gas: GasModel):
    """T = p / (rho R)."""
    rho, _, p = q
    return p / (rho * gas.gas_constant)


def physical_entropy(q, gas: GasModel):
    """s = ln(p) - gamma ln(rho), additive constant dropped."""
    rho, _, p = q
    return np.log(p) - gas.gamma * np.log(rho)


def entropy_vars(q, gas: GasModel) -> np.ndarray:
    """Stacked v = [(gamma - s)/(gamma - 1) - beta u^2, 2 beta u, -2 beta],
    dual to (rho, m, E)."""
    g = gas.gamma
    rho, u, p = q
    s = physical_entropy(q, gas)
    beta = rho / (2.0 * p)
    return _stacked((g - s) / (g - 1.0) - beta * u * u, 2.0 * beta * u,
                    -2.0 * beta)


def prim_from_entropy_vars(v, gas: GasModel) -> PrimState:
    """Invert the stacked entropy variables back to (rho, u, p)."""
    g = gas.gamma
    v1, v2, v3 = v
    beta = -0.5 * v3
    u = -v2 / v3
    s = g - (g - 1.0) * (v1 + beta * u * u)
    p = np.exp(-(s + g * np.log(2.0 * beta)) / (g - 1.0))
    return PrimState(2.0 * beta * p, u, p)


def _avg(a, b):
    return 0.5 * (a + b)


def _stacked(*fields):
    """The fields broadcast against each other and stacked on a new axis 0."""
    return np.array(np.broadcast_arrays(*fields), dtype=float)


class FaceMeans:
    """Two-point averages of the pairs (left, right), shared by the central
    flux, the dissipation and the entropy-variable jump of one RHS stage.

    A record is one cell array and the indices lo, hi of the left and right
    side of each pair along its last axis (FaceMeans.of_cells); the pair
    constructor lays left and right side by side in a new one.  fields
    holds the quantities that the means average, (rho, beta, u, u^2, p),
    of every cell (the first two are the log-mean pair), so left, right
    and every cell quantity read through sides() are evaluated once per
    cell; left and right are the (rho, u, p) rows of each side, views of
    fields.  The means are formed on first read: rho_bar, beta_bar,
    u_bar, u2_bar (the mean of u^2) and p_bar by one average of the stacked
    fields of both sides, rho_ln and beta_ln by one log_mean call on the
    stacked (rho, beta) pair.
    """

    def __init__(self, left, right):
        states = (left, right)
        shape = np.broadcast_shapes(*(np.shape(f) for q in states for f in q))
        # a single pair takes cells 0 and 1; k pairs take cells 0..k-1 and
        # k..2k-1, so that each side stays contiguous
        k = shape[-1] if shape else 1
        fields = np.empty((5,) + shape[:-1] + (2 * k,))
        index = (0, 1) if not shape else (slice(0, k), slice(k, 2 * k))
        for side, state in zip(index, states):
            for row, f in zip(fields[::2], state):
                row[..., side] = f
        self._init(fields, *index)

    @classmethod
    def of_cells(cls, cells: np.ndarray, lo, hi):
        """Record of the cell pairs (cells[..., lo], cells[..., hi]) of the
        stacked (rho, u, p) cells."""
        fields = np.empty((5,) + cells.shape[1:])
        fields[::2] = cells
        self = cls.__new__(cls)
        self._init(fields, lo, hi)
        return self

    def _init(self, fields: np.ndarray, lo, hi):
        # fields holds rho, u and p in rows 0, 2 and 4 and takes beta =
        # rho/(2 p) and u^2 into rows 1 and 3; the record keeps no other
        # reference to the cells
        np.divide(fields[0], 2.0 * fields[4], out=fields[1])
        np.multiply(fields[2], fields[2], out=fields[3])
        self.fields = fields
        self._lo, self._hi = lo, hi
        self._rows = rows_l, rows_r = fields[..., lo], fields[..., hi]
        self.shape = rows_l.shape[1:]
        self.left, self.right = rows_l[::2], rows_r[::2]
        self.beta_l, self.beta_r = rows_l[1], rows_r[1]

    def sides(self, quantity):
        """(quantity(left), quantity(right)); quantity maps the (rho, u, p)
        rows of the cells to an array whose last axis runs over them."""
        q = quantity(self.fields[::2])
        return q[..., self._lo], q[..., self._hi]

    def __getattr__(self, name):
        # each group of means is formed on the first read of one of them
        if name in ("rho_ln", "beta_ln"):
            rows_l, rows_r = self._rows
            self.rho_ln, self.beta_ln = log_mean(rows_l[:2], rows_r[:2])
        elif name in ("rho_bar", "beta_bar", "u_bar", "u2_bar", "p_bar"):
            (self.rho_bar, self.beta_bar, self.u_bar, self.u2_bar,
             self.p_bar) = _avg(*self._rows)
        else:
            raise AttributeError(name)
        return getattr(self, name)


def entropy_vars_jump(left: PrimState, right: PrimState, gas: GasModel,
                      means: FaceMeans | None = None) -> np.ndarray:
    """Stacked jump v(right) - v(left) written with the log-mean identities
    d(ln x) = dx / x_ln.

    Algebraically identical to differencing entropy_vars pointwise, but the
    cancellation noise for near-degenerate jumps (stationary contacts) is
    an order of magnitude smaller, which matters when such jumps are
    integrated over thousands of steps.  means is the pair's FaceMeans.
    """
    m = FaceMeans(left, right) if means is None else means
    g = gas.gamma
    rows_l, rows_r = m._rows
    d_rho, d_beta, d_u = rows_r[:3] - rows_l[:3]
    out = np.empty((3,) + m.shape)
    np.subtract(d_rho / m.rho_ln
                + (1.0 / ((g - 1.0) * m.beta_ln) - m.u2_bar) * d_beta,
                2.0 * m.u_bar * m.beta_bar * d_u, out=out[0, ...])
    np.multiply(2.0, m.beta_bar * d_u + m.u_bar * d_beta, out=out[1, ...])
    np.multiply(-2.0, d_beta, out=out[2, ...])
    return out


def entropy_pair(q, gas: GasModel):
    """Entropy function U = -rho s/(gamma-1), flux F = u U, potential psi = rho u."""
    rho, u, _ = q
    s = physical_entropy(q, gas)
    U = -rho * s / (gas.gamma - 1.0)
    return U, u * U, rho * u


def sound_speed(q, gas: GasModel):
    """a = sqrt(gamma p / rho)."""
    rho, _, p = q
    return np.sqrt(gas.gamma * p / rho)


def total_enthalpy(q, gas: GasModel):
    """H = a^2/(gamma-1) + u^2/2 = gamma p/((gamma-1) rho) + u^2/2."""
    g = gas.gamma
    rho, u, p = q
    return g * p / ((g - 1.0) * rho) + 0.5 * u * u


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
    if np.count_nonzero(np.fmin(a, b) <= 0.0):
        raise ValueError("log_mean requires strictly positive arguments")
    diff = b - a
    total = b + a
    zeta = diff / total
    z2 = zeta * zeta
    mean = np.asarray(
        0.5 * total / (1.0 + z2 * (1.0 / 3.0 + z2 * (1.0 / 5.0 + z2 / 7.0))))
    # the direct quotient overwrites the series where zeta^2 is not small
    # (both are NaN where zeta is) and is not evaluated elsewhere
    return np.divide(diff, np.log(b) - np.log(a), out=mean,
                     where=z2 >= LOG_MEAN_SWITCH)
