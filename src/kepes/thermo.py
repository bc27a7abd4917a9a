"""Ideal-gas thermodynamics: state container, entropy pair, stable averages.

A state is a row triple that holds floats or numpy arrays, and every
function broadcasts, so the same code serves a single interface pair or a
whole grid of them; a three-component result, such as the conserved rows
(rho, m, E), comes back as one (3, ...) array, and a (3, ...) row array
and a PrimState are the same input.  A two-point function of face pairs
takes their FaceMeans record.
Working variables are density rho, velocity u, pressure p, with
beta = rho/(2*p) = 1/(2*R*T) and the (constant-free) specific entropy
s = ln(p) - gamma*ln(rho).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .record import call, empty, run

__all__ = [
    "ViscosityLaw",
    "GasModel",
    "PrimState",
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


def _check_finite(**fields):
    """Reject the first field, by name, that is not finite."""
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


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
        if not self.mu_ref >= 0:
            raise ValueError("mu_ref must be >= 0")
        if self.kind == "power" and not self.t_ref > 0:
            raise ValueError("t_ref must be > 0 for the power law")
        _check_finite(mu_ref=self.mu_ref, t_ref=self.t_ref,
                      mu_exponent=self.exponent)


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
        _check_finite(gamma=self.gamma, gas_constant=self.gas_constant,
                      prandtl=self.prandtl)

    @property
    def is_viscous(self) -> bool:
        law = self.viscosity_law
        return law.kind != "none" and law.mu_ref > 0

    def viscosity(self, T, out=None):
        """Dynamic viscosity mu(T), written into out when given."""
        law = self.viscosity_law
        if law.kind == "power":
            return np.multiply(law.mu_ref, np.power(
                np.divide(T, law.t_ref, out), law.exponent, out), out)
        if out is None:
            out = empty(*np.shape(T))
        out[...] = law.mu_ref if law.kind == "constant" else 0.0
        return out

    def conductivity(self, T, mu=None, out=None):
        """Heat conductivity kappa(T) = gamma R mu / ((gamma - 1) Pr); mu,
        if given, is viscosity(T) already evaluated, and out, when given,
        takes the result."""
        mu = self.viscosity(T) if mu is None else mu
        return np.divide(np.multiply(self.gamma * self.gas_constant, mu, out),
                         (self.gamma - 1.0) * self.prandtl, out)


class PrimState(NamedTuple):
    """Primitive variables (rho, u, p); fields may be scalars or arrays."""

    rho: object
    u: object
    p: object

    @property
    def beta(self):
        return self.rho / (2.0 * self.p)


def _check_states(**states):
    """Reject the first state, None skipped, whose rho or p is not > 0 (NaN
    included) or that has a field that is not finite; its keyword is its
    label in the message."""
    for label, q in states.items():
        if q is None:
            continue
        if not (q[0] > 0.0 and q[2] > 0.0):
            raise ValueError(f"{label} state: rho and p must be > 0")
        if not all(map(math.isfinite, q)):
            raise ValueError(f"{label} state: rho, u and p must be finite")


def prim_to_cons(q, gas: GasModel) -> np.ndarray:
    """Map (rho, u, p) to the stacked (rho, rho u, E) with
    E = p/(gamma-1) + rho u^2/2, the marched state."""
    rho, u, p = q
    return _stacked(rho, rho * u, p / (gas.gamma - 1.0) + 0.5 * rho * u * u)


def cons_to_prim(w, gas: GasModel) -> PrimState:
    """Inverse of prim_to_cons; assumes a valid state."""
    rho, m, E = w
    u = m / rho
    return PrimState(rho, u, (gas.gamma - 1.0) * (E - 0.5 * m * u))


def temperature(q, gas: GasModel, out=None):
    """T = p / (rho R), written into out when given (record.run)."""
    return run(out, _temperature, q, gas)


def _temperature(q, gas: GasModel, out):
    rho, p = q[0], q[2]
    return np.divide(p, np.multiply(rho, gas.gas_constant, out), out)


def physical_entropy(q, gas: GasModel):
    """s = ln(p) - gamma ln(rho), additive constant dropped."""
    rho, _, p = q
    return np.log(p) - gas.gamma * np.log(rho)


def entropy_vars(q, gas: GasModel, out=None, s=None) -> np.ndarray:
    """Stacked v = [(gamma - s)/(gamma - 1) - beta u^2, 2 beta u, -2 beta],
    dual to (rho, m, E), written into the (3, ...) array out when given.
    s, when given, is physical_entropy(q, gas)."""
    g = gas.gamma
    rho, u, p = q
    if s is None:
        s = physical_entropy(q, gas)
    if out is None:
        out = np.empty((3,) + np.broadcast(rho, u, p).shape)
    beta = rho / (2.0 * p)
    np.subtract((g - s) / (g - 1.0), beta * u * u, out[0, ...])
    np.multiply(2.0 * beta, u, out[1, ...])
    np.multiply(-2.0, beta, out[2, ...])
    return out


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

    pairs is one C-contiguous (2, 5, ...) block: pairs[0] and pairs[1]
    hold the fields (rho, beta, u, u^2, p) of the left and the right side
    of every pair, with beta = rho/(2 p); left and right are the (rho, u,
    p) rows of each side and beta_l, beta_r its beta row.  The rows
    rho_bar, beta_bar, u_bar, u2_bar (the mean of u^2) and p_bar of the
    bar block are the half-sum of the two sides, and rho_ln and beta_ln,
    the rows of the log-mean block, are formed by one log_mean call on
    the contiguous (rho, beta) halves (_means).  The three blocks lie end
    to end in one buffer of ROWS rows.  A record built from pairs forms
    its log means at once: a pair whose rho or beta is not > 0 raises.

    The stage's workspace (spatial._StageWork) holds one set of records
    per stage window through a march and refills them every stage
    (_refill), the log means only where the stage reads them, so every
    array a record hands out is overwritten by the next stage.  A kernel
    reads a quantity of both sides from one evaluation on the record's
    cells (_side_views), once per cell for a cell-pair record.
    """

    ROWS = 17

    def __init__(self, left, right):
        shape = np.broadcast_shapes(*(np.shape(f) for q in (left, right)
                                      for f in q))
        self._bind(shape, np.empty(self.ROWS * math.prod(shape)))
        for side, state in zip(self.pairs, (left, right)):
            for k, f in zip((0, 2, 4), state):
                side[k] = f
        _means(self, True, True, self._bar)

    @classmethod
    def _held(cls, shape, buf, cells=None, lo=None, hi=None):
        """A record with one or more axes of pairs (shape) whose blocks
        are the first ROWS rows of the flat buffer buf, which its holder
        fills before each refill; cells, lo and hi as in _bind."""
        self = cls.__new__(cls)
        self._bind(shape, buf, cells, lo, hi)
        return self

    def _bind(self, shape, buf, cells=None, lo=None, hi=None):
        # cells holds the (rho, u, p) rows that a side quantity is
        # evaluated on, and lo, hi index the left and the right side of
        # each pair in them; by default they are the sides of the pairs,
        # (3, 2) + shape.  Rows are views, 0-d ones for a single pair.
        k = math.prod(shape)
        self.shape = shape
        self.pairs = pairs = buf[:10 * k].reshape(2, 5, *shape)
        self._bar = bar = buf[10 * k:15 * k].reshape(5, *shape)
        self._ln = ln = buf[15 * k:17 * k].reshape(2, *shape)
        self.rho_ln, self.beta_ln = ln[0, ...], ln[1, ...]
        # the two sides, and the contiguous (rho, beta) halves of both
        self._sides = left, right = pairs[0], pairs[1]
        self._ln_sides = pairs[0, :2], pairs[1, :2]
        if cells is None:
            rest = (slice(None),) * len(shape)
            cells, lo, hi = (pairs.swapaxes(0, 1)[::2], (..., 0) + rest,
                             (..., 1) + rest)
        self._cells, self._lo, self._hi = cells, lo, hi
        self.left, self.right = left[::2], right[::2]
        self.beta_l, self.beta_r = left[1, ...], right[1, ...]
        self.rho_bar, self.beta_bar, self.u_bar, self.u2_bar, self.p_bar = (
            bar[j, ...] for j in range(5))

    def _refill(self, fields: bool, ln: bool, work=None):
        """Form the means of the record's new pairs in place (_means; work
        as record.run takes it)."""
        run(work, _means, self, fields, ln)

    def _recorded(self, wrap):
        """The record's stand-in for recorded formula code: a copy whose
        arrays are stand-ins (wrap)."""
        m = copy.copy(self)
        m.__dict__.update((k, wrap(v)) for k, v in vars(self).items())
        return m

    def _side_views(self, q):
        """The left and the right side of each pair in q, a quantity
        evaluated on the record's cells, with their trailing shape."""
        return q[self._lo], q[self._hi]


def _fields(rho, beta, u, u2, p):
    """Rows beta = rho/(2 p) and u^2 of the fields (rho, beta, u, u^2,
    p), formed in place from rows rho, u and p."""
    beta[...] = rho / (2 * p)
    u2[...] = u * u


def _means(m: FaceMeans, fields: bool, ln: bool, out):
    """The formula of the bar block out of the record m: beta and u^2 of
    both sides first when fields is set (the caller wrote only rho, u and
    p), then the half-sum of the two sides, and the log-mean block when
    ln is set."""
    if fields:
        _fields(*(m.pairs[:, k] for k in range(5)))
    np.add(*m._sides, out=out)
    out *= 0.5
    if ln:
        call(log_mean, _log_mean, *m._ln_sides, m._ln)


def _evj(m: FaceMeans, gas: GasModel, out=None):
    """entropy_vars_jump's formula, into out (new unless given)."""
    out = empty(3, *m.shape) if out is None else out
    # the (rho, beta, u) rows of right - left, from the contiguous halves
    d_rho, d_beta, d_u = m.pairs[1, :3] - m.pairs[0, :3]
    out[0] = (d_rho / m.rho_ln
              + (1 / ((gas.gamma - 1.0) * m.beta_ln) - m.u2_bar) * d_beta
              - 2 * m.u_bar * m.beta_bar * d_u)
    out[1] = 2 * (m.beta_bar * d_u + m.u_bar * d_beta)
    out[2] = -2 * d_beta
    return out


def entropy_vars_jump(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Stacked jump v(right) - v(left) of the pairs of the record m, written
    with the log-mean identities d(ln x) = dx / x_ln.

    Algebraically identical to differencing entropy_vars pointwise, but the
    cancellation noise for near-degenerate jumps (stationary contacts) is
    an order of magnitude smaller, which matters when such jumps are
    integrated over thousands of steps.  work is as record.run takes it.
    """
    return run(work, _evj, m, gas)


def entropy_pair(q, gas: GasModel):
    """Entropy function U = -rho s/(gamma-1), flux F = u U, potential psi = rho u."""
    rho, u, _ = q
    s = physical_entropy(q, gas)
    U = -rho * s / (gas.gamma - 1.0)
    return U, u * U, rho * u


def sound_speed(q, gas: GasModel, out=None):
    """a = sqrt(gamma p / rho), written into out when given (record.run)."""
    return run(out, _sound_speed, q, gas)


def _sound_speed(q, gas: GasModel, out):
    rho, p = q[0], q[2]
    return np.sqrt(np.divide(np.multiply(gas.gamma, p, out), rho, out), out)


def total_enthalpy(q, gas: GasModel):
    """H = a^2/(gamma-1) + u^2/2 = gamma p/((gamma-1) rho) + u^2/2."""
    rho, u, p = q
    return gas.gamma * p / ((gas.gamma - 1.0) * rho) + 0.5 * u * u


def _log_mean(a, b, out):
    """log_mean's formula, into out."""
    diff, total = b - a, b + a
    z2 = diff / total
    z2 = z2 * z2
    out[...] = 0.5 * total / (1 + z2 * (1 / 3 + z2 * (0.2 + z2 / 7)))
    # the direct quotient overwrites the series where zeta^2 is not small
    # (both are NaN where zeta is) and is not evaluated elsewhere
    direct = z2 >= LOG_MEAN_SWITCH
    np.divide(diff, np.log(b) - np.log(a), out=out, where=direct)
    return out


def log_mean(a, b, work=None):
    """Logarithmic mean (b - a)/(ln b - ln a), stable as b -> a.

    For zeta = (b-a)/(b+a) with zeta^2 below LOG_MEAN_SWITCH the direct
    quotient is replaced by the series
    (a+b)/2 / (1 + zeta^2/3 + zeta^4/5 + zeta^6/7).  work is as
    record.run takes it, an array being the out that takes the result.
    """
    if work is None:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        work = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out = work[0] if type(work) is tuple else work
    # fmin skips a NaN partner, and its reduction a NaN entry: this flags
    # exactly the pairs where a <= 0 or b <= 0.  out, which the formula
    # writes before it reads, takes the elementwise minimum.
    if np.fmin.reduce(np.fmin(a, b, out), None, initial=np.inf) <= 0.0:
        raise ValueError("log_mean requires strictly positive arguments")
    return run(work, _log_mean, a, b)
