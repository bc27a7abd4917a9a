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

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

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


def _const(x) -> np.ndarray:
    """x as a read-only 0-d float64 array.  A ufunc call dispatches on
    it about 150 ns faster than on a Python float, with the same bits."""
    c = np.array(x, dtype=float)
    c.flags.writeable = False
    return c


class _constant(cached_property):
    """A value of a frozen object, formed by func on first read and bound
    as a read-only 0-d float64 array (_const) for the ufunc operands of
    the stage."""

    def __init__(self, func):
        super().__init__(lambda obj: _const(func(obj)))


# The literal operands of the marching path's ufunc calls, named by value
_ZERO, _HALF, _ONE, _TWO, _THREE, _SEVEN = map(_const, (0, 0.5, 1, 2, 3, 7))
_NEG_HALF, _NEG_TWO = _const(-0.5), _const(-2.0)
_THIRD, _FIFTH, _QUARTER = _const(1.0 / 3.0), _const(1.0 / 5.0), _const(0.25)
_TWO_THIRDS, _THREE_QUARTERS = _const(2.0 / 3.0), _const(0.75)
_FOUR_THIRDS = _const(4.0 / 3.0)
_LOG_MEAN_SWITCH = _const(LOG_MEAN_SWITCH)


class _Scratch:
    """Where the binding of a kernel takes its temporaries.

    take() returns, by the size given: without one, a new array, which is
    what a one-shot kernel call needs; with 0, a zero-stride stand-in of
    one element, so that a binding learns the size without allocating;
    with a size, consecutive views of one flat buffer of that length.
    size records the length the takes need.  The stage workspace
    (spatial._StageWork) binds its calls twice, with 0 and then with the
    size learnt.  The kernels of a stage run in sequence and a kernel's
    temporaries are dead once it returns, so the workspace rewinds before
    it binds each kernel's calls and they all share the buffer; a kernel
    that calls another binds the callee past its own live temporaries.
    """

    def __init__(self, size=None):
        self.base = None if size is None else np.empty(max(size, 1))
        self.sizing = size == 0
        self.at = self.size = 0

    def take(self, *shape, dtype=float):
        count = math.prod(shape)
        start = self.at
        # flags are packed eight to a float, so every view stays aligned
        self.at = end = start + (count if dtype is float else -(-count // 8))
        if end > self.size:
            self.size = end
        if self.base is None:
            return np.empty(shape, dtype)
        if self.sizing:
            return np.ndarray(shape, dtype, self.base,
                              strides=(0,) * len(shape))
        view = self.base[start:end]
        if dtype is not float:
            view = view.view(dtype)[:count]
        return view.reshape(shape)

    def rewind(self):
        self.at = 0
        return self


def _calls(entries):
    """A kernel's bound calls, written as (callable, operands...) entries,
    as the (callable, operands) pairs that the kernel runs by
    `for f, a in calls: f(*a)`.  That loop builds no list per call, and
    costs ~0.15 us a call less than `for f, *a in entries` on numpy 2.4."""
    return [(e[0], e[1:]) for e in entries]


def _run(entries):
    """Run (callable, operands...) entries once, as the one-shot call of
    a private helper does."""
    for f, *a in entries:
        f(*a)


def _copy(dst, src):
    """The call entry of dst[...] = src, which costs ~0.1 us less a call
    than np.copyto."""
    return dst.__setitem__, Ellipsis, src


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

    _mu_ref = _constant(lambda law: law.mu_ref)
    _t_ref = _constant(lambda law: law.t_ref)
    _exponent = _constant(lambda law: law.exponent)


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

    # gamma, R and their combinations as the stage's ufunc operands; each
    # is the Python value of the formula it stands for
    _gamma = _constant(lambda gas: gas.gamma)
    _gm1 = _constant(lambda gas: gas.gamma - 1.0)
    _two_gamma = _constant(lambda gas: 2.0 * gas.gamma)
    _two_gm1 = _constant(lambda gas: 2.0 * (gas.gamma - 1.0))
    _r = _constant(lambda gas: gas.gas_constant)
    _gamma_r = _constant(lambda gas: gas.gamma * gas.gas_constant)
    _gm1_prandtl = _constant(lambda gas: (gas.gamma - 1.0) * gas.prandtl)

    @property
    def is_viscous(self) -> bool:
        law = self.viscosity_law
        return law.kind != "none" and law.mu_ref > 0

    def viscosity(self, T, out=None):
        """Dynamic viscosity mu(T), written into out when given."""
        law = self.viscosity_law
        if law.kind == "power":
            return np.multiply(law._mu_ref, np.power(
                np.divide(T, law._t_ref, out), law._exponent, out), out)
        if out is None:
            out = np.empty_like(np.asarray(T, dtype=float))
        out[...] = law._mu_ref if law.kind == "constant" else _ZERO
        return out

    def conductivity(self, T, mu=None, out=None):
        """Heat conductivity kappa(T) = gamma R mu / ((gamma - 1) Pr); mu,
        if given, is viscosity(T) already evaluated, and out, when given,
        takes the result."""
        mu = self.viscosity(T) if mu is None else mu
        return np.divide(np.multiply(self._gamma_r, mu, out),
                         self._gm1_prandtl, out)


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
    """T = p / (rho R), written into out when given."""
    rho, p = q[0], q[2]
    return np.divide(p, np.multiply(rho, gas._r, out), out)


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
    return _HALF * (a + b)


def _stacked(*fields):
    """The fields broadcast against each other and stacked on a new axis 0."""
    return np.array(np.broadcast_arrays(*fields), dtype=float)


class _LogMeans:
    """rho_ln or beta_ln of a FaceMeans record: the first read of either
    forms both, by one log_mean call, and stores them on the record,
    where later reads find them until a refill drops them."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, m, owner=None):
        if m is None:
            return self
        ln = log_mean(*m._ln_sides, m._ln, m._ln_work)
        # a held record's rows are bound once; a single pair's rows are
        # scalars, taken once formed
        m.rho_ln, m.beta_ln = m._ln_rows or ln
        return m.__dict__[self.name]


class FaceMeans:
    """Two-point averages of the pairs (left, right), shared by the central
    flux, the dissipation and the entropy-variable jump of one RHS stage.

    pairs is one C-contiguous (2, 5, ...) block: pairs[0] and pairs[1]
    hold the fields (rho, beta, u, u^2, p) of the left and the right side
    of every pair, with beta = rho/(2 p).  left and right are the (rho,
    u, p) rows of each side and beta_l, beta_r its beta row, all views of
    pairs.  The pair constructor writes both sides into a new block.
    Every record holds a (5, ...) bar block whose rows rho_bar, beta_bar,
    u_bar, u2_bar (the mean of u^2) and p_bar are the half-sum of the two
    sides.  rho_ln and beta_ln are formed on first read, by one log_mean
    call on the contiguous (rho, beta) halves.

    The stage's workspace (spatial._StageWork) holds its records through
    a march, one set per stage window: it writes new pairs into the same
    block every stage and runs the record's refill calls (_take), so
    every array a record hands out is overwritten by the next stage.  A
    held record writes its log means into a block of its own; the blocks
    of the records of all windows lie in one buffer, and the workspace's
    scratch holds the temporaries of a refill and of the log means.  A
    kernel reads a quantity of the left and the right sides from one
    evaluation on the record's cells (_side_views): a cell-pair record's
    cells are the cell rows, so a cell quantity is evaluated once per
    cell.
    """

    rho_ln, beta_ln = _LogMeans(), _LogMeans()

    def __init__(self, left, right):
        shape = np.broadcast_shapes(*(np.shape(f) for q in (left, right)
                                      for f in q))
        self._blocks(shape, _Scratch())
        for side, state in zip(self.pairs, (left, right)):
            for k, f in zip((0, 2, 4), state):
                side[k] = f
        self._ln = self._ln_rows = self._ln_work = None
        _run(self._refill_calls(_Scratch(), True))
        # bound once the blocks hold values: a row of a single pair is
        # a scalar
        self._bind()

    @classmethod
    def _held(cls, shape, cells=None, lo=None, hi=None, blocks=None):
        """A record of pair, bar and log-mean blocks with one or more axes
        of pairs (shape), which its holder fills before each refill and
        whose temporaries it binds (_take); the blocks are taken from
        blocks, a _Scratch, and are new arrays without it; cells, lo and
        hi as in _bind."""
        self = cls.__new__(cls)
        blocks = blocks or _Scratch()
        self._blocks(shape, blocks)
        self._ln = ln = blocks.take(2, *shape)
        self._ln_rows = ln[0], ln[1]
        self._bind(cells, lo, hi)
        return self

    def _blocks(self, shape, blocks):
        self.pairs = pairs = blocks.take(2, 5, *shape)
        self._bar = blocks.take(5, *shape)
        # the two sides, and the contiguous (rho, beta) halves of both
        self._sides = pairs[0], pairs[1]
        self._ln_sides = pairs[0, :2], pairs[1, :2]

    def _bind(self, cells=None, lo=None, hi=None):
        # cells holds the (rho, u, p) rows that a side quantity is
        # evaluated on, and lo, hi index the left and the right side of
        # each pair in them; by default they are the sides of the pairs,
        # (3, 2) + shape
        pairs, bar = self.pairs, self._bar
        self.shape = shape = pairs.shape[2:]
        if cells is None:
            rest = (slice(None),) * len(shape)
            cells, lo, hi = (pairs.swapaxes(0, 1)[::2], (..., 0) + rest,
                             (..., 1) + rest)
        self._cells, self._lo, self._hi = cells, lo, hi
        left, right = pairs[0], pairs[1]
        self.left, self.right = left[::2], right[::2]
        # rows are taken by index, which is cheaper than unpacking
        self.beta_l, self.beta_r = left[1], right[1]
        self.rho_bar, self.beta_bar, self.u_bar = bar[0], bar[1], bar[2]
        self.u2_bar, self.p_bar = bar[3], bar[4]

    def _take(self, scratch, fields: bool):
        """Bind log_mean's work and the refill calls (_refill_calls) of a
        held record from scratch, both at its cursor: they run at
        different times.  Returns the refill calls."""
        at = scratch.at
        calls = self._refill_calls(scratch, fields)
        scratch.at = at
        self._ln_work = _log_mean_work(*self._ln_sides, self._ln, scratch)
        return calls

    def _refill_calls(self, scratch, fields: bool):
        """The calls that form the record's means from the pairs, in
        place: beta and u^2 of both sides first when fields is set (the
        caller wrote only rho, u and p), then the bar rows; the log means
        of earlier pairs are dropped, to be formed again on their next
        read."""
        calls = (_fields_calls(self.pairs.swapaxes(0, 1), scratch)
                 if fields else [])
        bar, formed = self._bar, self.__dict__
        return calls + [(np.add, *self._sides, bar),
                        (np.multiply, bar, _HALF, bar),
                        (formed.pop, "rho_ln", None),
                        (formed.pop, "beta_ln", None)]

    def _side_views(self, q):
        """The left and the right side of each pair in q, a quantity
        evaluated on the record's cells, with their trailing shape."""
        return q[self._lo], q[self._hi]

    @property
    def _ln_operands(self):
        """rho_ln and beta_ln as a kernel binds them: a held record's
        rows, which the kernel forms by its first read in each stage, or
        a one-shot record's, formed now."""
        return self._ln_rows or (self.rho_ln, self.beta_ln)


def _fields_calls(fields, scratch):
    """The calls that form rows 1 and 3 of the fields (rho, beta, u, u^2,
    p), beta = rho/(2 p) and u^2, from rows 0, 2 and 4, in place, with a
    temporary for 2 p from scratch."""
    rho, beta, u, u2, p = (fields[k, ...] for k in range(5))
    two_p = scratch.take(*p.shape)
    return [(np.multiply, _TWO, p, two_p), (np.divide, rho, two_p, beta),
            (np.multiply, u, u, u2)]


def _evj_work(m: FaceMeans, gas: GasModel, scratch, out=None):
    """entropy_vars_jump's work for the record m: the stacked result out,
    new unless given, and the calls, with the jump of the (rho, beta, u)
    halves of both sides and two temporaries from scratch."""
    if out is None:
        out = np.empty((3,) + m.shape)
    jump = scratch.take(3, *m.shape)
    d_rho, d_beta, d_u = jump[0, ...], jump[1, ...], jump[2, ...]
    t1, t2 = scratch.take(*m.shape), scratch.take(*m.shape)
    rho_ln, beta_ln = m._ln_operands
    return out, _calls([
        # the (rho, beta, u) rows of right - left, from the contiguous
        # halves
        (np.subtract, m.pairs[1, :3], m.pairs[0, :3], jump),
        (np.divide, d_rho, rho_ln, t1),
        (np.multiply, gas._gm1, beta_ln, t2), (np.divide, _ONE, t2, t2),
        (np.subtract, t2, m.u2_bar, t2), (np.multiply, t2, d_beta, t2),
        (np.add, t1, t2, t1),
        (np.multiply, _TWO, m.u_bar, t2), (np.multiply, t2, m.beta_bar, t2),
        (np.multiply, t2, d_u, t2), (np.subtract, t1, t2, out[0, ...]),
        (np.multiply, m.beta_bar, d_u, t1), (np.multiply, m.u_bar, d_beta, t2),
        (np.add, t1, t2, t1), (np.multiply, _TWO, t1, out[1, ...]),
        (np.multiply, _NEG_TWO, d_beta, out[2, ...])])


def entropy_vars_jump(m: FaceMeans, gas: GasModel, work=None) -> np.ndarray:
    """Stacked jump v(right) - v(left) of the pairs of the record m, written
    with the log-mean identities d(ln x) = dx / x_ln.

    Algebraically identical to differencing entropy_vars pointwise, but the
    cancellation noise for near-degenerate jumps (stationary contacts) is
    an order of magnitude smaller, which matters when such jumps are
    integrated over thousands of steps.  work, when given, is _evj_work's
    for m, whose out is returned.
    """
    # the log means are formed before a temporary of work is written
    m.rho_ln
    out, calls = work or _evj_work(m, gas, _Scratch())
    for f, a in calls:
        f(*a)
    return out


def entropy_pair(q, gas: GasModel):
    """Entropy function U = -rho s/(gamma-1), flux F = u U, potential psi = rho u."""
    rho, u, _ = q
    s = physical_entropy(q, gas)
    U = -rho * s / (gas.gamma - 1.0)
    return U, u * U, rho * u


def sound_speed(q, gas: GasModel, out=None):
    """a = sqrt(gamma p / rho), written into out when given."""
    rho, p = q[0], q[2]
    return np.sqrt(np.divide(np.multiply(gas._gamma, p, out), rho, out), out)


def total_enthalpy(q, gas: GasModel):
    """H = a^2/(gamma-1) + u^2/2 = gamma p/((gamma-1) rho) + u^2/2."""
    rho, u, p = q
    return gas._gamma * p / (gas._gm1 * rho) + _HALF * u * u


def _log_mean_work(a, b, out, scratch):
    """log_mean's work for the arguments a and b and the result out: out,
    a temporary for the positivity check, and the calls, with four
    temporaries and the flags of the direct quotient from scratch."""
    diff, total, z2, t = (scratch.take(*out.shape) for _ in range(4))
    direct = scratch.take(*out.shape, dtype=bool)
    return out, diff, _calls([
        (np.subtract, b, a, diff), (np.add, b, a, total),
        (np.divide, diff, total, z2), (np.multiply, z2, z2, z2),
        (np.multiply, _HALF, total, out),
        (np.divide, z2, _SEVEN, t), (np.add, _FIFTH, t, t),
        (np.multiply, z2, t, t), (np.add, _THIRD, t, t),
        (np.multiply, z2, t, t), (np.add, _ONE, t, t),
        (np.divide, out, t, out),
        # the direct quotient overwrites the series where zeta^2 is not
        # small (both are NaN where zeta is) and is not evaluated
        # elsewhere
        (np.greater_equal, z2, _LOG_MEAN_SWITCH, direct),
        (np.log, b, t), (np.log, a, total), (np.subtract, t, total, t),
        (partial(np.divide, where=direct), diff, t, out)])


def log_mean(a, b, out=None, work=None):
    """Logarithmic mean (b - a)/(ln b - ln a), stable as b -> a.

    For zeta = (b-a)/(b+a) with zeta^2 below LOG_MEAN_SWITCH the direct
    quotient is replaced by the series
    (a+b)/2 / (1 + zeta^2/3 + zeta^4/5 + zeta^6/7).  work, when given, is
    _log_mean_work's for a, b and out, whose out is returned.
    """
    if work is None:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if out is None:
            out = np.empty(np.broadcast_shapes(a.shape, b.shape))
        work = _log_mean_work(a, b, out, _Scratch())
    out, diff, calls = work
    # fmin skips a NaN partner, and its reduction a NaN entry: this flags
    # exactly the pairs where a <= 0 or b <= 0
    if np.fmin.reduce(np.fmin(a, b, diff), None, initial=np.inf) <= 0.0:
        raise ValueError("log_mean requires strictly positive arguments")
    for f, x in calls:
        f(*x)
    return out
