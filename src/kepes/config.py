"""Problem configuration: plain-text key = value files and validation.

A config file holds one key = value pair per line; blank lines, comments
(#) and cosmetic [section] headers are ignored.  A `preset` key pulls in a
named base configuration whose values the remaining keys override.
Unknown keys are rejected with their line number; invalid values raise a
ConfigError naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .dissipation import MATRIX_LAWS, SCALAR_BETA_AVERAGES, DissipationSpec
from .fluxes import CENTRAL_FLUXES
from .reconstruction import LIMITERS, ReconSpec
from .spatial import BoundaryCondition, BoundarySpec, Grid1D
from .thermo import (GasModel, PrimState, ViscosityLaw, _check_states,
                     prim_to_cons)
from .timeint import TimeSpec

__all__ = [
    "ConfigError",
    "InitialCondition",
    "ProblemConfig",
    "parse_config",
    "parse_config_raw",
    "config_from_dict",
    "config_to_dict",
    "serialize_config",
    "initial_state",
]


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


@dataclass(frozen=True)
class InitialCondition:
    """Riemann (left/right states split at x_diaphragm) or uniform data."""

    kind: str = "uniform"
    left: PrimState | None = None
    right: PrimState | None = None
    x_diaphragm: float = 0.5
    state: PrimState | None = None

    def __post_init__(self):
        if self.kind not in ("riemann", "uniform"):
            raise ValueError(f"unknown initial condition {self.kind!r}")
        if self.kind == "riemann" and (self.left is None or self.right is None):
            raise ValueError("riemann initial condition needs both states")
        if self.kind == "uniform" and self.state is None:
            raise ValueError("uniform initial condition needs a state")
        if not math.isfinite(self.x_diaphragm):
            raise ValueError("x_diaphragm must be finite")
        _check_states(left=self.left, right=self.right, uniform=self.state)


@dataclass(frozen=True)
class ProblemConfig:
    name: str
    grid: Grid1D
    gas: GasModel
    ic: InitialCondition
    bcs: BoundarySpec
    flux_kind: str
    diss: DissipationSpec
    recon: ReconSpec
    time: TimeSpec
    snapshot_interval: float | None = None

    def __post_init__(self):
        if self.flux_kind not in CENTRAL_FLUXES:
            raise ValueError(f"flux: unknown flux kind {self.flux_kind!r}")
        interval = self.snapshot_interval
        if interval is not None and not interval >= 0.0:
            raise ValueError("snapshot_interval: must be >= 0")


def _number(cast, what):
    def parse(key, value):
        try:
            out = cast(value)
        except ValueError:
            raise ConfigError(f"{key}: not {what}: {value!r}") from None
        if isinstance(out, float) and not math.isfinite(out):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
        return out
    return parse


_float, _int = _number(float, "a number"), _number(int, "an integer")


def _optional_float(key, value):
    if str(value).strip().lower() in ("none", ""):
        return None
    return _float(key, value)


def _text(key, value):
    return value


def _choice(*options):
    def parse(key, value):
        value = str(value).strip()
        if value not in options:
            raise ConfigError(
                f"{key}: {value!r} is not one of {sorted(options)}")
        return value
    return parse


def _states(c):
    """The left, right and uniform states that c serializes."""
    ic = c.ic
    if ic.kind == "riemann":
        return ic.left, ic.right, PrimState(1.0, 0.0, 1.0)
    return ic.state, ic.state, ic.state


_BCS = ("transmissive", "fixed_state", "periodic")

# (key, default text, parser, the value a ProblemConfig serializes to, where
# None spells the default), in serialized order; every preset and
# serialized config uses these keys
_KEYS = (
    ("name", "run", _text, lambda c: c.name),
    ("n_cells", "100", _int, lambda c: c.grid.n_cells),
    ("x_min", "0.0", _float, lambda c: c.grid.x_min),
    ("x_max", "1.0", _float, lambda c: c.grid.x_max),
    ("gamma", "1.4", _float, lambda c: c.gas.gamma),
    ("gas_constant", "1.0", _float, lambda c: c.gas.gas_constant),
    ("prandtl", "0.72", _float, lambda c: c.gas.prandtl),
    ("viscosity", "none", _choice("none", "constant", "power"),
     lambda c: c.gas.viscosity_law.kind),
    ("mu_ref", "0.0", _float, lambda c: c.gas.viscosity_law.mu_ref),
    ("t_ref", "1.0", _float, lambda c: c.gas.viscosity_law.t_ref),
    ("mu_exponent", "0.0", _float, lambda c: c.gas.viscosity_law.exponent),
    ("flux", "kepec", _choice(*CENTRAL_FLUXES), lambda c: c.flux_kind),
    ("diss", "none", _choice("none", "scalar", "matrix"),
     lambda c: c.diss.kind),
    ("kappa2", "0.0", _float, lambda c: c.diss.kappa2),
    ("kappa4", "0.0", _float, lambda c: c.diss.kappa4),
    ("beta_average", "logarithmic", _choice(*SCALAR_BETA_AVERAGES),
     lambda c: c.diss.beta_average),
    ("law", "roe", _choice(*MATRIX_LAWS), lambda c: c.diss.matrix_law),
    ("ec1_beta", str(1.0 / 6.0), _float, lambda c: c.diss.ec1_beta),
    ("recon_order", "1", _int, lambda c: c.recon.order),
    ("limiter", "minmod", _choice(*LIMITERS), lambda c: c.recon.limiter),
    ("cfl", "0.4", _float, lambda c: c.time.cfl),
    ("t_final", "0.2", _float, lambda c: c.time.t_final),
    ("max_steps", "1000000", _int, lambda c: c.time.max_steps),
    ("steady_tol", "none", _optional_float, lambda c: c.time.steady_tol),
    ("bc_left", "transmissive", _choice(*_BCS), lambda c: c.bcs.left.kind),
    ("bc_right", "transmissive", _choice(*_BCS, "shock_outflow"),
     lambda c: c.bcs.right.kind),
    ("outflow_mass_flux", "1.0", _float, lambda c: c.bcs.right.mass_flux),
    ("ic", "uniform", _choice("riemann", "uniform"), lambda c: c.ic.kind),
    ("left_rho", "1.0", _float, lambda c: float(_states(c)[0].rho)),
    ("left_u", "0.0", _float, lambda c: float(_states(c)[0].u)),
    ("left_p", "1.0", _float, lambda c: float(_states(c)[0].p)),
    ("right_rho", "1.0", _float, lambda c: float(_states(c)[1].rho)),
    ("right_u", "0.0", _float, lambda c: float(_states(c)[1].u)),
    ("right_p", "1.0", _float, lambda c: float(_states(c)[1].p)),
    ("x_diaphragm", "0.5", _float, lambda c: c.ic.x_diaphragm),
    ("rho", "1.0", _float, lambda c: float(_states(c)[2].rho)),
    ("u", "0.0", _float, lambda c: float(_states(c)[2].u)),
    ("p", "1.0", _float, lambda c: float(_states(c)[2].p)),
    ("snapshot_interval", "none", _optional_float,
     lambda c: c.snapshot_interval),
)

KNOWN_KEYS = frozenset(key for key, *_ in _KEYS) | {"preset"}


def _build(cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config_raw(text: str) -> dict:
    """Key -> raw string value from a config file body."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def config_from_dict(raw: dict) -> ProblemConfig:
    """Build and validate a ProblemConfig from raw key/value pairs."""
    raw = {k: str(v) for k, v in raw.items()}
    for key in raw:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    if "preset" in raw:
        from .presets import preset_raw

        merged = dict(preset_raw(raw.pop("preset")))
        merged.update(raw)
        raw = merged
    v = SimpleNamespace(**{key: parse(key, raw.get(key, default))
                           for key, default, parse, _ in _KEYS})

    # range checks live in the dataclasses, whose messages name the key
    grid = _build(Grid1D, v.n_cells, v.x_min, v.x_max)
    law = _build(ViscosityLaw, v.viscosity, v.mu_ref, v.t_ref, v.mu_exponent)
    gas = _build(GasModel, v.gamma, v.gas_constant, law, v.prandtl)
    diss = _build(DissipationSpec, v.diss, v.kappa2, v.kappa4, v.beta_average,
                  v.law, v.ec1_beta)
    recon = _build(ReconSpec, v.recon_order, v.limiter)
    time = _build(TimeSpec, v.cfl, v.t_final, v.max_steps, v.steady_tol)

    left = PrimState(v.left_rho, v.left_u, v.left_p)
    right = PrimState(v.right_rho, v.right_u, v.right_p)
    uniform = PrimState(v.rho, v.u, v.p)
    # every state is checked, the ones the run does not use included
    _build(_check_states, left=left, right=right, uniform=uniform)
    if v.ic == "riemann":
        ic = InitialCondition("riemann", left, right, v.x_diaphragm, None)
    else:
        ic = InitialCondition("uniform", state=uniform)
        left = right = uniform

    def make_bc(kind, edge_state):
        if kind == "fixed_state":
            return BoundaryCondition(kind, state=edge_state)
        if kind == "shock_outflow":
            return BoundaryCondition(kind, mass_flux=v.outflow_mass_flux)
        return BoundaryCondition(kind)

    try:
        bcs = BoundarySpec(make_bc(v.bc_left, left),
                           make_bc(v.bc_right, right))
    except ValueError as exc:
        raise ConfigError(f"bc_left/bc_right: {exc}") from None

    return _build(ProblemConfig, v.name, grid, gas, ic, bcs, v.flux, diss,
                  recon, time, v.snapshot_interval)


def parse_config(text: str) -> ProblemConfig:
    return config_from_dict(parse_config_raw(text))


def config_to_dict(config: ProblemConfig) -> dict:
    """Raw key/value pairs reproducing the config through config_from_dict."""
    return {k: _spell(get(config), d) for k, d, _, get in _KEYS}


def _spell(value, default: str) -> str:
    """The config-file text of a serialized value; None spells the
    default."""
    if value is None:
        return default
    return value if isinstance(value, str) else repr(value)


def serialize_config(config: ProblemConfig) -> str:
    pairs = config_to_dict(config)
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


def _initial_prim(config: ProblemConfig, x) -> PrimState:
    """The initial (rho, u, p) of config sampled at the points x."""
    ic = config.ic
    if ic.kind == "uniform":
        return PrimState(*(np.full_like(x, f) for f in ic.state))
    on_left = x < ic.x_diaphragm
    return PrimState(*(np.where(on_left, f_l, f_r)
                       for f_l, f_r in zip(ic.left, ic.right)))


def initial_state(config: ProblemConfig) -> np.ndarray:
    """Cell-centre sampled initial conserved (3, n) rows rho, m, E."""
    return prim_to_cons(_initial_prim(config, config.grid.cell_centers()),
                        config.gas)
