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

import numpy as np

from .dissipation import MATRIX_LAWS, SCALAR_BETA_AVERAGES, DissipationSpec
from .fluxes import CENTRAL_FLUXES
from .reconstruction import LIMITERS, ReconSpec
from .spatial import BoundaryCondition, BoundarySpec, Grid1D
from .thermo import ConsState, GasModel, PrimState, ViscosityLaw, prim_to_cons
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


# canonical key set; every preset and serialized config uses these
_DEFAULTS = {
    "name": "run",
    "n_cells": "100",
    "x_min": "0.0",
    "x_max": "1.0",
    "gamma": "1.4",
    "gas_constant": "1.0",
    "prandtl": "0.72",
    "viscosity": "none",
    "mu_ref": "0.0",
    "t_ref": "1.0",
    "mu_exponent": "0.0",
    "flux": "kepec",
    "diss": "none",
    "kappa2": "0.0",
    "kappa4": "0.0",
    "beta_average": "logarithmic",
    "law": "roe",
    "ec1_beta": str(1.0 / 6.0),
    "recon_order": "1",
    "limiter": "minmod",
    "cfl": "0.4",
    "t_final": "0.2",
    "max_steps": "1000000",
    "steady_tol": "none",
    "bc_left": "transmissive",
    "bc_right": "transmissive",
    "outflow_mass_flux": "1.0",
    "ic": "uniform",
    "left_rho": "1.0",
    "left_u": "0.0",
    "left_p": "1.0",
    "right_rho": "1.0",
    "right_u": "0.0",
    "right_p": "1.0",
    "x_diaphragm": "0.5",
    "rho": "1.0",
    "u": "0.0",
    "p": "1.0",
    "snapshot_interval": "none",
}

KNOWN_KEYS = frozenset(_DEFAULTS) | {"preset"}


def _as_float(raw, key):
    try:
        value = float(raw[key])
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw[key]!r}")
    return value


def _as_int(raw, key):
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw[key]!r}") from None


def _as_optional_float(raw, key):
    value = str(raw[key]).strip().lower()
    if value in ("none", ""):
        return None
    return _as_float(raw, key)


def _build(cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _as_choice(raw, key, choices):
    value = str(raw[key]).strip()
    if value not in choices:
        raise ConfigError(f"{key}: {value!r} is not one of {sorted(choices)}")
    return value


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

        merged = dict(preset_raw(raw["preset"]))
        merged.update({k: v for k, v in raw.items() if k != "preset"})
        raw = merged
    full = dict(_DEFAULTS)
    full.update(raw)
    raw = full

    # range checks live in the dataclasses, whose messages name the key
    grid = _build(Grid1D, _as_int(raw, "n_cells"), _as_float(raw, "x_min"),
                  _as_float(raw, "x_max"))
    law = _build(ViscosityLaw,
                 _as_choice(raw, "viscosity", ("none", "constant", "power")),
                 _as_float(raw, "mu_ref"), _as_float(raw, "t_ref"),
                 _as_float(raw, "mu_exponent"))
    gas = _build(GasModel, _as_float(raw, "gamma"),
                 _as_float(raw, "gas_constant"), law,
                 _as_float(raw, "prandtl"))

    flux_kind = _as_choice(raw, "flux", tuple(CENTRAL_FLUXES))

    diss = _build(
        DissipationSpec,
        kind=_as_choice(raw, "diss", ("none", "scalar", "matrix")),
        kappa2=_as_float(raw, "kappa2"),
        kappa4=_as_float(raw, "kappa4"),
        beta_average=_as_choice(raw, "beta_average", SCALAR_BETA_AVERAGES),
        matrix_law=_as_choice(raw, "law", MATRIX_LAWS),
        ec1_beta=_as_float(raw, "ec1_beta"),
    )
    recon = _build(ReconSpec, _as_int(raw, "recon_order"),
                   _as_choice(raw, "limiter", LIMITERS))
    time = _build(TimeSpec, _as_float(raw, "cfl"), _as_float(raw, "t_final"),
                  _as_int(raw, "max_steps"),
                  _as_optional_float(raw, "steady_tol"))

    ic_kind = _as_choice(raw, "ic", ("riemann", "uniform"))
    left = PrimState(_as_float(raw, "left_rho"), _as_float(raw, "left_u"),
                     _as_float(raw, "left_p"))
    right = PrimState(_as_float(raw, "right_rho"), _as_float(raw, "right_u"),
                      _as_float(raw, "right_p"))
    uniform = PrimState(_as_float(raw, "rho"), _as_float(raw, "u"),
                        _as_float(raw, "p"))
    for label, q in (("left", left), ("right", right), ("uniform", uniform)):
        if not (q.rho > 0.0 and q.p > 0.0):
            raise ConfigError(f"{label} state: rho and p must be > 0")
    x_diaphragm = _as_float(raw, "x_diaphragm")
    ic = InitialCondition("riemann", left, right, x_diaphragm, None) \
        if ic_kind == "riemann" else InitialCondition("uniform", state=uniform)

    outflow_mass_flux = _as_float(raw, "outflow_mass_flux")

    def make_bc(key, edge_state):
        kinds = ("transmissive", "fixed_state", "periodic")
        if key == "bc_right":
            kinds = kinds + ("shock_outflow",)
        kind = _as_choice(raw, key, kinds)
        if kind == "fixed_state":
            return BoundaryCondition("fixed_state", state=edge_state)
        if kind == "shock_outflow":
            return BoundaryCondition("shock_outflow",
                                     mass_flux=outflow_mass_flux)
        return BoundaryCondition(kind)

    left_edge = left if ic_kind == "riemann" else uniform
    right_edge = right if ic_kind == "riemann" else uniform
    try:
        bcs = BoundarySpec(make_bc("bc_left", left_edge),
                           make_bc("bc_right", right_edge))
    except ValueError as exc:
        raise ConfigError(f"bc_left/bc_right: {exc}") from None

    snapshot_interval = _as_optional_float(raw, "snapshot_interval")
    if snapshot_interval is not None and snapshot_interval < 0.0:
        raise ConfigError("snapshot_interval: must be >= 0")

    return ProblemConfig(
        name=raw["name"],
        grid=grid,
        gas=gas,
        ic=ic,
        bcs=bcs,
        flux_kind=flux_kind,
        diss=diss,
        recon=recon,
        time=time,
        snapshot_interval=snapshot_interval,
    )


def parse_config(text: str) -> ProblemConfig:
    return config_from_dict(parse_config_raw(text))


def config_to_dict(config: ProblemConfig) -> dict:
    """Raw key/value pairs reproducing the config through config_from_dict."""
    gas = config.gas
    ic = config.ic
    left = ic.left if ic.kind == "riemann" else ic.state
    right = ic.right if ic.kind == "riemann" else ic.state
    uniform = ic.state if ic.kind == "uniform" else PrimState(1.0, 0.0, 1.0)
    out = {
        "name": config.name,
        "n_cells": repr(config.grid.n_cells),
        "x_min": repr(config.grid.x_min),
        "x_max": repr(config.grid.x_max),
        "gamma": repr(gas.gamma),
        "gas_constant": repr(gas.gas_constant),
        "prandtl": repr(gas.prandtl),
        "viscosity": gas.viscosity_law.kind,
        "mu_ref": repr(gas.viscosity_law.mu_ref),
        "t_ref": repr(gas.viscosity_law.t_ref),
        "mu_exponent": repr(gas.viscosity_law.exponent),
        "flux": config.flux_kind,
        "diss": config.diss.kind,
        "kappa2": repr(config.diss.kappa2),
        "kappa4": repr(config.diss.kappa4),
        "beta_average": config.diss.beta_average,
        "law": config.diss.matrix_law,
        "ec1_beta": repr(config.diss.ec1_beta),
        "recon_order": repr(config.recon.order),
        "limiter": config.recon.limiter,
        "cfl": repr(config.time.cfl),
        "t_final": repr(config.time.t_final),
        "max_steps": repr(config.time.max_steps),
        "steady_tol": ("none" if config.time.steady_tol is None
                       else repr(config.time.steady_tol)),
        "bc_left": config.bcs.left.kind,
        "bc_right": config.bcs.right.kind,
        "outflow_mass_flux": repr(config.bcs.right.mass_flux
                                  if config.bcs.right.mass_flux is not None
                                  else 1.0),
        "ic": ic.kind,
        "left_rho": repr(float(left.rho)),
        "left_u": repr(float(left.u)),
        "left_p": repr(float(left.p)),
        "right_rho": repr(float(right.rho)),
        "right_u": repr(float(right.u)),
        "right_p": repr(float(right.p)),
        "x_diaphragm": repr(ic.x_diaphragm),
        "rho": repr(float(uniform.rho)),
        "u": repr(float(uniform.u)),
        "p": repr(float(uniform.p)),
        "snapshot_interval": ("none" if config.snapshot_interval is None
                              else repr(config.snapshot_interval)),
    }
    return out


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


def initial_state(config: ProblemConfig) -> ConsState:
    """Cell-centre sampled initial conserved state."""
    return prim_to_cons(_initial_prim(config, config.grid.cell_centers()),
                        config.gas)
