import ast
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from kepes.config import (
    _KEYS,
    KNOWN_KEYS,
    ConfigError,
    InitialCondition,
    _float,
    _int,
    _optional_float,
    _text,
    config_from_dict,
    config_to_dict,
    initial_state,
    parse_config,
    parse_config_raw,
    serialize_config,
)
from kepes.dissipation import DissipationSpec
from kepes.presets import list_presets, preset
from kepes.spatial import BoundaryCondition
from kepes.thermo import GasModel, PrimState, ViscosityLaw

FLOAT_KEYS = [k for k, _, parse, _ in _KEYS
              if parse in (_float, _optional_float)]
INT_KEYS = [k for k, _, parse, _ in _KEYS if parse is _int]
CHOICE_KEYS = [k for k, _, parse, _ in _KEYS
               if parse not in (_float, _optional_float, _int, _text)]

# sha256 of serialize_config(preset(name)): `kepes preset NAME` prints this
# text, and a change to the key table must leave it byte-identical
PRESET_TEXT_SHA256 = {
    "modified_sod":
        "bf682cf23fdb2911177f771a91e2adbdf5e56d5ae57661c197eaf13d43c1dac6",
    "ns_shock_structure_n100":
        "7e5cb5727e7c151223594f5b8bc393a614be9db22019ed85fc20cd49b6282449",
    "ns_shock_structure_n200":
        "f4ea1ebbb1b0b8fbe5ba50a8e5943a86b873792748e8084dbf537f715f9f95fa",
    "ns_shock_structure_n200_d4":
        "430c8ab0c4ef2b372c79847e24c09362feb5267bfc668e1af9f20557d51af852",
    "ns_shock_structure_n50":
        "ec76bdf7265ce71a8b0b3c7def04e6704ab0f8e1840fe3dd111740949573680c",
    "sod":
        "2c5f9106b0dc18195c2f193dfbe65b73bb2862f41cfd3b3720cab1faae51c0bb",
    "sod_viscous":
        "b291d68c3bea678946c58a3f172fa28a4d5ba07380d0bb77602486b4af2fefa3",
    "stationary_contact":
        "d6fb54e9583622b355c4110ad4e90e92eb30bc38338dc6c92af6ee8931f6aca8",
    "stationary_shock_m1.5":
        "1de57f1ce2e8483970d66bb094ed2c8ad79862f6712e3705084a1f83999c375f",
    "stationary_shock_m20":
        "c5878ba5730553dd405109af476834e8adcb69e128086040b16012888e4053e9",
    "stationary_shock_m4":
        "e1e2494123f38896632fd153394ea1ec802756036d63c04722902e64afc64fe2",
}


class TestParseConfigRaw:
    def test_key_value_with_comments_and_sections(self):
        raw = parse_config_raw(
            "# a comment\n"
            "[grid]\n"
            "n_cells = 50\n"
            "\n"
            "cfl = 0.2  # trailing comment\n")
        assert raw == {"n_cells": "50", "cfl": "0.2"}

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            parse_config_raw("cfl = 0.1\nfrobnicate = 3\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_raw("just some words\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_raw("cfl = 0.1\ncfl = 0.2\n")


class TestConfigValidation:
    def test_empty_file_with_preset(self):
        config = parse_config("preset = sod\n")
        assert config.name == "sod"
        assert config.grid.n_cells == 100
        assert config.time.cfl == 0.4
        assert config.time.t_final == 0.2
        assert config.ic.left.rho == 1.0
        assert config.ic.right.p == 0.1

    def test_preset_key_overridable(self):
        config = parse_config("preset = sod\ncfl = 0.2\nflux = kep\n")
        assert config.time.cfl == 0.2
        assert config.flux_kind == "kep"

    def test_zero_cfl_names_field(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("preset = sod\ncfl = 0\n")

    def test_bad_number_names_field(self):
        with pytest.raises(ConfigError, match="t_final"):
            parse_config("t_final = soon\n")

    def test_flux_and_dissipation_selection(self):
        config = parse_config("flux = kepec\ndiss = matrix\nlaw = hyb\n")
        assert config.flux_kind == "kepec"
        assert config.diss.kind == "matrix"
        assert config.diss.matrix_law == "hyb"

    def test_bad_choice_lists_options(self):
        with pytest.raises(ConfigError, match="flux"):
            parse_config("flux = upwind\n")

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigError, match="kappa"):
            parse_config("kappa2 = -0.5\n")

    def test_unknown_preset_lists_options(self):
        with pytest.raises(ConfigError, match="sod"):
            parse_config("preset = sodx\n")

    def test_invalid_state_named(self):
        with pytest.raises(ConfigError, match="left"):
            parse_config("ic = riemann\nleft_rho = -1\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key) as exc:
            config_from_dict({"preset": "stationary_shock_m1.5", key: value})
        assert str(exc.value) == f"{key}: must be finite, got {value!r}"

    @pytest.mark.parametrize("key", CHOICE_KEYS)
    def test_bad_choice_names_key_and_options(self, key):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({key: "bogus"})
        prefix = f"{key}: 'bogus' is not one of "
        message = str(exc.value)
        assert message.startswith(prefix)
        options = ast.literal_eval(message[len(prefix):])
        assert options == sorted(options)
        assert config_to_dict(config_from_dict({}))[key] in options

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_non_integer_rejected_by_name(self, key):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({key: 1.5})
        assert str(exc.value) == f"{key}: not an integer: '1.5'"

    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ConfigError, match="snapshot_interval"):
            parse_config("preset = sod\nsnapshot_interval = -1\n")

    @pytest.mark.parametrize("interval", [-0.01, float("nan")])
    def test_snapshot_interval_checked_on_replace(self, interval):
        # configs built with dataclasses.replace skip config_from_dict
        with pytest.raises(ValueError, match="snapshot_interval: must be"):
            replace(preset("sod"), snapshot_interval=interval)

    @pytest.mark.parametrize("make, field, value, message", [
        (DissipationSpec, "kappa2", np.nan, "kappa2 and kappa4 must be >= 0"),
        (DissipationSpec, "kappa4", np.nan, "kappa2 and kappa4 must be >= 0"),
        (DissipationSpec, "ec1_beta", np.nan, "ec1_beta must be >= 0"),
        (lambda: ViscosityLaw("constant", mu_ref=1.0), "mu_ref", np.nan,
         "mu_ref must be >= 0"),
        (lambda: ViscosityLaw("power", mu_ref=1.0, exponent=0.7), "t_ref",
         np.nan, "t_ref must be > 0 for the power law"),
        (lambda: preset("sod").ic, "x_diaphragm", np.nan,
         "x_diaphragm must be finite"),
        (lambda: preset("sod").ic, "x_diaphragm", np.inf,
         "x_diaphragm must be finite"),
        (lambda: BoundaryCondition("shock_outflow", mass_flux=1.0),
         "mass_flux", np.nan, "mass_flux must be finite"),
        (lambda: preset("sod").ic, "left", PrimState(-1.0, 0.0, 1.0),
         "left state: rho and p must be > 0"),
        (lambda: preset("sod").ic, "right", PrimState(0.125, 0.0, np.nan),
         "right state: rho and p must be > 0"),
        (lambda: InitialCondition(state=PrimState(1.0, 0.0, 1.0)), "state",
         PrimState(np.nan, 0.0, 1.0), "uniform state: rho and p must be > 0"),
        (lambda: preset("stationary_shock_m4").bcs.left, "state",
         PrimState(-1.0, 0.0, 1.0),
         "boundary state: rho and p must be > 0"),
        (lambda: preset("stationary_shock_m4").bcs.left, "state",
         PrimState(np.nan, 0.0, 1.0), "boundary state: rho and p must be > 0"),
        (lambda: preset("sod"), "flux_kind", "bogus",
         "flux: unknown flux kind 'bogus'"),
        # non-finite physical fields: t_ref = inf made mu = 0 while the gas
        # still read as viscous, and a NaN boundary u failed a stage later
        (lambda: preset("ns_shock_structure_n50").gas.viscosity_law, "t_ref",
         np.inf, "t_ref must be finite"),
        (lambda: ViscosityLaw("constant", mu_ref=1.0), "t_ref", np.nan,
         "t_ref must be finite"),
        (lambda: ViscosityLaw("constant", mu_ref=1.0), "mu_ref", np.inf,
         "mu_ref must be finite"),
        (lambda: ViscosityLaw("power", mu_ref=1.0, exponent=0.7), "exponent",
         np.nan, "mu_exponent must be finite"),
        (lambda: ViscosityLaw("power", mu_ref=1.0, exponent=0.7), "exponent",
         -np.inf, "mu_exponent must be finite"),
        (GasModel, "gamma", np.nan, "gamma must be > 1"),
        (GasModel, "gamma", np.inf, "gamma must be finite"),
        (GasModel, "gas_constant", np.inf, "gas_constant must be finite"),
        (GasModel, "prandtl", np.inf, "prandtl must be finite"),
        (lambda: preset("sod").ic, "left", PrimState(1.0, np.nan, 1.0),
         "left state: rho, u and p must be finite"),
        (lambda: preset("sod").ic, "right", PrimState(np.inf, 0.0, 0.1),
         "right state: rho, u and p must be finite"),
        (lambda: InitialCondition(state=PrimState(1.0, 0.0, 1.0)), "state",
         PrimState(1.0, -np.inf, 1.0),
         "uniform state: rho, u and p must be finite"),
        (lambda: preset("stationary_shock_m4").bcs.left, "state",
         PrimState(1.0, np.nan, 1.0),
         "boundary state: rho, u and p must be finite"),
        (lambda: preset("stationary_shock_m4").bcs.left, "state",
         PrimState(1.0, 0.0, np.inf),
         "boundary state: rho, u and p must be finite"),
        # inf passes >= 0: such a run wrote a NaN budget row and ended
        # on an invalid state at step 0
        (lambda: preset("sod_viscous").diss, "kappa4", np.inf,
         "kappa4 must be finite"),
        (lambda: preset("sod_viscous").diss, "kappa2", np.inf,
         "kappa2 must be finite"),
        (lambda: preset("stationary_shock_m4").diss, "ec1_beta", np.inf,
         "ec1_beta must be finite"),
    ], ids=["kappa2", "kappa4", "ec1_beta", "mu_ref", "t_ref",
            "x_diaphragm-nan", "x_diaphragm-inf", "mass_flux",
            "ic-left-rho", "ic-right-p-nan", "ic-uniform-rho-nan",
            "fixed_state-rho", "fixed_state-rho-nan", "flux_kind",
            "t_ref-inf-ns-preset", "t_ref-nan-constant", "mu_ref-inf",
            "exponent-nan", "exponent-inf", "gamma-nan", "gamma-inf",
            "gas_constant-inf", "prandtl-inf", "ic-left-u-nan",
            "ic-right-rho-inf", "ic-uniform-u-inf", "fixed_state-u-nan",
            "fixed_state-p-inf", "kappa4-inf", "kappa2-inf",
            "ec1_beta-inf"])
    def test_range_checks_reject_nan_on_replace(self, make, field, value,
                                                message):
        # NaN fails every comparison, so a check written as x < 0 passes it
        with pytest.raises(ValueError) as exc:
            replace(make(), **{field: value})
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_steady_tol_rejected(self, value):
        # no residual falls below such a tolerance, so the run never stops
        # as steady while paying for the check
        with pytest.raises(ConfigError, match="steady_tol"):
            config_from_dict({"steady_tol": value})

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (0.0, 5e-324)],
                             ids=["overflow", "underflow"])
    def test_cell_width_must_be_finite_and_positive(self, bounds):
        # x_max > x_min holds, but dx is inf or 0: such a run ended as a
        # success after one step with a NaN budget row
        with pytest.raises(ConfigError) as exc:
            parse_config("preset = sod\nx_min = %r\nx_max = %r\n" % bounds)
        assert str(exc.value) == (
            "x_min, x_max: the cell width (x_max - x_min) / n_cells must "
            "be finite and > 0")

    def test_infinite_grid_rejected_on_replace(self):
        grid = preset("sod").grid
        with pytest.raises(ValueError, match="x_min, x_max: the cell width"):
            replace(grid, x_max=np.inf)

    def test_infinite_steady_tol_rejected_on_replace(self):
        # every residual falls below inf, so such a run stopped as steady
        # at its first check
        time = preset("stationary_shock_m4").time
        with pytest.raises(ValueError) as exc:
            replace(time, steady_tol=np.inf)
        assert str(exc.value) == "steady_tol must be finite"


class TestRoundTrip:
    @pytest.mark.parametrize("name", list_presets())
    def test_preset_round_trips(self, name):
        config = preset(name)
        again = parse_config(serialize_config(config))
        assert again == config

    @pytest.mark.parametrize("name", list_presets())
    def test_preset_text_pinned(self, name):
        text = serialize_config(preset(name))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PRESET_TEXT_SHA256[name]

    def test_serialized_keys_follow_the_table(self):
        keys = list(config_to_dict(config_from_dict({})))
        assert keys == [key for key, *_ in _KEYS]
        assert set(keys) == KNOWN_KEYS - {"preset"}

    def test_dict_round_trip(self):
        config = config_from_dict({"n_cells": 42, "flux": "roe_ec",
                                   "diss": "scalar", "kappa4": 0.02})
        again = parse_config(serialize_config(config))
        assert again == config


class TestInitialState:
    def test_riemann_split_at_diaphragm(self):
        config = preset("sod")
        cells = initial_state(config)
        assert np.all(cells[0][:50] == 1.0)
        assert np.all(cells[0][50:] == 0.125)

    def test_uniform(self):
        config = config_from_dict({"ic": "uniform", "rho": 2.0, "u": 0.5,
                                   "p": 3.0, "n_cells": 8})
        cells = initial_state(config)
        assert np.all(cells[0] == 2.0)
        assert np.allclose(cells[1], 1.0)
