import numpy as np
import pytest

from kepes.config import (
    ConfigError,
    config_from_dict,
    initial_state,
    parse_config,
    parse_config_raw,
    serialize_config,
)
from kepes.presets import list_presets, preset


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
    @pytest.mark.parametrize("key", ["mu_ref", "x_diaphragm", "t_final",
                                     "left_u", "kappa4", "ec1_beta", "gamma",
                                     "outflow_mass_flux", "snapshot_interval"])
    def test_non_finite_rejected_by_name(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({"preset": "stationary_shock_m1.5", key: value})

    def test_negative_snapshot_interval_rejected(self):
        with pytest.raises(ConfigError, match="snapshot_interval"):
            parse_config("preset = sod\nsnapshot_interval = -1\n")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_steady_tol_rejected(self, value):
        # no residual falls below such a tolerance, so the run never stops
        # as steady while paying for the check
        with pytest.raises(ConfigError, match="steady_tol"):
            config_from_dict({"steady_tol": value})


class TestRoundTrip:
    @pytest.mark.parametrize("name", list_presets())
    def test_preset_round_trips(self, name):
        config = preset(name)
        again = parse_config(serialize_config(config))
        assert again == config

    def test_dict_round_trip(self):
        config = config_from_dict({"n_cells": 42, "flux": "roe_ec",
                                   "diss": "scalar", "kappa4": 0.02})
        again = parse_config(serialize_config(config))
        assert again == config


class TestInitialState:
    def test_riemann_split_at_diaphragm(self):
        config = preset("sod")
        cells = initial_state(config)
        assert np.all(cells.rho[:50] == 1.0)
        assert np.all(cells.rho[50:] == 0.125)

    def test_uniform(self):
        config = config_from_dict({"ic": "uniform", "rho": 2.0, "u": 0.5,
                                   "p": 3.0, "n_cells": 8})
        cells = initial_state(config)
        assert np.all(cells.rho == 2.0)
        assert np.allclose(cells.m, 1.0)
