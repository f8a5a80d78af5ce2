import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from touchcap.capacitance import sweep_cp_curve
from touchcap.config import ConfigError, load_config, parse_config
from touchcap.mechanics import ModeThresholds
from touchcap.servo import ServoMap, servo_angle


class TestLoadConfig:
    def test_bundled_default(self, config):
        assert "default" in config.profiles
        assert "fem_scaled" in config.profiles
        geom = config.geometry("default")
        assert geom.radius == 0.01
        assert geom.laminate.total_thickness == pytest.approx(25.2e-6, rel=1e-6, abs=0)

    def test_unknown_profile(self, config):
        with pytest.raises(ConfigError, match="unknown profile"):
            config.geometry("nope")

    def test_file_round_trip(self, tmp_path, config):
        from importlib import resources
        text = resources.files("touchcap.data").joinpath(
            "default_device.json").read_text()
        path = tmp_path / "cfg.json"
        path.write_text(text)
        loaded = load_config(path)
        assert loaded.geometry("default") == config.geometry("default")
        assert loaded.servo == config.servo

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_integer_too_long_to_read(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"profiles": {"default": {"radius_m": ' + "1" * 5000 + "}}}")
        with pytest.raises(ConfigError, match="JSON.*5000 digits"):
            load_config(path)

    def test_nesting_too_deep_to_read(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="JSON.*recursion"):
            load_config(path)


class TestParseConfig:
    def minimal(self):
        return {
            "profiles": {
                "default": {
                    "radius_m": 0.01,
                    "gap_m": 4e-4,
                    "layers": [{"name": "PI", "youngs_modulus_pa": 2.5e9,
                                "poisson_ratio": 0.34, "thickness_m": 25e-6}],
                }
            },
            "thresholds": {"transition_fraction": 0.9, "touch_onset_fraction": 0.2,
                           "saturation_fraction": 0.6},
        }

    def test_minimal_parses_with_defaults(self):
        cfg = parse_config(self.minimal())
        assert cfg.thresholds == ModeThresholds(0.9, 0.2, 0.6)
        assert cfg.servo.p_max == 40e3
        assert cfg.fit_bounds == {}

    def test_missing_profiles(self):
        with pytest.raises(ConfigError, match="profiles"):
            parse_config({})

    def test_missing_default_profile(self):
        doc = self.minimal()
        doc["profiles"] = {"other": doc["profiles"]["default"]}
        with pytest.raises(ConfigError, match="default"):
            parse_config(doc)

    def test_missing_field_named(self):
        doc = self.minimal()
        del doc["profiles"]["default"]["gap_m"]
        with pytest.raises(ConfigError, match="gap_m"):
            parse_config(doc)

    def test_bad_layer_rejected(self):
        doc = self.minimal()
        doc["profiles"]["default"]["layers"][0]["poisson_ratio"] = 0.7
        with pytest.raises(ConfigError, match="poisson"):
            parse_config(doc)

    @pytest.mark.parametrize("drop,key", [
        (None, "transition_fraction"),
        ("transition_fraction", "transition_fraction"),
        ("touch_onset_fraction", "touch_onset_fraction"),
        ("saturation_fraction", "saturation_fraction"),
    ], ids=["no_block", "no_transition", "no_onset", "no_saturation"])
    def test_missing_threshold_named(self, drop, key):
        # No fraction is generic: a missing block or key is an error.
        doc = self.minimal()
        if drop is None:
            del doc["thresholds"]
        else:
            del doc["thresholds"][drop]
        with pytest.raises(ConfigError, match=f"thresholds: missing field '{key}'"):
            parse_config(doc)

    def test_legacy_quadrature_key_still_loads(self):
        # Neither older solver key is read, whatever its value.
        doc = self.minimal()
        doc["solver"] = {"grid_nodes": "abc", "quadrature_rel_tol": 1e-10,
                         "fit_bounds": {"gap": [1e-4, 1e-3]}}
        assert parse_config(doc) == replace(parse_config(self.minimal()),
                                            fit_bounds={"gap": (1e-4, 1e-3)})

    @given(st.sampled_from([
               (("profiles", "default"), "radius_m", "radius"),
               (("profiles", "default"), "gap_m", "gap"),
               (("profiles", "default"), "builtin_stress_pa", "builtin_stress"),
               (("profiles", "default", "layers", 0), "thickness_m", "thickness"),
               (("profiles", "default", "layers", 0), "youngs_modulus_pa",
                "youngs_modulus"),
               (("thresholds",), "touch_onset_fraction", "touch_onset_fraction"),
               (("servo",), "pressure_min_pa", "p_min"),
               (("servo",), "pressure_max_pa", "p_max"),
               (("servo",), "angle_min_deg", "angle_min"),
               (("servo",), "angle_max_deg", "angle_max")]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_value_named(self, where, bad):
        path, key, field = where
        doc = self.minimal()
        doc["servo"] = {}
        node = doc
        for step in path:
            node = node[step]
        node[key] = bad
        # The document goes through JSON text, which spells bad as a
        # NaN / Infinity / -Infinity token that json.loads reads back.
        with pytest.raises(ConfigError, match=f"{field} must be finite, got {bad}"):
            parse_config(json.loads(json.dumps(doc)))

    def test_bad_solver_settings(self):
        doc = self.minimal()
        doc["solver"] = {"fit_bounds": [[1e-4, 1e-3]]}
        with pytest.raises(ConfigError, match="solver.fit_bounds must be an object"):
            parse_config(doc)

    @pytest.mark.parametrize("path,value,message", [
        (("profiles", "default", "radius_m"), None,
         "profiles.default: radius_m must be a number, got None"),
        (("thresholds", "transition_fraction"), None,
         "thresholds: transition_fraction must be a number, got None"),
        (("solver", "fit_bounds", "gap"), [1e-4],
         r"solver.fit_bounds.gap must be a \[lo, hi\] pair"),
        (("solver", "fit_bounds", "gap"), [1e-4, None],
         r"solver.fit_bounds.gap must be a \[lo, hi\] pair"),
        (("solver",), [201], r"solver must be an object, got \[201\]"),
        (("profiles", "default", "layers"), 3,
         "profiles.default: layers must be a list, got 3"),
        (("profiles", "default"), 3, "profiles.default must be an object, got 3"),
        (("profiles", "default", "radius_m"), True,
         "profiles.default: radius_m must be a number, got True"),
        (("profiles", "default", "gap_m"), "4.2e-4",
         "profiles.default: gap_m must be a number, got '4.2e-4'"),
        (("profiles", "default", "radius_m"), "abc",
         "profiles.default: radius_m must be a number, got 'abc'"),
        (("solver", "fit_bounds", "gap"), [math.nan, 1e-3],
         r"solver.fit_bounds.gap must be finite with lo < hi, got \[nan, 0.001\]"),
        (("solver", "fit_bounds", "gap"), [1e-3, 1e-4],
         r"solver.fit_bounds.gap must be finite with lo < hi, got \[0.001, 0.0001\]"),
        (("profiles", "default", "radius_m"), 10**400,
         "profiles.default: radius_m is too large for a float: an integer of 401 digits"),
        (("solver", "fit_bounds", "gap"), [1e-4, 10**400],
         "solver.fit_bounds.gap is too large for a float: an integer of 401 digits"),
        (("profiles", "default", "layers", 0), {"name": "PI", "youngs_modulus_pa": 2.5e9},
         "profiles.default: missing layer field 'poisson_ratio'"),
    ], ids=["null_radius", "null_threshold", "one_bound", "null_bound", "solver_list",
            "layers_number", "profile_number", "bool_radius", "string_gap",
            "text_radius", "nan_bound", "inverted_bounds", "huge_radius", "huge_bound",
            "layer_field"])
    def test_malformed_value_named(self, path, value, message):
        doc = self.minimal()
        doc["solver"] = {"fit_bounds": {}}
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=message):
            parse_config(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("profile", ["default", "airgap", "dielectric_50um",
                                         "fem_scaled"])
    def test_sweep_sidecar_loads_back(self, config, profile):
        # The sidecar's geometry and thresholds blocks are a config profile
        # and thresholds section.
        geom = config.geometry(profile)
        curve = sweep_cp_curve(geom, [0.0, 1e3], config.thresholds, profile)
        sidecar = json.loads(curve.to_json(geom, config.thresholds))
        loaded = parse_config({"profiles": {"default": sidecar["geometry"]},
                               "thresholds": sidecar["thresholds"]})
        assert loaded.geometry() == geom
        assert loaded.thresholds == config.thresholds


class TestServoMap:
    def test_endpoints_exact(self, config):
        assert servo_angle(config.servo, 10e3) == 0.0
        assert servo_angle(config.servo, 40e3) == 90.0

    def test_midpoint_exact(self, config):
        assert servo_angle(config.servo, 25e3) == 45.0

    def test_clamping(self, config):
        assert servo_angle(config.servo, 5e3) == 0.0
        assert servo_angle(config.servo, 60e3) == 90.0

    def test_monotone_and_idempotent(self, config):
        pressures = [0.0, 5e3, 10e3, 17e3, 25e3, 40e3, 55e3]
        angles = [servo_angle(config.servo, p) for p in pressures]
        assert all(b >= a for a, b in zip(angles, angles[1:]))
        # Pre-clamped inputs map to the same angle again.
        for p in (10e3, 25e3, 40e3):
            assert servo_angle(config.servo, p) == servo_angle(
                config.servo, min(max(p, 10e3), 40e3))

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ServoMap(p_min=2.0, p_max=1.0, angle_min=0.0, angle_max=90.0)
        with pytest.raises(ValueError):
            ServoMap(p_min=1.0, p_max=2.0, angle_min=90.0, angle_max=0.0)
