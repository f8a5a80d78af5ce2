import json
import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, strategies as st

from touchcap.capacitance import sweep_cp_curve
from touchcap.config import ConfigError, load_config, parse_config
from touchcap.materials import MaterialLayer
from touchcap.mechanics import DeviceGeometry, ModeThresholds
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

    def test_missing_layers_named(self):
        doc = self.minimal()
        del doc["profiles"]["default"]["layers"]
        with pytest.raises(ConfigError, match="^profiles.default: missing field 'layers'$"):
            parse_config(doc)

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

    @pytest.mark.parametrize("path,key,message", [
        (("profiles", "default"), "builtin_stress",
         r"profiles.default: unknown key 'builtin_stress' "
         r"\(builtin_stress is builtin_stress_pa\)$"),
        (("profiles", "default", "layers", 0), "thickness",
         r"profiles.default.layers\[0\]: unknown key 'thickness' "
         r"\(thickness is thickness_m\)$"),
        (("thresholds",), "touch_fraction", "thresholds: unknown key 'touch_fraction'$"),
        (("servo",), "pressure_max", "servo: unknown key 'pressure_max'$"),
        ((), "servos", "top level: unknown key 'servos'$"),
        (("solver", "fit_bounds"), "builtin_stres",
         "solver.fit_bounds: unknown key 'builtin_stres'$"),
        (("solver",), "fitbounds", "solver: unknown key 'fitbounds'$"),
    ], ids=["profile", "layer", "thresholds", "servo", "top_level", "fit_bounds",
            "solver"])
    def test_unknown_key_named(self, path, key, message):
        # A misspelt key was dropped, leaving its field at the default;
        # notes are the only keys no section reads.
        doc = self.minimal()
        doc["servo"] = {}
        doc["solver"] = {"fit_bounds": {}}
        node = doc
        for step in path:
            node = node[step]
        node["comment"] = node["description"] = "a note"
        assert parse_config(doc) == parse_config(self.minimal())
        node[key] = 30000.0
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

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

    def test_servo_error_names_json_keys(self):
        doc = self.minimal()
        doc["servo"] = {"pressure_min_pa": 1e300}
        with pytest.raises(ConfigError, match=r"servo: p_min must be < p_max "
                                              r"\(p_min is pressure_min_pa, "
                                              r"p_max is pressure_max_pa\)"):
            parse_config(doc)

    @pytest.mark.parametrize("section,values,message", [
        ("solver", {"fit_bounds": {"gap": [-1e308, 1e308]}},
         r"solver.fit_bounds.gap must be finite with lo < hi, got \[-1e\+308, 1e\+308\]: "
         r"hi - lo must be in float range, got 1e\+308 - \(-1e\+308\)"),
        ("servo", {"pressure_min_pa": -1e308, "pressure_max_pa": 1e308},
         r"servo: p_max - p_min must be in float range, got 1e\+308 - \(-1e\+308\) "
         r"\(p_min is pressure_min_pa, p_max is pressure_max_pa\)"),
        ("servo", {"angle_min_deg": -1e308, "angle_max_deg": 1e308},
         r"servo: angle_max - angle_min must be in float range"),
    ], ids=["fit_bounds", "servo_pressures", "servo_angles"])
    def test_overflowing_interval_rejected(self, section, values, message):
        # One rule for every interval: lo < hi with hi - lo finite.  These
        # loaded before, and fit then exited 2 or servo wrote nan and inf.
        doc = self.minimal()
        doc[section] = values
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    def test_derived_quantity_names_json_keys(self):
        doc = self.minimal()
        doc["profiles"]["default"]["radius_m"] = 1e-300
        with pytest.raises(ConfigError, match=(
                r"profiles.default: the load term R\^4 / \(64 D\) is 0.0, not finite and "
                r"> 0; check radius and the layers' youngs_modulus, poisson_ratio and "
                r"thickness \(radius is radius_m, youngs_modulus is youngs_modulus_pa, "
                r"thickness is thickness_m\)$")):
            parse_config(doc)

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
         r"profiles.default.layers\[0\]: missing field 'poisson_ratio'"),
        (("profiles", "default", "layers", 0), {"youngs_modulus_pa": 2.5e9,
                                                "poisson_ratio": 0.34, "thickness_m": 25e-6},
         r"profiles.default.layers\[0\]: missing field 'name'"),
        (("profiles", "default", "layers", 0), 3,
         r"profiles.default.layers\[0\] must be an object, got 3"),
        (("profiles", "default", "layers", 0, "thickness_m"), "x",
         r"profiles.default.layers\[0\]: thickness_m must be a number, got 'x'"),
        (("profiles", "default", "layers", 0, "name"), None,
         r"profiles.default.layers\[0\]: name must be a string, got None"),
        (("profiles", "default", "layers", 0, "name"), 5,
         r"profiles.default.layers\[0\]: name must be a string, got 5"),
        (("profiles", "default", "layers", 0, "name"), {"a": [1]},
         r"profiles.default.layers\[0\]: name must be a string, got \{'a': \[1\]\}"),
    ], ids=["null_radius", "null_threshold", "one_bound", "null_bound", "solver_list",
            "layers_number", "profile_number", "bool_radius", "string_gap",
            "text_radius", "nan_bound", "inverted_bounds", "huge_radius", "huge_bound",
            "layer_field", "layer_name", "layer_number", "layer_text",
            "null_name", "number_name", "object_name"])
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
        # and thresholds section, with a key for every field (the laminate's
        # is "layers").
        geom = config.geometry(profile)
        curve = sweep_cp_curve(geom, [0.0, 1e3], config.thresholds, profile)
        sidecar = json.loads(curve.to_json(geom, config.thresholds))
        loaded = parse_config({"profiles": {"default": sidecar["geometry"]},
                               "thresholds": sidecar["thresholds"]})
        assert loaded.geometry() == geom
        assert loaded.thresholds == config.thresholds
        assert len(sidecar["geometry"]) == len(fields(DeviceGeometry))
        assert all(len(layer) == len(fields(MaterialLayer))
                   for layer in sidecar["geometry"]["layers"])
        assert len(sidecar["thresholds"]) == len(fields(ModeThresholds))


class TestServoMap:
    def test_defaults_on_the_dataclass(self):
        # The paper's touch-mode range, 10-40 kPa, onto 0-90 degrees; a
        # servo block's missing keys take these defaults.
        assert ServoMap() == ServoMap(p_min=10e3, p_max=40e3, angle_min=0.0,
                                      angle_max=90.0)
        doc = TestParseConfig().minimal()
        assert parse_config(doc).servo == ServoMap()
        doc["servo"] = {"angle_max_deg": 45}
        assert parse_config(doc).servo == ServoMap(angle_max=45.0)

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

    def test_rejects_overflowing_span(self):
        # Every angle was 0.0 here, where 0 Pa is mid-range and should give 45.
        with pytest.raises(ValueError, match="p_max - p_min must be in float range"):
            ServoMap(p_min=-1e308, p_max=1e308, angle_min=0.0, angle_max=90.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            ServoMap(p_min=2.0, p_max=1.0, angle_min=0.0, angle_max=90.0)
        with pytest.raises(ValueError):
            ServoMap(p_min=1.0, p_max=2.0, angle_min=90.0, angle_max=0.0)
