"""Device configuration: JSON schema with explicit SI units in field names.

A config document carries named device profiles (geometry plus material
layers), mode thresholds, servo-map endpoints and ``fit``'s parameter
bounds (``solver.fit_bounds``).  The bundled default encodes the
full-scale device (1 cm sensing radius, 25 um PI + 0.2 um Al diaphragm,
about 400 um separation gap) alongside the scaled validation geometry
and an uncalibrated air-gap variant.  Its thresholds encode the paper's
mode boundaries (normal 0-8 kPa, transition 8-10 kPa, touch 10-40 kPa,
saturation above) on the default profile's model response, each
fraction read off the model's own relations and rounded down to 4
digits:

- transition_fraction = W0(8 kPa) / travel = 0.96246 -> 0.9624
- touch_onset_fraction = a(10 kPa) / R = 0.24167 -> 0.2416
- saturation_fraction = a(40 kPa) / R = 0.60006 -> 0.6

The paper gives the ranges but no physical definition of transition, so
these values are a calibration to them, not a derivation.

The ``thresholds`` block and its three keys are required: no fraction is
generic, so a config that leaves one out is a ConfigError naming the key.

Every numeric value must be a JSON number.  One key table per section maps
JSON keys to dataclass fields both ways, so a sweep sidecar's ``geometry``
and ``thresholds`` blocks (``geometry_doc``, ``thresholds_doc``) load back
as a profile and a ``thresholds`` section; ``DeviceGeometry`` owns the
profile defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .materials import Laminate, MaterialLayer
from .mechanics import (DeviceGeometry, ModeThresholds, base_capacitance,
                        cubic_coefficients, linear_center_deflection)
from .servo import ServoMap

DEFAULT_CONFIG_RESOURCE = "default_device.json"


class ConfigError(ValueError):
    """Invalid or inconsistent device configuration."""


@dataclass(frozen=True)
class DeviceConfig:
    profiles: dict[str, DeviceGeometry]
    thresholds: ModeThresholds
    servo: ServoMap
    fit_bounds: dict[str, tuple[float, float]]  # solver.fit_bounds: name -> (lo, hi)

    def geometry(self, profile: str = "default") -> DeviceGeometry:
        try:
            return self.profiles[profile]
        except KeyError:
            raise ConfigError(
                f"unknown profile {profile!r}; available: {sorted(self.profiles)}"
            ) from None


# Key tables: (dataclass field, JSON key, default) for each section, in
# the order a sweep sidecar writes them; a default of None marks a
# required key.  parse_config reads through them, and geometry_doc and
# thresholds_doc write through them.
_LAYER_KEYS = (("youngs_modulus", "youngs_modulus_pa", None),
               ("poisson_ratio", "poisson_ratio", None),
               ("thickness", "thickness_m", None))
_PROFILE_KEYS = tuple(
    (f.name, {"radius": "radius_m", "gap": "gap_m", "builtin_stress": "builtin_stress_pa",
              "dielectric_thickness": "dielectric_thickness_m"}.get(f.name, f.name),
     None if f.default is MISSING else f.default)
    for f in fields(DeviceGeometry) if f.name != "laminate")
_THRESHOLD_KEYS = tuple((f.name, f.name, None) for f in fields(ModeThresholds))
_SERVO_KEYS = (("p_min", "pressure_min_pa", 10e3),
               ("p_max", "pressure_max_pa", 40e3),
               ("angle_min", "angle_min_deg", 0.0),
               ("angle_max", "angle_max_deg", 90.0))


def _is_number(value) -> bool:
    """The one JSON-number check: an int or a float, but not a bool (JSON
    ``true``).  Ranges and finiteness are the dataclasses' own checks."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object; ConfigError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _float(value, where: str) -> float:
    """A JSON number as a float; ConfigError naming ``where`` for an
    integer too large for one."""
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} is too large for a float: an integer of "
                          f"{len(str(abs(value)))} digits") from None


def _read(doc: dict, keys) -> dict:
    """Dataclass keyword arguments read from ``doc`` through a key table;
    KeyError for a missing required key, ConfigError for a non-number."""
    kwargs = {}
    for name, key, default in keys:
        value = doc[key] if default is None else doc.get(key, default)
        if not _is_number(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        kwargs[name] = _float(value, key)
    return kwargs


def _write(obj, keys) -> dict:
    """The JSON object of ``obj`` under a key table, in table order."""
    return {key: getattr(obj, name) for name, key, _ in keys}


def geometry_doc(geom: DeviceGeometry) -> dict:
    """A profile's JSON object, as a sweep sidecar's ``geometry`` block writes it."""
    return {**_write(geom, _PROFILE_KEYS),
            "layers": [{"name": l.name, **_write(l, _LAYER_KEYS)}
                       for l in geom.laminate.layers]}


def thresholds_doc(thresholds: ModeThresholds) -> dict:
    """The ``thresholds`` section's JSON object, as a sweep sidecar writes it."""
    return _write(thresholds, _THRESHOLD_KEYS)


# Quantities the model derives from a profile, each with the keys it is
# computed from.  Each must be finite and > 0; without the check, a radius
# or a layer thickness of 1e300 loads, and a command then fails with an
# OverflowError or a NaN.  (The travel needs no check: DeviceGeometry
# already requires gap > dielectric_thickness >= 0, both finite.)
_LAYER_FIELDS = "the layers' youngs_modulus_pa, poisson_ratio and thickness_m"
_DERIVED = (
    ("flexural rigidity D", _LAYER_FIELDS, lambda g: g.flexural_rigidity),
    ("stress term c1 = 1 + sigma h R^2 / (16 D)",
     f"builtin_stress_pa, radius_m and {_LAYER_FIELDS}",
     lambda g: cubic_coefficients(g)[0]),
    ("cubic term c3 = K / h^2", "the layers' thickness_m",
     lambda g: cubic_coefficients(g)[1]),
    ("load term R^4 / (64 D)", f"radius_m and {_LAYER_FIELDS}",
     lambda g: linear_center_deflection(g, 1.0)),
    ("rest capacitance C0", "radius_m, gap_m, dielectric_thickness_m, "
     "dielectric_rel_permittivity and medium_rel_permittivity", base_capacitance),
)


def _check_derived(geom: DeviceGeometry, where: str) -> None:
    """ConfigError naming the profile, the first derived quantity of
    ``geom`` that is not finite and > 0, and the keys it comes from."""
    for name, keys, value in _DERIVED:
        try:
            with np.errstate(all="ignore"):
                v = value(geom)
        except ArithmeticError:  # a Python float overflow or division by 0
            v = math.inf
        if not 0.0 < v < math.inf:  # false for NaN too
            raise ConfigError(f"{where}: the {name} is {v}, not finite and > 0; "
                              f"check {keys}")


def _parse_layer(doc) -> MaterialLayer:
    try:
        return MaterialLayer(name=str(_object(doc, "layer")["name"]),
                             **_read(doc, _LAYER_KEYS))
    except KeyError as exc:
        raise ConfigError(f"missing layer field {exc}") from None


def _parse_geometry(doc, where: str) -> DeviceGeometry:
    _object(doc, where)
    try:
        if not isinstance(doc["layers"], list):
            raise ConfigError(f"layers must be a list, got {doc['layers']!r}")
        geom = DeviceGeometry(
            **_read(doc, _PROFILE_KEYS),
            laminate=Laminate(tuple(_parse_layer(l) for l in doc["layers"])))
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    _check_derived(geom, where)
    return geom


def _parse_section(doc: dict, name: str, cls, keys):
    """The top-level section ``name`` read into ``cls``; a missing section
    or key without a default is a ConfigError naming the key."""
    section = _object(doc.get(name, {}), name)
    try:
        return cls(**_read(section, keys))
    except KeyError as exc:
        raise ConfigError(f"{name}: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def parse_config(doc: dict) -> DeviceConfig:
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles"), dict):
        raise ConfigError("config must contain a 'profiles' object")
    profiles = {name: _parse_geometry(g, f"profiles.{name}")
                for name, g in doc["profiles"].items()}
    if "default" not in profiles:
        raise ConfigError("config must define a 'default' profile")
    thresholds = _parse_section(doc, "thresholds", ModeThresholds, _THRESHOLD_KEYS)
    servo = _parse_section(doc, "servo", ServoMap, _SERVO_KEYS)

    # A "grid_nodes" or "quadrature_rel_tol" key from older configs is
    # ignored: validate's ladder is a CLI constant and every capacitance
    # is a closed form.
    so = _object(doc.get("solver", {}), "solver")
    bounds = {}
    for name, pair in _object(so.get("fit_bounds", {}), "solver.fit_bounds").items():
        where = f"solver.fit_bounds.{name}"
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_is_number, pair))):
            raise ConfigError(f"{where} must be a [lo, hi] pair of numbers, got {pair!r}")
        lo, hi = (_float(v, where) for v in pair)
        if not -math.inf < lo < hi < math.inf:  # false for NaN too
            raise ConfigError(f"{where} must be finite with lo < hi, got [{lo}, {hi}]")
        bounds[name] = (lo, hi)
    return DeviceConfig(profiles=profiles, thresholds=thresholds,
                        servo=servo, fit_bounds=bounds)


def load_config(path: str | Path | None = None) -> DeviceConfig:
    """Load a config file, or the bundled default when no path is given.
    A file is read as UTF-8, the encoding JSON requires."""
    if path is None:
        text = resources.files("touchcap.data").joinpath(
            DEFAULT_CONFIG_RESOURCE).read_text(encoding="utf-8")
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    # ValueError: not JSON, or an integer too long to read; RecursionError:
    # arrays or objects nested too deep to read.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)
