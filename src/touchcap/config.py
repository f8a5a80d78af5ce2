"""Device configuration: JSON schema with explicit SI units in field names.

A config document carries named device profiles (geometry plus material
layers), mode thresholds, servo-map endpoints and solver settings.  The
bundled default encodes the full-scale device (1 cm sensing radius,
25 um PI + 0.2 um Al diaphragm, about 400 um separation gap) alongside
the scaled validation geometry and an uncalibrated air-gap variant.  Its
thresholds encode the paper's mode boundaries (normal 0-8 kPa, transition
8-10 kPa, touch 10-40 kPa, saturation above) on the default profile's
model response, each fraction read off the model's own relations and
rounded down to 4 digits:

- transition_fraction = W0(8 kPa) / travel = 0.96246 -> 0.9624
- touch_onset_fraction = a(10 kPa) / R = 0.24167 -> 0.2416
- saturation_fraction = a(40 kPa) / R = 0.60006 -> 0.6

The paper gives the ranges but no physical definition of transition, so
these values are a calibration to them, not a derivation.

A config without a ``thresholds`` block (or without one of its keys)
falls back to the generic ``ModeThresholds`` defaults.  They are not
calibrated to any geometry: on the default profile they put normal ->
transition at 5.03 kPa and touch at 8.49 kPa, not the paper's 8/10 kPa.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .materials import Laminate, MaterialLayer
from .mechanics import DeviceGeometry, ModeThresholds
from .servo import ServoMap

DEFAULT_CONFIG_RESOURCE = "default_device.json"


class ConfigError(ValueError):
    """Invalid or inconsistent device configuration."""


@dataclass(frozen=True)
class SolverSettings:
    grid_nodes: int = 201
    fit_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_nodes < 16:
            raise ConfigError("solver.grid_nodes must be >= 16")


@dataclass(frozen=True)
class DeviceConfig:
    profiles: dict[str, DeviceGeometry]
    thresholds: ModeThresholds
    servo: ServoMap
    solver: SolverSettings

    def geometry(self, profile: str = "default") -> DeviceGeometry:
        try:
            return self.profiles[profile]
        except KeyError:
            raise ConfigError(
                f"unknown profile {profile!r}; available: {sorted(self.profiles)}"
            ) from None


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object; ConfigError naming ``where`` otherwise."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    return value


def _float(doc: dict, key: str, default: float | None = None) -> float:
    """``doc[key]`` as a float, or ``default`` when absent (KeyError if None).

    Raises ConfigError naming the key for a null, list or object.
    """
    value = doc[key] if default is None else doc.get(key, default)
    try:
        return float(value)
    except TypeError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _parse_layer(doc) -> MaterialLayer:
    try:
        return MaterialLayer(name=str(_object(doc, "layer")["name"]),
                             youngs_modulus=_float(doc, "youngs_modulus_pa"),
                             poisson_ratio=_float(doc, "poisson_ratio"),
                             thickness=_float(doc, "thickness_m"))
    except KeyError as exc:
        raise ConfigError(f"missing layer field {exc}") from None


def _parse_geometry(doc, where: str) -> DeviceGeometry:
    _object(doc, where)
    try:
        if not isinstance(doc["layers"], list):
            raise ConfigError(f"layers must be a list, got {doc['layers']!r}")
        return DeviceGeometry(
            radius=_float(doc, "radius_m"),
            laminate=Laminate(tuple(_parse_layer(l) for l in doc["layers"])),
            gap=_float(doc, "gap_m"),
            builtin_stress=_float(doc, "builtin_stress_pa", 0.0),
            dielectric_thickness=_float(doc, "dielectric_thickness_m", 0.0),
            dielectric_rel_permittivity=_float(doc, "dielectric_rel_permittivity", 1.0),
            medium_rel_permittivity=_float(doc, "medium_rel_permittivity", 1.0),
        )
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parse_config(doc: dict) -> DeviceConfig:
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles"), dict):
        raise ConfigError("config must contain a 'profiles' object")
    profiles = {name: _parse_geometry(g, f"profiles.{name}")
                for name, g in doc["profiles"].items()}
    if "default" not in profiles:
        raise ConfigError("config must define a 'default' profile")

    # Missing keys take the uncalibrated ModeThresholds defaults (module docstring).
    th = _object(doc.get("thresholds", {}), "thresholds")
    try:
        thresholds = ModeThresholds(**{
            f.name: _float(th, f.name, f.default) for f in fields(ModeThresholds)})
    except ValueError as exc:
        raise ConfigError(f"thresholds: {exc}") from None

    sv = _object(doc.get("servo", {}), "servo")
    try:
        servo = ServoMap(
            p_min=_float(sv, "pressure_min_pa", 10e3),
            p_max=_float(sv, "pressure_max_pa", 40e3),
            angle_min=_float(sv, "angle_min_deg", 0.0),
            angle_max=_float(sv, "angle_max_deg", 90.0),
        )
    except ValueError as exc:
        raise ConfigError(f"servo: {exc}") from None

    so = _object(doc.get("solver", {}), "solver")
    nodes = so.get("grid_nodes", SolverSettings.grid_nodes)
    try:
        if isinstance(nodes, float) and not nodes.is_integer():
            raise ValueError
        grid_nodes = int(nodes)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"solver.grid_nodes must be a whole number, got {nodes!r}") from None
    bounds = {}
    for name, pair in _object(so.get("fit_bounds", {}), "solver.fit_bounds").items():
        try:
            lo, hi = pair
            bounds[name] = (float(lo), float(hi))
        except (TypeError, ValueError):
            raise ConfigError(f"solver.fit_bounds.{name} must be a [lo, hi] pair "
                              f"of numbers, got {pair!r}") from None
    # A "quadrature_rel_tol" key from older configs is ignored: every
    # capacitance is a closed form.
    solver = SolverSettings(grid_nodes=grid_nodes, fit_bounds=bounds)
    return DeviceConfig(profiles=profiles, thresholds=thresholds,
                        servo=servo, solver=solver)


def load_config(path: str | Path | None = None) -> DeviceConfig:
    """Load a config file, or the bundled default when no path is given."""
    if path is None:
        text = resources.files("touchcap.data").joinpath(
            DEFAULT_CONFIG_RESOURCE).read_text()
    else:
        text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)
