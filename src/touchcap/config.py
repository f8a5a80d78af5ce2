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

Every numeric value must be a JSON number, and a layer's ``name`` a JSON
string.  The module's one job is mapping JSON keys to dataclass fields.
One rule (``_keys``) derives each section's key table from its
dataclass: every str and float field, in field order, under its name or
a JSON key it is renamed to (``radius`` is ``radius_m``), required
unless the field has a default.  One reader (``_parse``) reads every
section through its table and rejects other keys but ``comment`` and
``description``; the tables write a sweep sidecar's ``geometry`` and
``thresholds`` blocks (``geometry_doc``, ``thresholds_doc``), which load
back as a profile and a ``thresholds`` section.  The dataclasses own the
defaults (``ServoMap`` holds the servo endpoints) and every check of a
value, ``DeviceGeometry``'s derived quantities included; a message that
names a renamed field gets that field's JSON key appended, so a
ConfigError always names the keys to change.
"""

from __future__ import annotations

import json
import re
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .materials import Laminate, MaterialLayer, check_interval
from .mechanics import DeviceGeometry, ModeThresholds
from .servo import ServoMap

DEFAULT_CONFIG_RESOURCE = "default_device.json"
# fit's free parameters, the names ``solver.fit_bounds`` may hold: geometry
# fields adjustable by the fitter, plus a constant parasitic offset.
FIT_PARAM_NAMES = ("gap", "builtin_stress", "dielectric_thickness",
                   "dielectric_rel_permittivity", "parasitic_offset")


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


def _keys(cls, **json_keys) -> tuple:
    """``cls``'s key table under the module's rule: (field, JSON key,
    default, type) per field, ``json_keys`` mapping a field to its key."""
    return tuple((f.name, json_keys.get(f.name, f.name), f.default, f.type)
                 for f in fields(cls) if f.type in ("str", "float"))


_LAYER_KEYS = _keys(MaterialLayer, youngs_modulus="youngs_modulus_pa",
                    thickness="thickness_m")
_PROFILE_KEYS = _keys(DeviceGeometry, radius="radius_m", gap="gap_m",
                      builtin_stress="builtin_stress_pa",
                      dielectric_thickness="dielectric_thickness_m")
_THRESHOLD_KEYS = _keys(ModeThresholds)
_SERVO_KEYS = _keys(ServoMap, p_min="pressure_min_pa", p_max="pressure_max_pa",
                    angle_min="angle_min_deg", angle_max="angle_max_deg")


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


def _check_keys(doc: dict, known, where: str = "") -> None:
    """ConfigError naming the first key of ``doc`` neither in ``known`` nor
    a note (``comment``, ``description``): nothing would read it."""
    if unknown := [k for k in doc if k not in (*known, "comment", "description")]:
        raise ConfigError(f"{where}unknown key {unknown[0]!r}")


def _read(doc: dict, keys, also=()) -> dict:
    """Dataclass keyword arguments read from ``doc`` through a key table;
    KeyError for a missing required key, ConfigError for an unknown key,
    a float field's non-number or a str field's non-string."""
    _check_keys(doc, [key for _, key, *_ in keys] + list(also))
    kwargs = {}
    for name, key, default, kind in keys:
        value = doc[key] if default is MISSING else doc.get(key, default)
        if kind == "float" and not _is_number(value):
            raise ConfigError(f"{key} must be a number, got {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {value!r}")
        kwargs[name] = _float(value, key) if kind == "float" else value
    return kwargs


def _write(obj, keys) -> dict:
    """The JSON object of ``obj`` under a key table, in table order."""
    return {key: getattr(obj, name) for name, key, *_ in keys}


def geometry_doc(geom: DeviceGeometry) -> dict:
    """A profile's JSON object, as a sweep sidecar's ``geometry`` block writes it."""
    return {**_write(geom, _PROFILE_KEYS),
            "layers": [_write(l, _LAYER_KEYS) for l in geom.laminate.layers]}


def thresholds_doc(thresholds: ModeThresholds) -> dict:
    """The ``thresholds`` section's JSON object, as a sweep sidecar writes it."""
    return _write(thresholds, _THRESHOLD_KEYS)


def _hinted(exc: ValueError, keys) -> str:
    """The message of ``exc`` with the JSON key of each renamed field it
    names appended: ``p_min must be < p_max (p_min is pressure_min_pa,
    p_max is pressure_max_pa)``."""
    aliases = [f"{field} is {key}" for field, key, *_ in keys
               if field != key and re.search(rf"\b{field}\b", str(exc))]
    return f"{exc} ({', '.join(aliases)})" if aliases else str(exc)


def _parse(doc, where: str, cls, keys, hints=None, also=(), **extra):
    """The JSON object ``doc`` read into ``cls`` through a key table, with
    ``also`` the keys the caller reads and ``extra`` passed on as given.  A
    missing key without a default is a ConfigError naming ``where`` and the
    key; an unknown key or a value ``cls`` rejects, one naming ``where`` and
    the JSON key of each field it names, from ``hints`` or the key table."""
    _object(doc, where)
    try:
        return cls(**_read(doc, keys, also), **extra)
    except KeyError as exc:
        raise ConfigError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{where}: {_hinted(exc, hints or keys)}") from None


def _parse_geometry(doc, where: str) -> DeviceGeometry:
    """A profile, with its laminate built from its ``layers`` list: each
    layer is read under its index, and the stack has no keys of its own."""
    if "layers" not in _object(doc, where):
        raise ConfigError(f"{where}: missing field 'layers'")
    if not isinstance(doc["layers"], list):
        raise ConfigError(f"{where}: layers must be a list, got {doc['layers']!r}")
    laminate = _parse({}, where, Laminate, (), layers=[
        _parse(layer, f"{where}.layers[{i}]", MaterialLayer, _LAYER_KEYS)
        for i, layer in enumerate(doc["layers"])])
    return _parse(doc, where, DeviceGeometry, _PROFILE_KEYS,
                  _PROFILE_KEYS + _LAYER_KEYS, ("layers",), laminate=laminate)


def parse_config(doc: dict) -> DeviceConfig:
    if not isinstance(doc, dict) or not isinstance(doc.get("profiles"), dict):
        raise ConfigError("config must contain a 'profiles' object")
    _check_keys(doc, ("profiles", "thresholds", "servo", "solver"), "top level: ")
    profiles = {name: _parse_geometry(g, f"profiles.{name}")
                for name, g in doc["profiles"].items()}
    if "default" not in profiles:
        raise ConfigError("config must define a 'default' profile")
    thresholds = _parse(doc.get("thresholds", {}), "thresholds", ModeThresholds, _THRESHOLD_KEYS)
    servo = _parse(doc.get("servo", {}), "servo", ServoMap, _SERVO_KEYS)

    # A "grid_nodes" or "quadrature_rel_tol" key from older configs is
    # ignored: validate's ladder is a CLI constant and every capacitance
    # is a closed form.
    so = _object(doc.get("solver", {}), "solver")
    _check_keys(so, ("fit_bounds", "grid_nodes", "quadrature_rel_tol"), "solver: ")
    pairs = _object(so.get("fit_bounds", {}), "solver.fit_bounds")
    _check_keys(pairs, FIT_PARAM_NAMES, "solver.fit_bounds: ")
    bounds = {}
    for name, pair in ((k, v) for k, v in pairs.items() if k in FIT_PARAM_NAMES):
        where = f"solver.fit_bounds.{name}"
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(map(_is_number, pair))):
            raise ConfigError(f"{where} must be a [lo, hi] pair of numbers, got {pair!r}")
        lo, hi = (_float(v, where) for v in pair)
        try:
            check_interval(lo, hi, "lo", "hi")
        except ValueError as exc:
            raise ConfigError(f"{where} must be finite with lo < hi, got [{lo}, {hi}]: "
                              f"{exc}") from None
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
