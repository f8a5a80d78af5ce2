"""Capacitance of the sensor across all four operating modes.

One closed form covers every mode.  Before touch the clamped-plate
profile turns the deflected-gap integral into an atanh expression; after
touch the touched disk is a parallel plate through the dielectric and the
free annulus has the same atanh form with its argument scaled by the
contact edge (Ko & Wang, "Touch mode capacitive pressure sensors",
Sens. Actuators A 75, 1999).  The expression is array-valued, so a sweep,
a fit objective or a servo table is one numpy evaluation.  The tests
check both forms against adaptive quadrature of the integrals.

A sweep's ``CPCurve`` is stored by column: the pressure, capacitance and
mode-code arrays of that one evaluation, which ``to_csv`` and
``to_json`` format without building a per-point object.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import mechanics
from .config import geometry_doc, thresholds_doc
from .mechanics import (EPSILON_0, DeviceGeometry, DeflectionState,
                        ModeThresholds, OperatingMode, base_capacitance,
                        electrical_gap)

# Export label of each operating mode, indexed by its OperatingMode value.
MODE_LABELS = tuple(m.name.lower() for m in OperatingMode)
_MODES = tuple(OperatingMode)


class TouchStateError(ValueError):
    """Raised when an operation is applied in the wrong contact regime."""


class SweepPointError(ValueError):
    """The first point of an array evaluation outside the model's domain.

    ``cause`` is that point's own error, the one the scalar entry points
    raise at ``pressure``.
    """

    def __init__(self, index: int, pressure: float, cause: Exception) -> None:
        super().__init__(f"point {index} (P = {pressure} Pa): {cause}")
        self.index = index
        self.pressure = pressure
        self.cause = cause


@dataclass(frozen=True)
class CapacitanceBreakdown:
    """Touch-mode capacitance split into touched disk and free annulus."""

    total: float
    touched_part: float
    untouched_part: float


class CPPoint(NamedTuple):
    """One sample of a C-P curve: pressure (Pa), capacitance (F) and mode."""

    pressure: float
    capacitance: float
    mode: OperatingMode


@dataclass(frozen=True)
class CPCurve:
    """Sampled capacitance-pressure characteristic, stored by column.

    ``pressure`` (Pa), ``capacitance`` (F) and ``mode`` (``OperatingMode``
    codes) hold one entry per point, in sweep order.  ``points`` is the
    same curve as ``CPPoint`` tuples, built on each access.
    """

    pressure: tuple[float, ...]
    capacitance: tuple[float, ...]
    mode: tuple[int, ...]
    geometry_id: str = ""

    def __post_init__(self) -> None:
        if not len(self.pressure) == len(self.capacitance) == len(self.mode):
            raise ValueError(
                f"column lengths differ: {len(self.pressure)} pressures, "
                f"{len(self.capacitance)} capacitances, {len(self.mode)} modes")

    @property
    def points(self) -> tuple[CPPoint, ...]:
        return tuple(map(CPPoint, self.pressure, self.capacitance,
                         map(_MODES.__getitem__, self.mode)))

    def pressures(self) -> list[float]:
        return list(self.pressure)

    def capacitances(self) -> list[float]:
        return list(self.capacitance)

    @cached_property
    def _text(self) -> tuple[list[str], list[str], list[str]]:
        """Pressure, capacitance and mode columns as export text.

        Floats are written by ``repr``, their shortest round-trip form,
        which is also exactly what ``json`` writes for a finite float.
        Both exports join these strings, so each float is formatted once
        per curve.
        """
        return (list(map(repr, self.pressure)), list(map(repr, self.capacitance)),
                list(map(MODE_LABELS.__getitem__, self.mode)))

    def to_csv(self) -> str:
        """Header plus one ``pressure,capacitance,mode`` row per point.

        The row text is formatted once per curve and shared with
        ``to_json``.  No field can hold a comma, quote or newline, so
        nothing is quoted.
        """
        return "pressure_pa,capacitance_f,mode\n" + "".join([
            f"{p},{c},{m}\n" for p, c, m in zip(*self._text)])

    def to_json(self, geom: DeviceGeometry, thresholds: ModeThresholds) -> str:
        """The curve as a JSON document indented by two spaces.

        The text around the points' items comes from ``_json_frame``,
        built once per geometry id, geometry and thresholds; the items
        come from a fixed per-point template filled with the text
        ``to_csv`` also uses, formatted once per curve.  Non-finite
        values are not valid JSON, and a sweep never produces them.
        """
        head, tail = _json_frame(self.geometry_id, geom, thresholds,
                                 id(geom), id(thresholds))
        if not self.pressure:
            return head + tail
        points = ",\n".join([
            f'    {{\n      "pressure_pa": {p},\n      "capacitance_f": {c},\n'
            f'      "mode": "{m}"\n    }}'
            for p, c, m in zip(*self._text)])
        return f"{head}\n{points}\n  {tail}"


@lru_cache(maxsize=32)
def _json_frame(geometry_id: str, geom: DeviceGeometry,
                thresholds: ModeThresholds, *_ids: int) -> tuple[str, str]:
    """A sweep document's text before and after the items of its points array.

    ``json.dumps(indent=2)`` of the document with an empty points array,
    cut inside that array's brackets: the head is the text of its first
    two keys up to the ``[``.  The ``geometry`` and ``thresholds`` blocks
    are written by ``config``, as a profile and a ``thresholds`` section
    that load back through ``config.parse_config``.

    Equal geometries can print differently (0 and 0.0, -0.0 and 0.0), so
    callers add the objects' ids to the cache key: a hit is then the same
    objects, which the cache keeps alive, so their ids are not reused.
    """
    doc: dict = {"geometry_id": geometry_id, "points": []}
    head = json.dumps(doc, indent=2)[:-len("]\n}")]
    doc["geometry"] = geometry_doc(geom)
    doc["thresholds"] = thresholds_doc(thresholds)
    return head, json.dumps(doc, indent=2)[len(head):] + "\n"


_AT_GAP = "center deflection reaches the electrical gap"
_NO_DIELECTRIC = ("touched regime with zero dielectric thickness: "
                  "capacitance diverges; configure dielectric_thickness > 0")


def _evaluate(geom: DeviceGeometry, w0, u, pressures=None) -> tuple[np.ndarray, np.ndarray]:
    """Touched-disk and free-annulus capacitance: the one closed form.

    For unconstrained center deflections W0 and contact edges
    u = 1 - (a/R)^2 (1 before contact), with x = sqrt(W0 / (eps_r d_e)):

        C = pi eps0 R^2 [eps_t1 (1 - u) / t1 + atanh(u x) / (x d_e)]

    and the annulus term's x -> 0 limit u/d_e on a flat diaphragm.  With
    u = 1 the annulus term is the clamped-plate profile W0 (1 - (r/R)^2)^2
    integrated over the whole disk.  After contact the free annulus
    W = g ((1 - (r/R)^2) / u)^2 gives the same integral with curvature
    g / (eps_r u^2) = W0 / eps_r, its argument scaled by u.

    The expression diverges where u x >= 1 (W0 at the electrical gap) and
    on contact without a dielectric.  The first such point raises its
    cause, TouchStateError or ValueError respectively; given the
    ``pressures`` of an array call, a SweepPointError naming the point
    wraps that cause.
    """
    t1 = geom.dielectric_thickness
    d_e = electrical_gap(geom)
    x = np.sqrt(w0 / (geom.medium_rel_permittivity * d_e))
    outside = u * x >= 1.0
    if t1 == 0.0:
        outside = outside | (u < 1.0)
        disk = np.zeros_like(x)
    else:
        disk = (EPSILON_0 * geom.dielectric_rel_permittivity * math.pi
                * geom.radius**2 / t1) * (1.0 - u)
    if np.any(outside):
        i = int(np.argmax(outside))
        cause = (ValueError(_NO_DIELECTRIC) if t1 == 0.0 and np.ravel(u)[i] < 1.0
                 else TouchStateError(_AT_GAP))
        if pressures is None:
            raise cause
        raise SweepPointError(i, float(np.ravel(pressures)[i]), cause)
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = np.where(x > 0.0, np.arctanh(u * x) / x, u)
    return disk, base_capacitance(geom) * shape


def normal_mode_capacitance(geom: DeviceGeometry, state: DeflectionState) -> float:
    """Closed-form pre-touch capacitance.

    Substituting W(r) = W0 (1 - (r/R)^2)^2 into the deflected-gap integral
    gives C = pi eps0 R^2 atanh(sqrt(wt/d_e)) / sqrt(wt d_e) with
    wt = W0/eps_r.  Limits to the base capacitance as W0 -> 0.
    """
    if state.touched:
        raise TouchStateError("normal-mode capacitance requires an untouched state")
    return float(_evaluate(geom, state.center_deflection, 1.0)[1])


def touch_mode_capacitance(geom: DeviceGeometry, pressure: float) -> CapacitanceBreakdown:
    """Touch-mode capacitance split into touched disk and free annulus.

    The touched disk is a parallel plate through the dielectric; the
    annulus is the closed form of the post-touch profile's integral.
    """
    w0 = mechanics.large_deflection_center(geom, pressure)
    u = mechanics.contact_edge_u(geom, w0)
    disk, annulus = map(float, _evaluate(geom, w0, u))
    if u >= 1.0:
        raise TouchStateError("touch-mode capacitance requires a touched state")
    return CapacitanceBreakdown(total=disk + annulus, touched_part=disk,
                                untouched_part=annulus)


def capacitance_at(geom: DeviceGeometry, pressure: float) -> float:
    """Capacitance at one pressure, in any mode."""
    w0 = mechanics.large_deflection_center(geom, pressure)
    disk, annulus = _evaluate(geom, w0, mechanics.contact_edge_u(geom, w0))
    return float(disk + annulus)


def capacitances(geom: DeviceGeometry, pressures) -> np.ndarray:
    """Capacitance at each pressure, in one array evaluation.

    Raises ValueError for a negative or non-finite pressure and
    SweepPointError for the first pressure outside the model's domain.
    """
    w0 = mechanics.large_deflection_center(geom, pressures)
    disk, annulus = _evaluate(geom, w0, mechanics.contact_edge_u(geom, w0), pressures)
    return disk + annulus


def sweep_cp_curve(geom: DeviceGeometry, pressures: list[float],
                   thresholds: ModeThresholds, geometry_id: str = "") -> CPCurve:
    """Capacitance-pressure curve with per-point mode labels.

    Capacitance and modes come from one array evaluation of W0 and u.
    Raises ValueError for non-finite, negative or non-increasing
    pressures and SweepPointError for the first point outside the
    model's domain.
    """
    p = mechanics.checked_pressures(pressures)
    if np.any(np.diff(p) <= 0):
        raise ValueError("pressures must be strictly increasing")
    w0 = mechanics.large_deflection_center(geom, p)
    u = mechanics.contact_edge_u(geom, w0)
    disk, annulus = _evaluate(geom, w0, u, p)
    modes = mechanics.mode_labels(geom, w0, u, thresholds)
    return CPCurve(pressure=tuple(p.tolist()),
                   capacitance=tuple((disk + annulus).tolist()),
                   mode=tuple(modes.tolist()), geometry_id=geometry_id)
