"""Capacitance of the sensor across all four operating modes.

One closed form covers every mode.  Before touch the clamped-plate
profile turns the deflected-gap integral into an atanh expression; after
touch the touched disk is a parallel plate through the dielectric and the
free annulus has the same atanh form with its argument scaled by the
contact edge (Ko & Wang, "Touch mode capacitive pressure sensors",
Sens. Actuators A 75, 1999).  The expression is array-valued, so a sweep,
a fit objective or a servo table is one numpy evaluation.  The tests
check both forms against adaptive quadrature of the integrals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import mechanics
from .mechanics import (DeviceGeometry, DeflectionState, ModeThresholds,
                        OperatingMode)

EPSILON_0 = 8.8541878128e-12  # F/m

# Export label of each operating mode, indexed by its OperatingMode value.
MODE_LABELS = tuple(m.name.lower() for m in OperatingMode)
_MODES = tuple(OperatingMode)


class TouchStateError(ValueError):
    """Raised when an operation is applied in the wrong contact regime."""


@dataclass(frozen=True)
class CapacitanceBreakdown:
    """Touch-mode capacitance split into touched disk and free annulus."""

    total: float
    touched_part: float
    untouched_part: float


@dataclass(frozen=True)
class CPPoint:
    pressure: float
    capacitance: float
    mode: OperatingMode


@dataclass(frozen=True)
class CPCurve:
    """Sampled capacitance-pressure characteristic with mode labels."""

    points: tuple[CPPoint, ...]
    geometry_id: str = ""

    def pressures(self) -> list[float]:
        return [p.pressure for p in self.points]

    def capacitances(self) -> list[float]:
        return [p.capacitance for p in self.points]

    def to_csv(self) -> str:
        """Header plus one ``pressure,capacitance,mode`` row per point.

        Floats are written by ``repr``, their shortest round-trip form.  No
        field can hold a comma, quote or newline, so nothing is quoted.
        """
        return "pressure_pa,capacitance_f,mode\n" + "".join([
            f"{p.pressure!r},{p.capacitance!r},{MODE_LABELS[p.mode]}\n"
            for p in self.points])

    def to_json(self, geom: DeviceGeometry | None = None,
                thresholds: ModeThresholds | None = None) -> str:
        """The curve as a JSON document indented by two spaces.

        ``json.dumps`` writes everything but the points, whose array is
        spliced in from a fixed per-point template: for a finite float
        ``repr`` is exactly what ``json`` writes.  Non-finite values are
        not valid JSON, and a sweep never produces them.
        """
        doc: dict = {
            "geometry_id": self.geometry_id,
            "points": [],
        }
        if geom is not None:
            doc["geometry"] = {
                "radius_m": geom.radius,
                "gap_m": geom.gap,
                "builtin_stress_pa": geom.builtin_stress,
                "dielectric_thickness_m": geom.dielectric_thickness,
                "dielectric_rel_permittivity": geom.dielectric_rel_permittivity,
                "medium_rel_permittivity": geom.medium_rel_permittivity,
                "layers": [
                    {"name": l.name, "youngs_modulus_pa": l.youngs_modulus,
                     "poisson_ratio": l.poisson_ratio, "thickness_m": l.thickness}
                    for l in geom.laminate.layers
                ],
            }
        if thresholds is not None:
            doc["thresholds"] = {
                "transition_fraction": thresholds.transition_fraction,
                "touch_onset_fraction": thresholds.touch_onset_fraction,
                "saturation_fraction": thresholds.saturation_fraction,
            }
        text = json.dumps(doc, indent=2) + "\n"
        if not self.points:
            return text
        points = ",\n".join([
            f'    {{\n      "pressure_pa": {p.pressure!r},\n'
            f'      "capacitance_f": {p.capacitance!r},\n'
            f'      "mode": "{MODE_LABELS[p.mode]}"\n    }}'
            for p in self.points])
        # Only the geometry_id string comes before the key, and a JSON
        # string holds no raw newline, so the first match is the key.
        return text.replace('\n  "points": []', f'\n  "points": [\n{points}\n  ]', 1)


def electrical_gap(geom: DeviceGeometry) -> float:
    """Series-stack electrical separation at rest.

    Air path of (gap - t1) at eps_r plus dielectric path of t1 at eps_t1:
    d_e = (gap - t1)/eps_r + t1/eps_t1.  Equals the bare gap when t1 = 0
    and eps_r = 1.
    """
    t1 = geom.dielectric_thickness
    return ((geom.gap - t1) / geom.medium_rel_permittivity
            + t1 / geom.dielectric_rel_permittivity)


def base_capacitance(geom: DeviceGeometry) -> float:
    """Rest capacitance eps_0 * pi R^2 / d_e of the undeflected sensor."""
    return EPSILON_0 * math.pi * geom.radius**2 / electrical_gap(geom)


_AT_GAP = "center deflection reaches the electrical gap"
_NO_DIELECTRIC = ("touched regime with zero dielectric thickness: "
                  "capacitance diverges; configure dielectric_thickness > 0")


def _parts(geom: DeviceGeometry, w0, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Touched-disk and free-annulus capacitance: the one closed form.

    For unconstrained center deflections W0 and contact edges
    u = 1 - (a/R)^2 (1 before contact), with x = sqrt(W0 / (eps_r d_e)):

        C = pi eps0 R^2 [eps_t1 (1 - u) / t1 + atanh(u x) / (x d_e)]

    and the annulus term's x -> 0 limit u/d_e on a flat diaphragm.  With
    u = 1 the annulus term is the clamped-plate profile W0 (1 - (r/R)^2)^2
    integrated over the whole disk.  After contact the free annulus
    W = g ((1 - (r/R)^2) / u)^2 gives the same integral with curvature
    g / (eps_r u^2) = W0 / eps_r, its argument scaled by u.

    Returns (disk, annulus, outside).  ``outside`` marks points where the
    expression diverges (W0 at the electrical gap, or contact without a
    dielectric); their disk and annulus values are meaningless.
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
    with np.errstate(divide="ignore", invalid="ignore"):
        shape = np.where(x > 0.0, np.arctanh(u * x) / x, u)
    return disk, base_capacitance(geom) * shape, outside


def _evaluate(geom: DeviceGeometry, pressures):
    """Unconstrained W0, contact edge u, touched-disk and annulus capacitance
    at each pressure, and the index of the first pressure outside the
    model's domain (None when every point is inside).

    Raises ValueError for a negative or non-finite pressure.
    """
    w0 = mechanics.large_deflection_center(geom, pressures)
    u = mechanics.contact_edge_u(geom, w0)
    disk, annulus, outside = _parts(geom, w0, u)
    bad = int(np.argmax(outside)) if np.any(outside) else None
    return w0, u, disk, annulus, bad


def _domain_error(geom: DeviceGeometry, u, index: int) -> ValueError:
    """The error of point ``index``, which lies outside the model's domain."""
    if np.ravel(u)[index] < 1.0 and geom.dielectric_thickness == 0.0:
        return ValueError(_NO_DIELECTRIC)
    return TouchStateError(_AT_GAP)


def _at(geom: DeviceGeometry, pressure: float) -> tuple[float, float, float]:
    """(u, disk, annulus) at one pressure, raising that point's own error."""
    _, u, disk, annulus, bad = _evaluate(geom, pressure)
    if bad is not None:
        raise _domain_error(geom, u, bad)
    return float(u), float(disk), float(annulus)


def _evaluate_all(geom: DeviceGeometry, pressures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W0, C) at each pressure; SweepPointError for the first point outside the domain."""
    w0, u, disk, annulus, bad = _evaluate(geom, pressures)
    if bad is not None:
        raise SweepPointError(bad, float(np.ravel(pressures)[bad]),
                              _domain_error(geom, u, bad))
    return w0, disk + annulus


def normal_mode_capacitance(geom: DeviceGeometry, state: DeflectionState) -> float:
    """Closed-form pre-touch capacitance.

    Substituting W(r) = W0 (1 - (r/R)^2)^2 into the deflected-gap integral
    gives C = pi eps0 R^2 atanh(sqrt(wt/d_e)) / sqrt(wt d_e) with
    wt = W0/eps_r.  Limits to the base capacitance as W0 -> 0.
    """
    if state.touched:
        raise TouchStateError("normal-mode capacitance requires an untouched state")
    return _normal_mode_closed_form(geom, state.center_deflection)


def _normal_mode_closed_form(geom: DeviceGeometry, w0: float) -> float:
    if w0 / geom.medium_rel_permittivity >= electrical_gap(geom):
        raise TouchStateError(_AT_GAP)
    if w0 < 0:
        raise ValueError("center deflection must be >= 0")
    _, annulus, _ = _parts(geom, w0, 1.0)
    return float(annulus)


def touch_mode_capacitance(geom: DeviceGeometry, pressure: float) -> CapacitanceBreakdown:
    """Touch-mode capacitance split into touched disk and free annulus.

    The touched disk is a parallel plate through the dielectric; the
    annulus is the closed form of the post-touch profile's integral.
    """
    u, disk, annulus = _at(geom, pressure)
    if u >= 1.0:
        raise TouchStateError("touch-mode capacitance requires a touched state")
    return CapacitanceBreakdown(total=disk + annulus, touched_part=disk,
                                untouched_part=annulus)


def capacitance_at(geom: DeviceGeometry, pressure: float) -> float:
    """Capacitance at one pressure, in any mode."""
    _, disk, annulus = _at(geom, pressure)
    return disk + annulus


def capacitances(geom: DeviceGeometry, pressures) -> np.ndarray:
    """Capacitance at each pressure, in one array evaluation.

    Raises ValueError for a negative or non-finite pressure and
    SweepPointError for the first pressure outside the model's domain.
    """
    return _evaluate_all(geom, pressures)[1]


class SweepPointError(RuntimeError):
    """Sweep failure annotated with the offending point index."""

    def __init__(self, index: int, pressure: float, cause: Exception) -> None:
        super().__init__(f"point {index} (P = {pressure} Pa): {cause}")
        self.index = index
        self.pressure = pressure
        self.cause = cause


def sweep_cp_curve(geom: DeviceGeometry, pressures: list[float],
                   thresholds: ModeThresholds = ModeThresholds(),
                   geometry_id: str = "") -> CPCurve:
    """Capacitance-pressure curve with per-point mode labels.

    Capacitance and modes come from one array evaluation of the same W0.
    Raises ValueError for non-finite, negative or non-increasing
    pressures and SweepPointError for the first point outside the
    model's domain.
    """
    p = mechanics.checked_pressures(pressures)
    if np.any(np.diff(p) <= 0):
        raise ValueError("pressures must be strictly increasing")
    w0, c = _evaluate_all(geom, p)
    points = tuple(
        CPPoint(pressure=pi, capacitance=ci, mode=_MODES[m])
        for pi, ci, m in zip(p.tolist(), c.tolist(),
                             mechanics.mode_labels(geom, w0, thresholds).tolist()))
    return CPCurve(points=points, geometry_id=geometry_id)
