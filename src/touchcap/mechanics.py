"""Deflection of the edge-clamped circular diaphragm under uniform pressure.

Closed-form center deflection under cubic stiffening, the geometric
contact model once the diaphragm touches the insulated bottom plate,
classification into the four operating modes, and the electrical gap and
rest capacitance of the undeflected stack.  Center deflection,
contact radius and mode label are array-valued: a whole pressure sweep is
one numpy evaluation.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .materials import Laminate, check_finite, flexural_rigidity

EPSILON_0 = 8.8541878128e-12  # F/m

# Coefficient of the cubic stiffening term in the large-deflection relation
# W0 * (1 + K*(W0/h)^2 + sigma*h*R^2/(16 D)) = P R^4 / (64 D).
STIFFENING_COEFF = 0.488


class OperatingMode(enum.IntEnum):
    """Operating regimes, ordered by increasing pressure."""

    NORMAL = 0
    TRANSITION = 1
    TOUCH = 2
    SATURATION = 3


@dataclass(frozen=True)
class DeviceGeometry:
    """Geometry and electrostatic stack of one circular sensor element."""

    radius: float  # m
    laminate: Laminate
    gap: float  # m, electrode separation at rest
    builtin_stress: float = 0.0  # Pa, tensile
    dielectric_thickness: float = 0.0  # m, insulator on the bottom electrode
    dielectric_rel_permittivity: float = 1.0
    medium_rel_permittivity: float = 1.0

    def __post_init__(self) -> None:
        check_finite(self, ("radius", "gap", "builtin_stress", "dielectric_thickness",
                            "dielectric_rel_permittivity", "medium_rel_permittivity"))
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.gap <= 0:
            raise ValueError("gap must be > 0")
        if self.dielectric_thickness < 0:
            raise ValueError("dielectric_thickness must be >= 0")
        if self.builtin_stress < 0:
            raise ValueError("builtin_stress must be >= 0 (tensile only)")
        if self.gap <= self.dielectric_thickness:
            raise ValueError("gap must exceed dielectric_thickness")
        if self.dielectric_rel_permittivity <= 0 or self.medium_rel_permittivity <= 0:
            raise ValueError("relative permittivities must be > 0")

    @property
    def thickness(self) -> float:
        """Total diaphragm thickness h."""
        return self.laminate.total_thickness

    @property
    def travel(self) -> float:
        """Effective travel: gap minus dielectric thickness."""
        return self.gap - self.dielectric_thickness

    @functools.cached_property
    def flexural_rigidity(self) -> float:
        return flexural_rigidity(self.laminate)


@dataclass(frozen=True)
class ModeThresholds:
    """Configuration thresholds separating the four operating modes.

    transition_fraction: W0/travel above which normal mode ends.
    touch_onset_fraction / saturation_fraction: contact radius fractions
    a/R bounding the touch regime.

    No fraction is generic, so none has a default.  The bundled config
    calibrates all three to the paper's 8/10/40 kPa boundaries on its
    default profile: transition_fraction = W0(8 kPa)/travel,
    touch_onset_fraction = a(10 kPa)/R and saturation_fraction =
    a(40 kPa)/R, each rounded down.
    """

    transition_fraction: float
    touch_onset_fraction: float
    saturation_fraction: float

    def __post_init__(self) -> None:
        check_finite(self, ("transition_fraction", "touch_onset_fraction",
                            "saturation_fraction"))
        if not 0.0 < self.transition_fraction < 1.0:
            raise ValueError("transition_fraction must be in (0, 1)")
        if not 0.0 < self.touch_onset_fraction < self.saturation_fraction < 1.0:
            raise ValueError("need 0 < touch_onset_fraction < saturation_fraction < 1")


@dataclass(frozen=True)
class DeflectionState:
    """Solved state at one pressure.

    center_deflection is capped at the effective travel once touching;
    the unconstrained value lives on through contact_radius.
    """

    pressure: float
    center_deflection: float
    contact_radius: float = 0.0

    def __post_init__(self) -> None:
        if self.center_deflection < 0:
            raise ValueError("center_deflection must be >= 0")
        if self.contact_radius < 0:
            raise ValueError("contact_radius must be >= 0")

    @property
    def touched(self) -> bool:
        return self.contact_radius > 0.0


def checked_pressures(pressure: float | np.ndarray) -> np.ndarray:
    """Pressures as a float array; ValueError naming a non-finite or negative one."""
    p = np.asarray(pressure, dtype=float)
    if not np.all((p >= 0.0) & (p < math.inf)):  # false for NaN too
        finite = np.isfinite(p)
        if not finite.all():
            raise ValueError(f"pressure must be finite, got {float(p[~finite][0])}")
        raise ValueError("pressure must be >= 0")
    return p


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


def cubic_coefficients(geom: DeviceGeometry) -> tuple[float, float]:
    """(c1, c3) of c3 W0^3 + c1 W0 = q: c1 = 1 + sigma h R^2 / (16 D), the
    built-in stress stiffening, and c3 = K / h^2, the cubic stiffening."""
    return (1.0 + (geom.builtin_stress * geom.thickness * geom.radius**2
                   / (16.0 * geom.flexural_rigidity)),
            STIFFENING_COEFF / geom.thickness**2)


def linear_center_deflection(geom: DeviceGeometry,
                             pressure: float | np.ndarray) -> float | np.ndarray:
    """Linear center deflection P R^4 / (64 D), the load term of the cubic;
    pressures taken and checked as ``large_deflection_center`` takes them."""
    q = checked_pressures(pressure) * geom.radius**4 / (64.0 * geom.flexural_rigidity)
    return float(q) if q.ndim == 0 else q


def large_deflection_center(geom: DeviceGeometry,
                            pressure: float | np.ndarray) -> float | np.ndarray:
    """Center deflection from the cubic large-deflection relation.

    W0 (1 + K (W0/h)^2 + s) = P R^4 / (64 D) with K = 0.488 and s the
    built-in stress term is c3 W0^3 + c1 W0 = q with c1 = 1 + s > 0 and
    c3 = K/h^2, which has exactly one real root.  With p = c1/c3 and
    s' = q/c3 the hyperbolic Cardano form

        W0 = 2 sqrt(p/3) sinh(asinh((3 s' / 2p) sqrt(3/p)) / 3)

    gives it without iteration and without cancellation at small loads.
    One Newton step then removes the few-ulp rounding of sinh/asinh, which
    capacitance near the gap amplifies by up to 1 / (1 - W0/d_e).
    Takes a scalar (returns a float) or an array of pressures (returns an
    array); raises ValueError for a negative or non-finite pressure.
    """
    q = linear_center_deflection(geom, pressure)
    c1, c3 = cubic_coefficients(geom)
    ratio = c1 / c3
    w = 2.0 * math.sqrt(ratio / 3.0) * np.sinh(
        np.arcsinh(1.5 * (q / c3) / ratio * math.sqrt(3.0 / ratio)) / 3.0)
    w = w - ((c3 * w * w + c1) * w - q) / (3.0 * c3 * w * w + c1)
    return float(w) if w.ndim == 0 else w


def pressure_for_center_deflection(geom: DeviceGeometry, w0: float) -> float:
    """Exact inverse of the large-deflection relation: P such that W0(P) = w0."""
    if w0 < 0:
        raise ValueError("w0 must be >= 0")
    c1, c3 = cubic_coefficients(geom)
    return (c3 * w0**3 + c1 * w0) * 64.0 * geom.flexural_rigidity / geom.radius**4


def touch_onset_pressure(geom: DeviceGeometry) -> float:
    """Pressure at which the unconstrained center deflection equals the travel."""
    return pressure_for_center_deflection(geom, geom.travel)


def contact_edge_u(geom: DeviceGeometry,
                   w0: float | np.ndarray) -> float | np.ndarray:
    """u_a = 1 - (a/R)^2 = sqrt(g / max(W0, g)) for unconstrained deflections W0.

    The unconstrained profile W0 (1 - (r/R)^2)^2 meets the travel g where
    (1 - (r/R)^2)^2 = g/W0; u_a is 1 (no contact) while W0 <= g.
    """
    g = geom.travel
    return np.sqrt(g / np.maximum(w0, g))


def contact_radius(geom: DeviceGeometry,
                   pressure: float | np.ndarray) -> float | np.ndarray:
    """Radius of the touched disk under the geometric contact model.

    The unconstrained profile W0 (1 - (r/R)^2)^2 intersects the travel g
    at a = R sqrt(1 - sqrt(g / W0)); zero while W0 <= g.  Continuous at
    onset and strictly increasing with pressure once positive.
    """
    w0 = large_deflection_center(geom, pressure)
    a = geom.radius * np.sqrt(1.0 - contact_edge_u(geom, w0))
    return float(a) if np.ndim(a) == 0 else a


def solve_state(geom: DeviceGeometry, pressure: float) -> DeflectionState:
    """Deflection state at one pressure; W0 capped at the travel when touching."""
    w0 = large_deflection_center(geom, pressure)
    return DeflectionState(pressure, min(w0, geom.travel), contact_radius(geom, pressure))


def mode_labels(geom: DeviceGeometry, w0: np.ndarray, u: np.ndarray,
                thresholds: ModeThresholds) -> np.ndarray:
    """Operating-mode codes of unconstrained deflections W0 and contact edges u.

    The one statement of the mode rule: normal while W0 is below
    transition_fraction * g, then transition, touch and saturation by the
    contact-radius fraction a/R = sqrt(1 - u), u from ``contact_edge_u``.
    """
    a_frac = np.sqrt(1.0 - u)
    return np.where(
        w0 < thresholds.transition_fraction * geom.travel, OperatingMode.NORMAL,
        np.where(a_frac < thresholds.touch_onset_fraction, OperatingMode.TRANSITION,
                 np.where(a_frac < thresholds.saturation_fraction,
                          OperatingMode.TOUCH, OperatingMode.SATURATION)))


def classify_mode(geom: DeviceGeometry, pressure: float,
                  thresholds: ModeThresholds) -> OperatingMode:
    """Operating mode at one pressure under the given thresholds."""
    w0 = large_deflection_center(geom, pressure)
    return OperatingMode(int(mode_labels(geom, w0, contact_edge_u(geom, w0),
                                         thresholds)))
