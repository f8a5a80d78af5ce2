"""Deflection of the edge-clamped circular diaphragm under uniform pressure.

Closed-form center deflection under cubic stiffening, the geometric
contact model once the diaphragm touches the insulated bottom plate, and
classification into the four operating modes.  Center deflection,
contact radius and mode label are array-valued: a whole pressure sweep is
one numpy evaluation.

The model reads a geometry only through groups that ``DeviceGeometry``
computes once, as cached properties, and checks as it constructs: D,
c1 = 1 + sigma h R^2 / (16 D), c3 = K / h^2, the load term R^4 / (64 D),
C0 = eps0 pi R^2 / d_e with d_e = (gap - t1)/eps_r + t1/eps_t, and the
touched-disk prefactor eps0 eps_t pi R^2 / t1 (0 without a dielectric) must
each be finite and > 0.  So W0 is finite wherever P R^4 / (64 D) is, and
so is every factor of C.  After contact the annulus's atanh argument is
kappa = sqrt(g / (eps_r d_e)), the geometry's ``contact_argument``.
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


_LAYERS = "the layers' youngs_modulus, poisson_ratio and thickness"
# The checked groups, each with the fields it comes from.  (The travel
# needs no check: gap > dielectric_thickness >= 0, both finite.)
_MODEL_QUANTITIES = (
    ("flexural rigidity D", _LAYERS, "flexural_rigidity"),
    ("stress term c1 = 1 + sigma h R^2 / (16 D)", f"builtin_stress, radius and {_LAYERS}",
     "c1"),
    ("cubic term c3 = K / h^2", "the layers' thickness", "c3"),
    ("load term R^4 / (64 D)", f"radius and {_LAYERS}", "load_term"),
    ("rest capacitance C0", "radius, gap, dielectric_thickness, "
     "dielectric_rel_permittivity and medium_rel_permittivity", "base_capacitance"),
    ("touched-disk prefactor eps0 eps_t pi R^2 / t1",
     "radius, dielectric_thickness and dielectric_rel_permittivity", "disk_prefactor"),
)


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
        for name, source, attr in _MODEL_QUANTITIES:
            if attr == "disk_prefactor" and self.dielectric_thickness == 0.0:
                continue  # no dielectric, no touched disk: the prefactor is 0
            try:
                v = getattr(self, attr)
            except ArithmeticError:  # a float overflow or division by 0
                v = math.inf
            if not 0.0 < v < math.inf:  # false for NaN too
                raise ValueError(f"the {name} is {v}, not finite and > 0; "
                                 f"check {source}")

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

    @functools.cached_property
    def c1(self) -> float:
        return 1.0 + (self.builtin_stress * self.thickness * self.radius**2
                      / (16.0 * self.flexural_rigidity))

    @functools.cached_property
    def c3(self) -> float:
        return STIFFENING_COEFF / self.thickness**2

    @functools.cached_property
    def load_term(self) -> float:
        return self.radius**4 / (64.0 * self.flexural_rigidity)

    @functools.cached_property
    def electrical_gap(self) -> float:
        t1 = self.dielectric_thickness
        return ((self.gap - t1) / self.medium_rel_permittivity
                + t1 / self.dielectric_rel_permittivity)

    @functools.cached_property
    def base_capacitance(self) -> float:
        return EPSILON_0 * math.pi * self.radius**2 / self.electrical_gap

    @functools.cached_property
    def disk_prefactor(self) -> float:
        t1 = self.dielectric_thickness
        return (EPSILON_0 * self.dielectric_rel_permittivity * math.pi
                * self.radius**2 / t1) if t1 else 0.0

    @functools.cached_property
    def contact_argument(self) -> float:
        return math.sqrt(self.travel / (self.medium_rel_permittivity * self.electrical_gap))


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
        raise ValueError(f"pressure must be >= 0, got {float(p[p < 0.0][0])!r}")
    return p


def linear_center_deflection(geom: DeviceGeometry,
                             pressure: float | np.ndarray) -> float | np.ndarray:
    """Linear center deflection P R^4 / (64 D), the load term of the cubic;
    pressures taken and checked as ``large_deflection_center`` takes them,
    and a ValueError naming the first pressure whose load term overflows."""
    p = checked_pressures(pressure)
    with np.errstate(over="ignore"):
        q = p * geom.radius**4 / (64.0 * geom.flexural_rigidity)
    if not q.max(initial=0.0) < math.inf:
        top = float(np.ravel(p)[~(np.ravel(q) < math.inf)][0])
        raise ValueError(f"pressure {top!r} Pa is too large: its load term "
                         f"P R^4 / (64 D) is beyond float range")
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
    Where the asinh argument k overflows, asinh(k) = log 2k to double
    precision, so it is taken in logs there.  One Newton step then removes
    the few-ulp rounding of sinh/asinh, which capacitance near the gap
    amplifies by up to 1 / (1 - W0/d_e).
    Takes a scalar (returns a float) or an array of pressures (returns an
    array); raises ValueError for a negative or non-finite pressure, or
    one whose load term q overflows.
    """
    q = linear_center_deflection(geom, pressure)
    c1, c3 = geom.c1, geom.c3
    ratio = c1 / c3
    with np.errstate(over="ignore", divide="ignore"):  # k overflows; log(0) at q = 0
        k = 1.5 * (q / c3) / ratio * math.sqrt(3.0 / ratio)
        # log 2k = log q - log c3 + 1.5 log(3 / ratio)
        a = np.where(k < math.inf, np.arcsinh(k),
                     np.log(q) + (1.5 * (math.log(3.0) - math.log(ratio)) - math.log(c3)))
    w = 2.0 * math.sqrt(ratio / 3.0) * np.sinh(a / 3.0)
    w = w - ((c3 * w * w + c1) * w - q) / (3.0 * c3 * w * w + c1)
    return float(w) if w.ndim == 0 else w


def pressure_for_center_deflection(geom: DeviceGeometry, w0: float) -> float:
    """Exact inverse of the large-deflection relation: P such that W0(P) = w0;
    ValueError where that pressure is beyond float range."""
    if w0 < 0:
        raise ValueError("w0 must be >= 0")
    c1, c3 = geom.c1, geom.c3
    try:
        p = (c3 * w0**3 + c1 * w0) * 64.0 * geom.flexural_rigidity / geom.radius**4
    except OverflowError:
        p = math.inf
    if not p < math.inf:
        raise ValueError(f"the pressure for w0 = {w0!r} m is beyond float range")
    return p


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
