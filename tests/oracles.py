"""Adaptive-quadrature oracles for the closed-form capacitance.

Each oracle integrates 2 pi eps0 r dr / gap(r) over the deflected
profile with ``scipy.integrate.quad``, independently of the atanh closed
form in ``touchcap.capacitance``.  scipy is a test-only dependency, so
these live with the tests.
"""

from __future__ import annotations

import math

from scipy import integrate

from touchcap import capacitance as cap, mechanics
from touchcap.mechanics import DeviceGeometry

# The integrand steepens sharply as W0 approaches the electrical gap.
QUAD_REL_TOL = 1e-10


def _gap_density(geom: DeviceGeometry, deflection: float) -> float:
    """Local electrical separation under a diaphragm deflected by ``deflection``."""
    air = geom.travel - deflection
    return (air / geom.medium_rel_permittivity
            + geom.dielectric_thickness / geom.dielectric_rel_permittivity)


def _quadrature(geom: DeviceGeometry, profile, r_min: float) -> float:
    """Adaptive quadrature of 2 pi eps0 r dr / gap(r) over r_min <= r <= R."""

    def integrand(r: float) -> float:
        return 2.0 * math.pi * cap.EPSILON_0 * r / _gap_density(geom, profile(r))

    value, _ = integrate.quad(integrand, r_min, geom.radius, epsrel=QUAD_REL_TOL,
                              epsabs=0.0, limit=200)
    return value


def normal_mode_capacitance_quadrature(geom: DeviceGeometry, w0: float) -> float:
    """Adaptive quadrature of the pre-touch capacitance integral."""
    if w0 / geom.medium_rel_permittivity >= cap.electrical_gap(geom):
        raise cap.TouchStateError("center deflection reaches the electrical gap")
    return _quadrature(geom, lambda r: w0 * (1.0 - (r / geom.radius) ** 2) ** 2, 0.0)


def touch_mode_capacitance_quadrature(geom: DeviceGeometry,
                                      pressure: float) -> cap.CapacitanceBreakdown:
    """The touch-mode annulus integrated by adaptive quadrature in r."""
    a = mechanics.contact_radius(geom, pressure)
    if a <= 0.0:
        raise cap.TouchStateError("touch-mode capacitance requires a touched state")
    if geom.dielectric_thickness == 0.0:
        raise ValueError("touched regime with zero dielectric thickness")
    touched = (cap.EPSILON_0 * geom.dielectric_rel_permittivity * math.pi * a**2
               / geom.dielectric_thickness)
    annulus = _quadrature(geom, lambda r: cap.post_touch_profile(geom, a, r), a)
    return cap.CapacitanceBreakdown(total=touched + annulus, touched_part=touched,
                                    untouched_part=annulus)
