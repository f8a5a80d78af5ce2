"""Independent oracles for the closed-form model and the C-P exports.

The linear small-deflection center deflection and the clamped-plate
profile check the large-deflection root and the shape the capacitance
closed form integrates.  The exact center deflection of a tensioned
clamped plate checks the model's built-in stress term.  The quadrature oracles integrate 2 pi eps0 r dr / gap(r) over the
deflected profile with ``scipy.integrate.quad``, independently of the
atanh closed form in ``touchcap.capacitance``.  scipy is a test-only
dependency, so these live with the tests.  The export oracles write a
``CPCurve`` through ``csv.writer`` and ``json.dumps``, the encoders that
the template-based ``to_csv`` and ``to_json`` must match byte for byte.
The exhaustive knot search scores every first knot of a segmentation, the
search whose knots the bound-pruned ``calibration._best_knots`` must
reproduce.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import integrate, special

from touchcap import calibration as cal, capacitance as cap, mechanics
from touchcap.mechanics import DeflectionState, DeviceGeometry, ModeThresholds

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


def small_deflection_center(geom: DeviceGeometry, pressure: float) -> float:
    """Linear center deflection with built-in stress stiffening.

    W0 = (P R^4 / 64 D) / (1 + sigma h R^2 / 16 D), the large-deflection
    relation without its cubic term.
    """
    if pressure < 0:
        raise ValueError("pressure must be >= 0")
    load = pressure * geom.radius**4 / (64.0 * geom.flexural_rigidity)
    stress = (geom.builtin_stress * geom.thickness * geom.radius**2
              / (16.0 * geom.flexural_rigidity))
    return load / (1.0 + stress)


def tensioned_plate_center(geom: DeviceGeometry, pressure: float) -> float:
    """Exact linear center deflection of the clamped plate under built-in
    tension N = sigma h, the solution of D lap^2 w - N lap w = P:

        w(0) = (P / 2N) [R^2/2 - R (I0(kR) - 1) / (k I1(kR))],  k^2 = N / D.

    It tends to P R^4 / (64 D) (1 - 5 (kR)^2 / 72) as kR -> 0 and to
    P R^2 / (4N) (1 - 2 / kR) as kR -> oo.  The exponentially scaled
    Bessel functions keep it finite at kR = 87.8 (the default profile).
    As kR -> 0 the bracket cancels: it keeps about 8 digits at kR = 0.03.
    """
    tension = geom.builtin_stress * geom.thickness
    k = math.sqrt(tension / geom.flexural_rigidity)
    x = k * geom.radius
    ratio = (special.i0e(x) - math.exp(-x)) / special.i1e(x)  # (I0 - 1) / I1
    return pressure / (2.0 * tension) * (geom.radius**2 / 2.0 - geom.radius * ratio / k)


def deflection_profile(state: DeflectionState, geom: DeviceGeometry, r: float) -> float:
    """Clamped-plate deflection W(r) = W0 (1 - (r/R)^2)^2, pre-touch only."""
    if state.touched:
        raise ValueError("profile undefined for touched states")
    if not 0.0 <= r <= geom.radius:
        raise ValueError("r must be in [0, R]")
    rho2 = (r / geom.radius) ** 2
    return state.center_deflection * (1.0 - rho2) ** 2


def post_touch_profile(geom: DeviceGeometry, a: float, r: float) -> float:
    """Deflection in the free annulus once touching.

    The clamped-edge profile shape rescaled to meet the plate at (a, g):
    W(r) = g [(1 - (r/R)^2) / (1 - (a/R)^2)]^2, valid for a <= r <= R.
    Continuous with the pre-touch profile at onset (a -> 0).
    """
    rho2 = (r / geom.radius) ** 2
    alpha2 = (a / geom.radius) ** 2
    return geom.travel * ((1.0 - rho2) / (1.0 - alpha2)) ** 2


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
    annulus = _quadrature(geom, lambda r: post_touch_profile(geom, a, r), a)
    return cap.CapacitanceBreakdown(total=touched + annulus, touched_part=touched,
                                    untouched_part=annulus)


def best_knots_exhaustive(p: np.ndarray, c: np.ndarray) -> tuple[int, int, int]:
    """Knot indices of the least-squares hinge fit, scoring every first knot.

    The least key (bin of SSE, i, j, k) of ``calibration._search_keys`` over
    the least-SSE triple of every first knot i.  O(n^3) time.
    """
    n = len(p)
    tables = cal._knot_tables(p, c)
    firsts = range(cal.MIN_GAP, n - 3 * cal.MIN_GAP)
    sse, js, ks = zip(*(cal._score_first_knot(tables, i) for i in firsts))
    return min(cal._search_keys(n, sse, firsts, js, ks))[1:]


def cp_curve_csv(curve: cap.CPCurve) -> str:
    """``CPCurve.to_csv`` written row by row through ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["pressure_pa", "capacitance_f", "mode"])
    for p in curve.points:
        writer.writerow([repr(p.pressure), repr(p.capacitance), p.mode.name.lower()])
    return buf.getvalue()


def cp_curve_json(curve: cap.CPCurve, geom: DeviceGeometry,
                  thresholds: ModeThresholds) -> str:
    """``CPCurve.to_json`` as one ``json.dumps(indent=2)`` of the whole document."""
    doc = {
        "geometry_id": curve.geometry_id,
        "points": [
            {"pressure_pa": p.pressure, "capacitance_f": p.capacitance,
             "mode": p.mode.name.lower()}
            for p in curve.points
        ],
        "geometry": {
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
        },
        "thresholds": {
            "transition_fraction": thresholds.transition_fraction,
            "touch_onset_fraction": thresholds.touch_onset_fraction,
            "saturation_fraction": thresholds.saturation_fraction,
        },
    }
    return json.dumps(doc, indent=2) + "\n"
