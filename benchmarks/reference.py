"""The benchmark's own forward model and oracles.

Inputs are generated from this model and outputs are checked against it,
so neither changes when the program does.  It restates the device model
(composite rigidity, cubic stiffening with K = 0.488, geometric contact
radius, clamped-plate and post-touch profiles) by independent routes: the
cubic is solved in closed form and the deflected-gap integral is taken by
quadrature in u = 1 - (r/R)^2 rather than in r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

EPSILON_0 = 8.8541878128e-12  # F/m
STIFFENING = 0.488
TRANSITION_FRACTION = 2.0 / 3.0

# (Young's modulus Pa, Poisson ratio, thickness m), bottom layer first.
FOIL = ((2.5e9, 0.34, 25e-6), (70e9, 0.35, 0.2e-6))


@dataclass(frozen=True)
class Device:
    """Plain-number copy of one device profile."""

    radius: float
    gap: float
    builtin_stress: float
    dielectric_thickness: float
    dielectric_eps: float
    medium_eps: float = 1.0
    layers: tuple = FOIL

    @property
    def thickness(self) -> float:
        return sum(t for _, _, t in self.layers)

    @property
    def travel(self) -> float:
        return self.gap - self.dielectric_thickness

    @property
    def electrical_gap(self) -> float:
        return (self.travel / self.medium_eps
                + self.dielectric_thickness / self.dielectric_eps)

    def replace(self, **changes) -> "Device":
        fields = dict(self.__dict__)
        fields.update(changes)
        return Device(**fields)


# The bundled profiles the workloads name, copied so that the generated
# inputs stay fixed when the program's data files change.
PROFILES = {
    "default": Device(radius=0.01, gap=3.971e-4, builtin_stress=17.6e6,
                      dielectric_thickness=13e-6, dielectric_eps=3.4),
    "dielectric_50um": Device(radius=0.01, gap=4.5e-4, builtin_stress=17.6e6,
                              dielectric_thickness=50e-6, dielectric_eps=3.4),
    "airgap": Device(radius=0.01, gap=4e-4, builtin_stress=0.0,
                     dielectric_thickness=0.0, dielectric_eps=1.0),
}


@functools.lru_cache(maxsize=64)
def rigidity(dev: Device) -> float:
    """Bending stiffness about the E/(1 - nu)-weighted neutral plane."""
    z = np.concatenate([[0.0], np.cumsum([t for _, _, t in dev.layers])])
    if len(dev.layers) == 1:
        e = z[1] / 2.0
    else:
        w = np.array([E / (1.0 - nu) * t for E, nu, t in dev.layers])
        e = float(np.dot(w, (z[:-1] + z[1:]) / 2.0) / w.sum())
    return float(sum(E / (3.0 * (1.0 - nu**2)) * ((z[i + 1] - e) ** 3 - (z[i] - e) ** 3)
                     for i, (E, nu, _) in enumerate(dev.layers)))


def center_deflection(dev: Device, pressure: float) -> float:
    """Unconstrained center deflection: real root of c3 w^3 + c1 w = q.

    With p = c1/c3 > 0 the depressed cubic has one real root,
    w = 2 sqrt(p/3) sinh(asinh((3 s / 2p) sqrt(3/p)) / 3), s = q/c3,
    which has no cancellation at small loads.
    """
    d = rigidity(dev)
    q = pressure * dev.radius**4 / (64.0 * d)
    c1 = 1.0 + dev.builtin_stress * dev.thickness * dev.radius**2 / (16.0 * d)
    c3 = STIFFENING / dev.thickness**2
    p, s = c1 / c3, q / c3
    return 2.0 * math.sqrt(p / 3.0) * math.sinh(
        math.asinh(1.5 * s / p * math.sqrt(3.0 / p)) / 3.0)


def onset_pressure(dev: Device) -> float:
    """Pressure at which the center deflection reaches the travel."""
    d = rigidity(dev)
    g = dev.travel
    c1 = 1.0 + dev.builtin_stress * dev.thickness * dev.radius**2 / (16.0 * d)
    return (STIFFENING * g**3 / dev.thickness**2 + c1 * g) * 64.0 * d / dev.radius**4


def point_class(dev: Device, pressure: float) -> str:
    """Evaluation path of one point: 'normal', 'transition' or 'touch'."""
    w0 = center_deflection(dev, pressure)
    if w0 > dev.travel:
        return "touch"
    return "normal" if w0 < TRANSITION_FRACTION * dev.travel else "transition"


def capacitance(dev: Device, pressure: float) -> float:
    """Capacitance by quadrature of the deflected-gap integrand.

    With u = 1 - (r/R)^2 the density 2 pi eps0 r dr / gap(r) becomes
    pi eps0 R^2 du / (d_e - W(u)/eps_m), W = W0 u^2 before touch and
    g (u/u_a)^2 over the free annulus after it.
    """
    w0 = center_deflection(dev, pressure)
    d_e = dev.electrical_gap
    g = dev.travel
    scale = math.pi * EPSILON_0 * dev.radius**2
    if w0 <= g:
        curv, u_max, touched = w0 / dev.medium_eps, 1.0, 0.0
    else:
        if dev.dielectric_thickness == 0.0:
            raise ValueError("touch without a dielectric")
        u_max = math.sqrt(g / w0)
        curv = g / (dev.medium_eps * u_max**2)
        a2 = dev.radius**2 * (1.0 - u_max)
        touched = EPSILON_0 * dev.dielectric_eps * math.pi * a2 / dev.dielectric_thickness
    value, _ = integrate.quad(lambda u: 1.0 / (d_e - curv * u * u), 0.0, u_max,
                              epsabs=0.0, epsrel=1e-13, limit=200)
    return touched + scale * value


def ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and R^2 of y against x."""
    design = np.column_stack([np.ones_like(x), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    tss = float(np.sum((y - y.mean()) ** 2))
    return float(coef[1]), (1.0 - float(resid @ resid) / tss if tss > 0 else 1.0)


def normalized(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Data scaled as segment_modes scales it, plus the capacitance scale."""
    scale = float(np.ptp(c))
    return p / float(np.max(np.abs(p))), (c - float(np.mean(c))) / scale, scale


def hinge_sse(p: np.ndarray, c: np.ndarray, knots) -> float:
    """SSE of the continuous 4-piece linear fit with knots at p[knots]."""
    design = np.column_stack([np.ones_like(p), p] +
                             [np.maximum(p - p[m], 0.0) for m in knots])
    coef, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
    resid = design @ coef - c
    return float(resid @ resid)


def admissible(n: int, knots, min_gap: int = 2) -> bool:
    """Whether a knot index triple is one segment_modes may choose."""
    i, j, k = knots
    return min_gap <= i and i + min_gap <= j and j + min_gap <= k < n - min_gap


def knot_triples(n: int, min_gap: int = 2):
    """Every admissible knot index triple, as segment_modes defines them."""
    for i in range(min_gap, n - 3 * min_gap):
        for j in range(i + min_gap, n - 2 * min_gap):
            for k in range(j + min_gap, n - min_gap):
                yield i, j, k
