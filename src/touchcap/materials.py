"""Elastic layers and composite diaphragm stiffness.

The diaphragm is a one- or two-layer laminate (e.g. aluminum-coated
polyimide).  Bending stiffness is the per-layer stiffness integral about
the modulus-weighted neutral plane.  The module also holds the package's
generic numeric helpers: ``check_finite``, the one interval rule
``check_interval``, the one sample bound ``check_samples``, the one
least-squares line ``line_fit`` and the one R^2, ``r_squared``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def check_finite(obj: object, names: tuple[str, ...], where: str = "") -> None:
    """Raise ValueError naming the first attribute in ``names`` that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{where}{name} must be finite, got {value}")


def check_interval(lo: float, hi: float, lo_name: str, hi_name: str) -> None:
    """The one interval rule, for fit bounds and servo endpoints: lo < hi
    with hi - lo finite, so both ends are finite too.  ValueError naming
    whichever part fails."""
    if not lo < hi:  # false for NaN too
        raise ValueError(f"{lo_name} must be < {hi_name}")
    if not math.isfinite(hi - lo):
        raise ValueError(f"{hi_name} - {lo_name} must be in float range, "
                         f"got {hi!r} - ({lo!r})")


# Largest magnitude of a sample of a measured series or a line fit: squared
# differences stay below 4e300, so sums of them over up to 1e7 samples (an
# SSE, a variance, a line fit's moments) stay in float range.
MAX_SAMPLE_MAGNITUDE = 1e150


def check_samples(values: np.ndarray, name: str) -> None:
    """ValueError naming the first of ``values`` not finite or beyond the bound."""
    bad = np.flatnonzero(~(np.abs(values) <= MAX_SAMPLE_MAGNITUDE))
    if len(bad):
        value = float(values[bad[0]])
        rule = (f"be at most {MAX_SAMPLE_MAGNITUDE:g} in magnitude"
                if math.isfinite(value) else "be finite")
        raise ValueError(f"{name}[{bad[0]}] must {rule}, got {value}")


class LineFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    """1 - SSE/TSS of ``fitted`` against samples y; 1 when y has no spread:
    all equal, however their mean rounds, or a TSS that underflows to 0."""
    tss = float(np.sum((y - y.mean()) ** 2)) if np.ptp(y) > 0 else 0.0
    return 1.0 - float(np.sum((y - fitted) ** 2)) / tss if tss > 0 else 1.0


def line_fit(x: np.ndarray, y: np.ndarray) -> LineFit:
    """Least-squares line through (x, y): slope, intercept and ``r_squared``;
    ValueError naming the first x or y that ``check_samples`` rejects."""
    check_samples(x, "x")
    check_samples(y, "y")
    slope, intercept = np.polyfit(x, y, 1)
    return LineFit(float(slope), float(intercept), r_squared(y, slope * x + intercept))


@dataclass(frozen=True)
class MaterialLayer:
    """One isotropic elastic layer of the diaphragm stack."""

    name: str
    youngs_modulus: float  # Pa
    poisson_ratio: float
    thickness: float  # m

    def __post_init__(self) -> None:
        check_finite(self, ("youngs_modulus", "poisson_ratio", "thickness"),
                     f"layer {self.name!r}: ")
        if self.youngs_modulus <= 0:
            raise ValueError(f"layer {self.name!r}: youngs_modulus must be > 0")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError(f"layer {self.name!r}: poisson_ratio must be in [0, 0.5)")
        if self.thickness <= 0:
            raise ValueError(f"layer {self.name!r}: thickness must be > 0")


@dataclass(frozen=True)
class Laminate:
    """Ordered layer stack, bottom layer first (contains z = 0).

    The model covers one or two layers only; longer stacks are rejected.
    """

    layers: tuple[MaterialLayer, ...]

    def __post_init__(self) -> None:
        if isinstance(self.layers, list):
            object.__setattr__(self, "layers", tuple(self.layers))
        if not 1 <= len(self.layers) <= 2:
            raise ValueError("laminate must have 1 or 2 layers")

    @property
    def total_thickness(self) -> float:
        return sum(layer.thickness for layer in self.layers)

    def interfaces(self) -> list[float]:
        """z coordinates of layer boundaries, bottom face at z = 0."""
        z = [0.0]
        for layer in self.layers:
            z.append(z[-1] + layer.thickness)
        return z


def neutral_plane(laminate: Laminate) -> float:
    """Neutral-plane height e above the bottom face.

    Modulus-weighted centroid of the stack: e = sum(w_i t_i zbar_i) /
    sum(w_i t_i) with w_i = E_i/(1 - nu_i).  A single layer gives h/2
    to within 1 ulp.
    """
    z = laminate.interfaces()
    num = den = 0.0
    for i, layer in enumerate(laminate.layers):
        w = layer.youngs_modulus / (1.0 - layer.poisson_ratio)
        num += w * layer.thickness * 0.5 * (z[i] + z[i + 1])
        den += w * layer.thickness
    return num / den


def flexural_rigidity(laminate: Laminate) -> float:
    """Bending stiffness D of the stack about its neutral plane.

    Per-layer stiffness integral D = sum_i E_i/(1 - nu_i^2) *
    integral over layer i of (z - e)^2 dz, evaluated in closed form.
    Reduces to E h^3 / (12 (1 - nu^2)) for a single layer.
    """
    e = neutral_plane(laminate)
    z = laminate.interfaces()
    d = 0.0
    for i, layer in enumerate(laminate.layers):
        k = layer.youngs_modulus / (3.0 * (1.0 - layer.poisson_ratio**2))
        d += k * ((z[i + 1] - e) ** 3 - (z[i] - e) ** 3)
    return d
