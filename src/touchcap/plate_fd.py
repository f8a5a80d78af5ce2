"""Axisymmetric finite-difference solver for the clamped circular plate.

Solves D * biharmonic(w) = P on a uniform radial grid with a clamped edge
(w = w' = 0 at r = R) and symmetry at the center, using second-order
stencils with ghost-node reflection.  Bending moments, surface stresses
and von Mises fields are recovered from the solution, and a convergence
study against the analytic center deflection P R^4 / (64 D) is provided.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .calibration import line_fit
from .materials import effective_poisson_ratio, neutral_plane
from .mechanics import DeviceGeometry

MIN_NODE_COUNT = 16


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid from the center to the clamped edge."""

    node_count: int
    radius: float

    def __post_init__(self) -> None:
        if self.node_count < MIN_NODE_COUNT:
            raise ValueError(f"grid too coarse: need >= {MIN_NODE_COUNT} nodes")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")

    @property
    def spacing(self) -> float:
        return self.radius / (self.node_count - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.radius, self.node_count)


@dataclass(frozen=True)
class PlateSolution:
    """Finite-difference plate solution with recovered stress fields."""

    grid: RadialGrid
    deflection: np.ndarray  # m, per node
    radial_moment: np.ndarray  # N (moment per unit length)
    tangential_moment: np.ndarray
    von_mises: np.ndarray  # Pa, worst layer surface per node
    edge_radial_stress: float  # Pa
    max_von_mises: tuple[float, float]  # (Pa, location r)

    @property
    def center_deflection(self) -> float:
        return float(self.deflection[0])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["r_m", "deflection_m", "radial_moment_n",
                         "tangential_moment_n", "von_mises_pa"])
        for r, w, mr, mt, vm in zip(self.grid.nodes(), self.deflection,
                                    self.radial_moment, self.tangential_moment,
                                    self.von_mises):
            writer.writerow([repr(float(r)), repr(float(w)), repr(float(mr)),
                             repr(float(mt)), repr(float(vm))])
        return buf.getvalue()


def _biharmonic_row(r: float, dr: float) -> np.ndarray:
    """Stencil weights for w_{i-2}..w_{i+2} of the axisymmetric biharmonic.

    biharmonic(w) = w'''' + (2/r) w''' - (1/r^2) w'' + (1/r^3) w'
    """
    w4 = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / dr**4
    w3 = np.array([-1.0, 2.0, 0.0, -2.0, 1.0]) / (2.0 * dr**3)
    w2 = np.array([0.0, 1.0, -2.0, 1.0, 0.0]) / dr**2
    w1 = np.array([0.0, -1.0, 0.0, 1.0, 0.0]) / (2.0 * dr)
    return w4 + (2.0 / r) * w3 - (1.0 / r**2) * w2 + (1.0 / r**3) * w1


def _solve_deflection(grid: RadialGrid, load_over_d: float) -> np.ndarray:
    """Deflection nodes solving biharmonic(w) = P/D with clamped edge."""
    n = grid.node_count
    dr = grid.spacing
    a = np.zeros((n, n))
    rhs = np.full(n, load_over_d)

    # Center node: series expansion of an even, regular solution gives
    # biharmonic(w)(0) ~ (16/3) (3 w0 - 4 w1 + w2) / dr^4.
    a[0, 0] = 16.0 * 3.0 / (3.0 * dr**4)
    a[0, 1] = -16.0 * 4.0 / (3.0 * dr**4)
    a[0, 2] = 16.0 / (3.0 * dr**4)

    for i in range(1, n - 1):
        row = _biharmonic_row(i * dr, dr)
        for k in range(-2, 3):
            j = i + k
            if j == -1:
                j = 1  # symmetry ghost: w(-dr) = w(dr)
            elif j == n:
                j = n - 2  # clamped-edge ghost: w'(R) = 0
            a[i, j] += row[k + 2]

    a[n - 1, n - 1] = 1.0  # w(R) = 0
    rhs[n - 1] = 0.0
    return np.linalg.solve(a, rhs)


def _derivatives(w: np.ndarray, dr: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference w' and w'' with ghost nodes at both ends."""
    n = len(w)
    ext = np.empty(n + 2)
    ext[1:-1] = w
    ext[0] = w[1]  # symmetry at center
    ext[-1] = w[-2]  # clamped edge, w'(R) = 0
    d1 = (ext[2:] - ext[:-2]) / (2.0 * dr)
    d2 = (ext[2:] - 2.0 * ext[1:-1] + ext[:-2]) / dr**2
    return d1, d2


def solve_plate(geom: DeviceGeometry, pressure: float, grid: RadialGrid) -> PlateSolution:
    """Solve the clamped plate at one pressure and recover stresses.

    Moments use the thickness-weighted Poisson ratio; stresses are
    evaluated at every layer surface offset from the neutral plane and the
    worst surface is reported per node.  Built-in stress is not part of
    the operator (pure bending model).
    """
    if pressure < 0:
        raise ValueError("pressure must be >= 0")
    if grid.radius != geom.radius:
        raise ValueError("grid radius must match geometry radius")
    d_flex = geom.flexural_rigidity
    w = _solve_deflection(grid, pressure / d_flex)

    dr = grid.spacing
    r = grid.nodes()
    d1, d2 = _derivatives(w, dr)

    # w'/r is w'' at the center by symmetry (l'Hopital).
    d1_over_r = np.empty_like(d1)
    d1_over_r[0] = d2[0]
    d1_over_r[1:] = d1[1:] / r[1:]

    nu_eff = effective_poisson_ratio(geom.laminate)
    kappa_r = -d2
    kappa_t = -d1_over_r
    mr = d_flex * (kappa_r + nu_eff * kappa_t)
    mt = d_flex * (nu_eff * kappa_r + kappa_t)

    # Per-layer surface stress recovery about the neutral plane.
    e = neutral_plane(geom.laminate)
    von_mises = np.zeros_like(w)
    edge_sr = 0.0
    z = geom.laminate.interfaces()
    for i, layer in enumerate(geom.laminate.layers):
        stiff = layer.youngs_modulus / (1.0 - layer.poisson_ratio**2)
        for z_surf in (z[i], z[i + 1]):
            offset = z_surf - e
            sr = stiff * (kappa_r + layer.poisson_ratio * kappa_t) * offset
            st = stiff * (kappa_t + layer.poisson_ratio * kappa_r) * offset
            vm = np.sqrt(sr**2 - sr * st + st**2)
            von_mises = np.maximum(von_mises, vm)
            if abs(sr[-1]) > abs(edge_sr):
                edge_sr = float(sr[-1])

    idx = int(np.argmax(von_mises))
    return PlateSolution(grid=grid, deflection=w, radial_moment=mr,
                         tangential_moment=mt, von_mises=von_mises,
                         edge_radial_stress=edge_sr,
                         max_von_mises=(float(von_mises[idx]), float(r[idx])))


def analytic_center_deflection(geom: DeviceGeometry, pressure: float) -> float:
    """Small-deflection closed form P R^4 / (64 D), the solver oracle."""
    return pressure * geom.radius**4 / (64.0 * geom.flexural_rigidity)


@dataclass(frozen=True)
class ConvergenceRow:
    node_count: int
    center_deflection: float
    relative_error: float


def convergence_study(geom: DeviceGeometry, pressure: float,
                      node_counts: list[int]) -> list[ConvergenceRow]:
    """Center-deflection error against the analytic value per grid size."""
    if any(b <= a for a, b in zip(node_counts, node_counts[1:])):
        raise ValueError("node_counts must be increasing")
    exact = analytic_center_deflection(geom, pressure)
    rows = []
    for n in node_counts:
        sol = solve_plate(geom, pressure, RadialGrid(n, geom.radius))
        err = abs(sol.center_deflection - exact) / exact if exact else 0.0
        rows.append(ConvergenceRow(n, sol.center_deflection, err))
    return rows


def observed_orders(rows: list[ConvergenceRow]) -> list[float]:
    """Log-log error slopes between successive refinements."""
    orders = []
    for a, b in zip(rows, rows[1:]):
        ha = 1.0 / (a.node_count - 1)
        hb = 1.0 / (b.node_count - 1)
        orders.append(math.log(a.relative_error / b.relative_error)
                      / math.log(ha / hb))
    return orders


@dataclass(frozen=True)
class LinearityResult:
    slope: float  # m/Pa
    intercept: float
    r_squared: float


def linearity_check(geom: DeviceGeometry, pressures: list[float],
                    grid: RadialGrid) -> LinearityResult:
    """Least-squares line through (P, center deflection) samples."""
    if len(pressures) < 3:
        raise ValueError("need at least 3 pressures")
    if max(pressures) == min(pressures):
        raise ValueError("degenerate fit: pressures all equal")
    p = np.asarray(pressures, dtype=float)
    w = np.array([solve_plate(geom, pi, grid).center_deflection for pi in p])
    return LinearityResult(*line_fit(p, w))
