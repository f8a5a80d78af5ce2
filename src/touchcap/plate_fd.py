"""Axisymmetric finite-difference solver for the clamped circular plate.

Solves D * biharmonic(w) = P on a uniform radial grid with a clamped edge
(w = w' = 0 at r = R) and symmetry at the center, using second-order
stencils with ghost-node reflection.  The solution is the exact profile
P (R^2 - r^2)^2 / (64 D) (Timoshenko & Woinowsky-Krieger, Theory of
Plates and Shells) plus a correction, for which the stencil's residual
on that quartic is a closed form; one banded elimination in doubles
solves for it in O(n) (defect correction, Stetter, Numer. Math. 29,
1978).  The operator's n^4 condition number thus acts only on the
correction, which is as small as the discretization error: each node is
within 2e-12 of the center deflection of an exact solve of the stencil,
on any host.  Stresses are recovered from the solution, and a
convergence study against mechanics' own linear center deflection
P R^4 / (64 D) is provided.

A grid is a node count from ``MIN_NODE_COUNT`` to ``MAX_NODE_COUNT``
(16 to 4001); its spacing comes from the geometry's radius.  A count
outside that range is a usage error in ``validate --nodes`` (exit 2).
The center's relative error e is O(h^2 ln h): with N = n - 1, e N^2 =
2.112 - ln(N) / 4 to 6e-4 from 101 nodes on, so observed orders exceed
2 by the log term, and e changes sign near n = 4675, beyond the range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .materials import LineFit, line_fit, neutral_plane
from .mechanics import DeviceGeometry, checked_pressures, linear_center_deflection

MIN_NODE_COUNT = 16
# Below the zero of the center error e (see above), across which an
# observed order means nothing (4001 -> 6401: 0.510).
MAX_NODE_COUNT = 4001


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid of ``node_count`` nodes from the center to the
    clamped edge."""

    node_count: int

    def __post_init__(self) -> None:
        if not MIN_NODE_COUNT <= self.node_count <= MAX_NODE_COUNT:
            raise ValueError(f"grid nodes must be in [{MIN_NODE_COUNT}, "
                             f"{MAX_NODE_COUNT}], got {self.node_count}")


@dataclass(frozen=True)
class PlateSolution:
    """Finite-difference plate solution with recovered stress fields."""

    grid: RadialGrid
    deflection: np.ndarray  # m, per node
    von_mises: np.ndarray  # Pa, worst layer surface per node
    max_von_mises: tuple[float, float]  # (Pa, location r)

    @property
    def center_deflection(self) -> float:
        return float(self.deflection[0])


def _biharmonic_bands(n: int) -> np.ndarray:
    """The five bands of the clamped-plate operator on n nodes, scaled by dr^4.

    Row i holds the coefficients of w_{i-2} .. w_{i+2} in columns 0 .. 4;
    a coefficient reaching past either end of the grid is zero.  Interior
    rows discretize dr^4 biharmonic(w), where

        biharmonic(w) = w'''' + (2/r) w''' - (1/r^2) w'' + (1/r^3) w',

    by second-order central differences at r = i dr.  Since dr/r = 1/i,
    the operator depends on n alone.  The bands are doubles formed by +,
    -, * and / alone, which IEEE arithmetic rounds the same on every
    host.
    """
    bands = np.zeros((n, 5))
    inv = 1 / np.arange(1.0, n - 1)
    inv2 = inv * inv
    inv3 = inv2 * inv
    rows = bands[1:-1]
    rows[:, 0] = 1.0 - inv
    rows[:, 1] = -4.0 + 2.0 * inv - inv2 - 0.5 * inv3
    rows[:, 2] = 6.0 + 2.0 * inv2
    rows[:, 3] = -4.0 - 2.0 * inv - inv2 + 0.5 * inv3
    rows[:, 4] = 1.0 + inv
    # The symmetry ghost w_{-1} = w_1 enters row 1 with weight 1 - dr/r = 0;
    # the clamped-edge ghost w_n = w_{n-2} (w'(R) = 0) folds onto w_{n-2}.
    bands[n - 2, 2] += bands[n - 2, 4]
    bands[n - 2, 4] = 0.0
    # Center node: series expansion of an even, regular solution gives
    # dr^4 biharmonic(w)(0) ~ (16/3) (3 w0 - 4 w1 + w2).
    bands[0, 2:] = np.array([48.0, -64.0, 16.0]) / 3
    bands[n - 1, 2] = 1.0  # w(R) = 0
    return bands


def _eliminate(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a pentadiagonal system in O(n) by elimination without pivoting.

    ``bands`` is laid out as ``_biharmonic_bands`` returns it.  Banded
    Gaussian elimination (Golub & Van Loan, Matrix Computations, 4.3)
    keeps the band, so no n x n matrix is formed.  Without pivoting it
    needs every pivot to stay away from zero; the plate operator's pivots
    lie between 1 and 16.
    """
    e, c, d, a, b = (band.tolist() for band in bands.T)
    y = rhs.tolist()
    n = len(d)
    for k in range(n - 1):
        m = c[k + 1] / d[k]
        d[k + 1] -= m * a[k]
        a[k + 1] -= m * b[k]
        y[k + 1] -= m * y[k]
        if k + 2 < n:
            m = e[k + 2] / d[k]
            c[k + 2] -= m * a[k]
            d[k + 2] -= m * b[k]
            y[k + 2] -= m * y[k]
    x = [0.0] * (n + 2)
    for k in range(n - 1, -1, -1):
        x[k] = (y[k] - a[k] * x[k + 1] - b[k] * x[k + 2]) / d[k]
    return np.array(x[:n])


def _quartic_residual(n: int) -> np.ndarray:
    """1 - A f / 64 per row: A is ``_biharmonic_bands``, and f_i =
    (N^2 - i^2)^2 with N = n - 1 the exact profile for a unit right-hand
    side in grid units.  The differences for w'' and w' err on f by f^(4)/12
    and f^(3)/6, which leaves -1/(32 i^2) on interior row i; the center and
    edge rows are exact, and the clamped-edge ghost, folding f_{N-1} for
    f_{N+1}, adds N^2 / (8 (N - 1)) on row N - 1.
    """
    i = np.arange(1, n - 1)
    residual = np.zeros(n)
    residual[1:-1] = -1.0 / (32 * i * i)
    residual[-2] += (n - 1) ** 2 / (8 * (n - 2))
    return residual


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


@np.errstate(over="ignore", invalid="ignore")  # overflow is checked at the end
def solve_plate(geom: DeviceGeometry, pressure: float, grid: RadialGrid) -> PlateSolution:
    """Solve the clamped plate at one pressure and recover stresses.

    Stresses are evaluated at each layer's surface farther from the neutral
    plane, and the worst layer's von Mises stress is reported per node.
    Built-in stress is not part of the operator (pure bending model).
    Raises ValueError naming the pressure where the load, the deflection
    or a stress is beyond float range.
    """
    pressure = float(checked_pressures(pressure))
    n = grid.node_count
    dr = geom.radius / (n - 1)
    # w = (P / D) dr^4 (f / 64 + c) = q (f + 64 c) / N^4, f_i = d_i^2, for the
    # load term q = P R^4 / (64 D) and A c the quartic's residual.
    correction = _eliminate(_biharmonic_bands(n), _quartic_residual(n))
    d = (n - 1) ** 2 - np.arange(n) ** 2
    w = linear_center_deflection(geom, pressure) * ((d * d + 64.0 * correction) / (n - 1) ** 4)

    r = np.linspace(0.0, geom.radius, n)
    d1, d2 = _derivatives(w, dr)

    # w'/r is w'' at the center by symmetry (l'Hopital).
    d1_over_r = np.empty_like(d1)
    d1_over_r[0] = d2[0]
    d1_over_r[1:] = d1[1:] / r[1:]

    kappa_r = -d2
    kappa_t = -d1_over_r

    # Per-layer surface stress recovery about the neutral plane.  Stress
    # scales with the offset from it: the farther surface is the worse.
    e = neutral_plane(geom.laminate)
    von_mises = np.zeros_like(w)
    z = geom.laminate.interfaces()
    for i, layer in enumerate(geom.laminate.layers):
        stiff = layer.youngs_modulus / (1.0 - layer.poisson_ratio**2)
        offset = max(z[i] - e, z[i + 1] - e, key=abs)
        sr = stiff * (kappa_r + layer.poisson_ratio * kappa_t) * offset
        st = stiff * (kappa_t + layer.poisson_ratio * kappa_r) * offset
        # sqrt(sr^2 - sr st + st^2), with no square to overflow.
        von_mises = np.maximum(von_mises, np.hypot(sr - 0.5 * st, math.sqrt(0.75) * st))

    if not (np.isfinite(w).all() and np.isfinite(von_mises).all()):
        raise ValueError(f"pressure {pressure!r} Pa is too large: the plate "
                         f"solution is beyond float range")
    idx = int(np.argmax(von_mises))
    return PlateSolution(grid=grid, deflection=w, von_mises=von_mises,
                         max_von_mises=(float(von_mises[idx]), float(r[idx])))


@dataclass(frozen=True)
class ConvergenceRow:
    node_count: int
    center_deflection: float
    relative_error: float


def convergence_study(geom: DeviceGeometry, pressure: float,
                      node_counts: list[int]) -> list[ConvergenceRow]:
    """Center-deflection error against ``linear_center_deflection`` per grid size.

    The relative error is undefined at zero load and lost to underflow
    where the reference deflection is subnormal, so a pressure that is not
    finite and > 0, or whose reference deflection is below
    ``sys.float_info.min``, is a ValueError.
    """
    if float(checked_pressures(pressure)) == 0.0:
        raise ValueError("pressure must be > 0: the relative error is "
                         "undefined at zero load")
    if any(b <= a for a, b in zip(node_counts, node_counts[1:])):
        raise ValueError(f"node_counts must be increasing, got {list(node_counts)}")
    grids = [RadialGrid(n) for n in node_counts]  # every count checked first
    exact = linear_center_deflection(geom, pressure)
    if exact < sys.float_info.min:
        raise ValueError(f"pressure {pressure!r} Pa is too small: the reference "
                         f"deflection {exact!r} m is below the smallest normal "
                         f"float {sys.float_info.min!r}")
    rows = []
    for grid in grids:
        sol = solve_plate(geom, pressure, grid)
        err = abs(sol.center_deflection - exact) / exact
        rows.append(ConvergenceRow(grid.node_count, sol.center_deflection, err))
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


def linearity_check(geom: DeviceGeometry, pressures: list[float],
                    grid: RadialGrid) -> LineFit:
    """Least-squares line through (P, center deflection) samples; slope in m/Pa."""
    if len(pressures) < 3:
        raise ValueError("need at least 3 pressures")
    if max(pressures) == min(pressures):
        raise ValueError("degenerate fit: pressures all equal")
    p = np.asarray(pressures, dtype=float)
    w = np.array([solve_plate(geom, pi, grid).center_deflection for pi in p])
    return line_fit(p, w)
