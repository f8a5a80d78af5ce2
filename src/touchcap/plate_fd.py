"""Axisymmetric finite-difference solver for the clamped circular plate.

Solves D * biharmonic(w) = P on a uniform radial grid with a clamped edge
(w = w' = 0 at r = R) and symmetry at the center, using second-order
stencils with ghost-node reflection.  The five-band operator is solved
in O(n) time and memory by banded elimination plus one refinement step;
no n x n matrix is formed.  Surface stresses and von Mises fields are
recovered from the solution, and a convergence study against mechanics'
own linear center deflection P R^4 / (64 D) is provided.

The operator's condition number grows as n^4.  Up to 1601 nodes the
computed center deflection matches the stencil's exact-arithmetic
solution to well under 1% of the discretization error; at 3201 nodes
roundoff is about half the discretization error and at 6401 it
dominates, so a convergence ladder is roundoff-limited past 1601 nodes.

A grid is a node count from ``MIN_NODE_COUNT`` to ``MAX_NODE_COUNT``
(16 to 6401); its spacing comes from the geometry's radius.  A count
outside that range is a usage error in ``validate --nodes`` (exit 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .materials import LineFit, line_fit, neutral_plane
from .mechanics import DeviceGeometry, checked_pressures, linear_center_deflection

MIN_NODE_COUNT = 16
# A finer grid gains nothing: at 6401 nodes roundoff already dominates the
# discretization error (module docstring).  The cap also keeps a count from
# the command line from sizing arrays without bound.
MAX_NODE_COUNT = 6401


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
    the operator depends on n alone and the load enters only through the
    right-hand side (P/D) dr^4.  The bands are built in np.longdouble: a
    stencil whose rows sum to zero loses most of its digits when rounded
    to doubles on a fine grid.
    """
    bands = np.zeros((n, 5), dtype=np.longdouble)
    inv = 1 / np.arange(1, n - 1, dtype=np.longdouble)
    rows = bands[1:-1]
    rows[:, 0] = 1.0 - inv
    rows[:, 1] = -4.0 + 2.0 * inv - inv**2 - 0.5 * inv**3
    rows[:, 2] = 6.0 + 2.0 * inv**2
    rows[:, 3] = -4.0 - 2.0 * inv - inv**2 + 0.5 * inv**3
    rows[:, 4] = 1.0 + inv
    # The symmetry ghost w_{-1} = w_1 enters row 1 with weight 1 - dr/r = 0;
    # the clamped-edge ghost w_n = w_{n-2} (w'(R) = 0) folds onto w_{n-2}.
    bands[n - 2, 2] += bands[n - 2, 4]
    bands[n - 2, 4] = 0.0
    # Center node: series expansion of an even, regular solution gives
    # dr^4 biharmonic(w)(0) ~ (16/3) (3 w0 - 4 w1 + w2).
    bands[0, 2:] = np.array([48, -64, 16], dtype=np.longdouble) / 3
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


def _solve_pentadiagonal(bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elimination plus one step of iterative refinement (Golub & Van Loan, 3.5.3).

    The plate operator's condition number grows as n^4, so elimination
    in doubles alone loses about cond * eps: 6e-7 relative at 1601 nodes.
    The residual rhs - A x, formed from the np.longdouble bands in
    np.longdouble (80-bit on x86-64), keeps the digits that cancellation
    would drop, and one corrective solve in doubles recovers nearly all
    of the loss.  Where np.longdouble is no wider than a double, the step
    leaves the elimination's accuracy.
    """
    narrow = bands.astype(float)
    x = _eliminate(narrow, rhs)
    n = len(x)
    wide = np.zeros(n + 4, dtype=np.longdouble)
    wide[2:-2] = x
    residual = rhs - sum(bands[:, k] * wide[k:k + n] for k in range(5))
    return x + _eliminate(narrow, residual.astype(float))


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

    Stresses are evaluated at each layer's surface farther from the neutral
    plane, and the worst layer's von Mises stress is reported per node.
    Built-in stress is not part of the operator (pure bending model).
    """
    pressure = float(checked_pressures(pressure))
    n = grid.node_count
    dr = geom.radius / (n - 1)
    rhs = np.full(n, pressure / geom.flexural_rigidity * dr**4)
    rhs[-1] = 0.0  # w(R) = 0
    w = _solve_pentadiagonal(_biharmonic_bands(n), rhs)

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
        von_mises = np.maximum(von_mises, np.sqrt(sr**2 - sr * st + st**2))

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
        raise ValueError("node_counts must be increasing")
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
