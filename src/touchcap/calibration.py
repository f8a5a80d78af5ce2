"""Fitting, segmentation and timing metrics for measured sensor data.

Fits forward-model parameters to measured capacitance-pressure samples by
derivative-free simplex minimization, finds the SSE-optimal continuous
4-piece linear fit of a measured curve by exhaustive knot search, and
extracts sensitivity, linearity and 10-90% rise time.  The fit's knots
coincide with operating-mode boundaries only where the curve changes
slope there; mode labels come from ``mechanics.classify_mode``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, replace

import numpy as np

from . import capacitance as cap
from .mechanics import DeviceGeometry, ModeThresholds

# Geometry fields adjustable by the fitter, plus a constant parasitic offset.
FIT_PARAM_NAMES = ("gap", "builtin_stress", "dielectric_thickness",
                   "dielectric_rel_permittivity", "parasitic_offset")


@dataclass(frozen=True)
class MeasuredSeries:
    """Sampled (pressure, capacitance) or (time, capacitance) data."""

    abscissa: np.ndarray
    capacitance: np.ndarray
    kind: str = "pressure"  # "pressure" or "time"
    meta: str = ""

    def __post_init__(self) -> None:
        x = np.asarray(self.abscissa, dtype=float)
        c = np.asarray(self.capacitance, dtype=float)
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "capacitance", c)
        if len(x) != len(c):
            raise ValueError("abscissa and capacitance lengths differ")
        for name, values in (("abscissa", x), ("capacitance", c)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ValueError(f"{name}[{bad[0]}] must be finite, got {values[bad[0]]}")
        if len(x) >= 2 and np.any(np.diff(x) <= 0):
            raise ValueError("abscissa must be strictly increasing")
        if self.kind not in ("pressure", "time"):
            raise ValueError("kind must be 'pressure' or 'time'")

    def __len__(self) -> int:
        return len(self.abscissa)

    @classmethod
    def from_csv(cls, text: str, meta: str = "") -> "MeasuredSeries":
        """Parse a two-column CSV with a header row.

        Accepted headers: (pressure_pa, capacitance_f) or
        (time_s, capacitance_f).  Raises ValueError naming the offending
        line on malformed rows.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty CSV")
        header = [h.strip().lower() for h in lines[0].split(",")]
        if header[:2] == ["pressure_pa", "capacitance_f"]:
            kind = "pressure"
        elif header[:2] == ["time_s", "capacitance_f"]:
            kind = "time"
        else:
            raise ValueError(f"unrecognized CSV header: {lines[0]!r}")
        xs, cs = [], []
        for lineno, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"line {lineno}: expected 2 columns")
            try:
                xs.append(float(fields[0]))
                cs.append(float(fields[1]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        return cls(np.array(xs), np.array(cs), kind=kind, meta=meta)


@dataclass(frozen=True)
class FitResult:
    """Calibrated parameters with convergence diagnostics."""

    params: dict[str, float]
    residual_norm: float  # RMS capacitance error, F
    iterations: int
    converged: bool

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


@dataclass(frozen=True)
class ModeSegmentation:
    """SSE-optimal continuous four-segment linear fit of a measured curve."""

    boundaries: tuple[float, float, float]  # Pa
    slopes: tuple[float, float, float, float]  # F/Pa
    r_squared: tuple[float, float, float, float]
    sse: float
    low_confidence: bool = False

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2) + "\n"


def apply_params(geom: DeviceGeometry, params: dict[str, float]) -> tuple[DeviceGeometry, float]:
    """Geometry with fit parameters applied; returns (geometry, offset)."""
    offset = params.get("parasitic_offset", 0.0)
    fields = {k: v for k, v in params.items()
              if k in FIT_PARAM_NAMES and k != "parasitic_offset"}
    return replace(geom, **fields), offset


def model_capacitances(geom: DeviceGeometry, pressures: np.ndarray) -> np.ndarray:
    """Forward-model capacitance at each pressure, in one array evaluation.

    Raises ValueError for a negative or non-finite pressure and
    SweepPointError for the first pressure where the model has no value.
    """
    return cap.capacitances(geom, pressures)


def fit_model(data: MeasuredSeries, geom0: DeviceGeometry,
              free_params: list[str],
              bounds: dict[str, tuple[float, float]],
              max_iterations: int = 2000) -> FitResult:
    """Fit geometry parameters to measured C-P data.

    Minimizes the RMS capacitance error of the forward model by
    Nelder-Mead simplex with bound clamping.  The initial simplex is built
    deterministically from the starting geometry and the bounds, so
    identical inputs give identical results.  A trial point where the
    model has no value (a ValueError, or a SweepPointError such as contact
    without a dielectric) scores infinity; any other error propagates.
    """
    from scipy import optimize

    if data.kind != "pressure":
        raise ValueError("fit_model needs pressure-capacitance data")
    if len(data) < 4:
        raise ValueError("need at least 4 samples")
    if not free_params:
        raise ValueError("free_params must be nonempty")
    for name in free_params:
        if name not in FIT_PARAM_NAMES:
            raise ValueError(f"unknown fit parameter {name!r}")
        if name not in bounds:
            raise ValueError(f"missing bounds for {name!r}")
        lo, hi = bounds[name]
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds for {name!r} must be finite with lo < hi")

    start = {
        "gap": geom0.gap,
        "builtin_stress": geom0.builtin_stress,
        "dielectric_thickness": geom0.dielectric_thickness,
        "dielectric_rel_permittivity": geom0.dielectric_rel_permittivity,
        "parasitic_offset": 0.0,
    }
    lo = np.array([bounds[n][0] for n in free_params])
    hi = np.array([bounds[n][1] for n in free_params])
    x0 = np.clip([start[n] for n in free_params], lo, hi)
    scale = hi - lo

    measured = data.capacitance

    def objective(x: np.ndarray) -> float:
        x = np.clip(x, lo, hi)
        params = dict(zip(free_params, x))
        geom, offset = apply_params(geom0, params)
        try:
            model = model_capacitances(geom, data.abscissa) + offset
        except (ValueError, cap.SweepPointError):
            return np.inf
        return float(np.sqrt(np.mean((model - measured)**2)))

    # Deterministic initial simplex: start point plus 5% of each bound span.
    simplex = [x0]
    for k in range(len(free_params)):
        vertex = x0.copy()
        step = 0.05 * scale[k]
        vertex[k] = vertex[k] + step if vertex[k] + step <= hi[k] else vertex[k] - step
        simplex.append(vertex)

    result = optimize.minimize(
        objective, x0, method="Nelder-Mead",
        options={"initial_simplex": np.array(simplex),
                 "xatol": 1e-10 * float(np.max(scale)),
                 "fatol": 1e-18, "maxiter": max_iterations,
                 "maxfev": 4 * max_iterations})
    best = np.clip(result.x, lo, hi)
    params = {name: float(v) for name, v in zip(free_params, best)}
    geom, offset = apply_params(geom0, params)
    resid = model_capacitances(geom, data.abscissa) + offset - measured
    return FitResult(params=params,
                     residual_norm=float(np.sqrt(np.mean(resid**2))),
                     iterations=int(result.nit),
                     converged=bool(result.success))


def _piecewise_design(p: np.ndarray, b1: float, b2: float, b3: float) -> np.ndarray:
    """Design matrix of a continuous 4-piece linear spline with knots b1<b2<b3."""
    return np.column_stack([
        np.ones_like(p), p,
        np.maximum(p - b1, 0.0),
        np.maximum(p - b2, 0.0),
        np.maximum(p - b3, 0.0),
    ])


def _knot_triples(n: int, min_gap: int) -> np.ndarray:
    """All admissible (i, j, k) knot index triples, min_gap apart and interior."""
    triples = [(i, j, k)
               for i in range(min_gap, n - 3 * min_gap)
               for j in range(i + min_gap, n - 2 * min_gap)
               for k in range(j + min_gap, n - min_gap)]
    return np.array(triples, dtype=int)


def _batched_sse(p: np.ndarray, c: np.ndarray,
                 triples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares SSE of the hinge fit for every knot triple at once.

    Every entry of the normal equations is a suffix sum over samples at or
    beyond a knot, so the whole exhaustive search reduces to cumulative
    sums plus a batched 5x5 solve.
    """
    n = len(p)

    def suffix(v: np.ndarray) -> np.ndarray:
        out = np.zeros(n + 1)
        out[:-1] = np.cumsum(v[::-1])[::-1]
        return out

    s0 = suffix(np.ones(n))
    s1 = suffix(p)
    s2 = suffix(p * p)
    sc0 = suffix(c)
    sc1 = suffix(p * c)

    def hinge_dot(bi: np.ndarray, bj: np.ndarray, start: np.ndarray) -> np.ndarray:
        """sum over samples >= start of (p - bi)(p - bj)."""
        return s2[start] - (bi + bj) * s1[start] + bi * bj * s0[start]

    i, j, k = triples[:, 0], triples[:, 1], triples[:, 2]
    b1, b2, b3 = p[i], p[j], p[k]
    m = len(triples)

    gram = np.empty((m, 5, 5))
    gram[:, 0, 0] = s0[0]
    gram[:, 0, 1] = s1[0]
    gram[:, 0, 2] = s1[i] - b1 * s0[i]
    gram[:, 0, 3] = s1[j] - b2 * s0[j]
    gram[:, 0, 4] = s1[k] - b3 * s0[k]
    gram[:, 1, 1] = s2[0]
    gram[:, 1, 2] = hinge_dot(b1, np.zeros(m), i)
    gram[:, 1, 3] = hinge_dot(b2, np.zeros(m), j)
    gram[:, 1, 4] = hinge_dot(b3, np.zeros(m), k)
    gram[:, 2, 2] = hinge_dot(b1, b1, i)
    gram[:, 2, 3] = hinge_dot(b1, b2, j)
    gram[:, 2, 4] = hinge_dot(b1, b3, k)
    gram[:, 3, 3] = hinge_dot(b2, b2, j)
    gram[:, 3, 4] = hinge_dot(b2, b3, k)
    gram[:, 4, 4] = hinge_dot(b3, b3, k)
    for a in range(5):
        for b in range(a + 1, 5):
            gram[:, b, a] = gram[:, a, b]

    rhs = np.empty((m, 5))
    rhs[:, 0] = sc0[0]
    rhs[:, 1] = sc1[0]
    rhs[:, 2] = sc1[i] - b1 * sc0[i]
    rhs[:, 3] = sc1[j] - b2 * sc0[j]
    rhs[:, 4] = sc1[k] - b3 * sc0[k]

    coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
    sse = float(np.dot(c, c)) - np.einsum("mi,mi->m", coef, rhs)
    return sse, coef


def segment_modes(data: MeasuredSeries, min_gap: int = 2) -> ModeSegmentation:
    """Best continuous 4-piece linear fit by exhaustive knot search.

    Knots are restricted to sample abscissae with at least ``min_gap``
    samples between them; every knot triple is scored by least-squares SSE
    and the global optimum returned.  Deterministic by construction.

    The knots mark the SSE-optimal slope changes.  They coincide with
    operating-mode boundaries only where the curve changes slope there;
    the modes themselves are labelled by ``mechanics.classify_mode``.
    """
    if data.kind != "pressure":
        raise ValueError("segment_modes needs pressure-capacitance data")
    n = len(data)
    if n < 12:
        raise ValueError("need at least 12 samples")
    if np.ptp(data.capacitance) == 0.0:
        raise ValueError("degenerate data: capacitance is constant")
    # Normalize for conditioning; knot positions are unaffected.
    p_scale = float(np.max(np.abs(data.abscissa))) or 1.0
    c_shift = float(np.mean(data.capacitance))
    c_scale = float(np.ptp(data.capacitance))
    p = data.abscissa / p_scale
    c = (data.capacitance - c_shift) / c_scale

    triples = _knot_triples(n, min_gap)
    sse_all, coef_all = _batched_sse(p, c, triples)
    pos = int(np.argmin(sse_all))
    i, j, k = (int(v) for v in triples[pos])
    # Re-solve the winning triple unnormalized for exact reporting.
    p = data.abscissa
    c = data.capacitance
    design = _piecewise_design(p, p[i], p[j], p[k])
    coef, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
    sse = float(np.sum((design @ coef - c) ** 2))
    boundaries = (float(p[i]), float(p[j]), float(p[k]))
    slopes = tuple(float(s) for s in np.cumsum(coef[1:]))  # hinge slopes accumulate

    design = _piecewise_design(p, *boundaries)
    fitted = design @ coef
    edges = [0, i, j, k, n]
    r2 = []
    for lo_idx, hi_idx in zip(edges, edges[1:]):
        seg_c = c[lo_idx:hi_idx + 1] if hi_idx < n else c[lo_idx:]
        seg_f = fitted[lo_idx:hi_idx + 1] if hi_idx < n else fitted[lo_idx:]
        tss = float(np.sum((seg_c - seg_c.mean()) ** 2))
        seg_sse = float(np.sum((seg_c - seg_f) ** 2))
        r2.append(1.0 - seg_sse / tss if tss > 0 else 0.0)

    # Knots pinned to the searchable extremes suggest fewer than 4 regimes.
    low_confidence = (i <= min_gap or k >= n - min_gap - 1)
    return ModeSegmentation(boundaries=boundaries, slopes=slopes,
                            r_squared=tuple(r2), sse=sse,
                            low_confidence=low_confidence)


def sensitivity_linearity(data: MeasuredSeries,
                          p_range: tuple[float, float]) -> tuple[float, float]:
    """OLS slope (F/Pa) and R^2 over the samples inside ``p_range``."""
    lo, hi = p_range
    mask = (data.abscissa >= lo) & (data.abscissa <= hi)
    if int(np.sum(mask)) < 3:
        raise ValueError("need at least 3 samples in range")
    p = data.abscissa[mask]
    c = data.capacitance[mask]
    slope, intercept = np.polyfit(p, c, 1)
    resid = c - (slope * p + intercept)
    tss = float(np.sum((c - c.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / tss if tss > 0 else 1.0
    return float(slope), r2


def rise_time(data: MeasuredSeries, low: float = 0.1, high: float = 0.9) -> float:
    """Threshold-to-threshold rise time of a single step response.

    Baseline and plateau are medians over the first and last 10% of
    samples; crossing times are linearly interpolated.  Raises if the step
    amplitude is below 5x the baseline noise.
    """
    if data.kind != "time":
        raise ValueError("rise_time needs time-capacitance data")
    if not 0.0 <= low < high <= 1.0:
        raise ValueError("need 0 <= low < high <= 1")
    t = data.abscissa
    c = data.capacitance
    n = len(c)
    head = max(1, n // 10)
    baseline = float(np.median(c[:head]))
    plateau = float(np.median(c[-head:]))
    amplitude = plateau - baseline
    noise = float(np.std(c[:head]))
    if amplitude <= 5.0 * noise or amplitude <= 0.0:
        raise ValueError("no detectable step")

    def crossing(level: float) -> float:
        above = c >= level
        idx = int(np.argmax(above))
        if idx == 0:
            return float(t[0])
        c0, c1 = c[idx - 1], c[idx]
        frac = (level - c0) / (c1 - c0)
        return float(t[idx - 1] + frac * (t[idx] - t[idx - 1]))

    t_low = crossing(baseline + low * amplitude)
    t_high = crossing(baseline + high * amplitude)
    return t_high - t_low
