"""Fitting, segmentation and timing metrics for measured sensor data.

Reads named float columns of headed CSV files (``csv_columns``, the one
reader behind ``MeasuredSeries.from_csv`` and the CLI's pressure lists).
Fits forward-model parameters to measured capacitance-pressure samples by
bounded Levenberg-Marquardt in numpy alone (one array evaluation of the
model per trial point and per Jacobian column), finds the SSE-optimal
continuous 4-piece linear fit of a measured curve by an exact search over
knot triples, and extracts sensitivity, linearity and 10-90% rise time.
The search splits each triple at its middle knot into two hinged lines,
takes their SSEs and values at the split from two O(n^2) tables, and
scores one first knot at a time (the two SSEs plus the cost of making the
lines meet) in ascending order of a lower bound on its SSE, the same sum
without that cost; it stops at the first knot whose bound cannot beat the
best triple found.  The fit's knots coincide with operating-mode
boundaries only where the curve changes slope there; mode labels come
from ``mechanics.mode_labels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import capacitance as cap
from .materials import line_fit, r_squared
from .mechanics import DeviceGeometry

# Geometry fields adjustable by the fitter, plus a constant parasitic offset.
FIT_PARAM_NAMES = ("gap", "builtin_stress", "dielectric_thickness",
                   "dielectric_rel_permittivity", "parasitic_offset")
# Fewest samples between two segmentation knots, and between a knot and
# either end of the series.
MIN_GAP = 2
# Most samples segment_modes takes.  Its memory grows as n^2, about 72
# bytes per n^2 at peak (tracemalloc): 72 MB at 1000 samples.  The cap
# keeps a long CSV from sizing arrays without bound.
MAX_SEGMENT_SAMPLES = 1000
# The tie width is the SSE of a rounding error of this many ulps in every
# normalized sample.  Knot triples are ordered by the bin of their SSE,
# floor(max(SSE, 0) / tie width), then by knot index, so among triples
# whose SSEs share a bin the smallest first knot wins.  This settles the
# knots of a straight line, which every triple fits exactly: a knot at the
# search edge.  Where several but not all triples fit exactly, their
# computed SSEs differ by rounding (about 1e-16 on the normalized data),
# so the pick among them follows rounding.
SSE_TIE_ULPS = 16
# Damped steps a fit may try before it reports no convergence.
MAX_FIT_ITERATIONS = 100
# Fit stopping rules, on parameters scaled to [0, 1] by their bounds: a
# step that moves no parameter further, or an accepted step that lowers
# the SSE by at most this fraction of it.
FIT_STEP_TOL = 1e-10
FIT_SSE_RTOL = 1e-12
# Forward-difference step of the fit Jacobian in scaled parameters, and
# the Marquardt damping of the first step.
FIT_JACOBIAN_STEP = 1e-7
FIT_DAMPING_START = 1e-3
# Largest magnitude of a measured sample.  Squared differences of samples
# then stay below 4e300, so sums of them over up to 1e7 samples (a fit's
# SSE, a segment's, a baseline's variance) stay in float range.
MAX_SAMPLE_MAGNITUDE = 1e150
# Fractions of the step amplitude between which rise_time is measured.
RISE_LOW = 0.1
RISE_HIGH = 0.9


@dataclass(frozen=True)
class MeasuredSeries:
    """Sampled (pressure, capacitance) or (time, capacitance) data, each
    value finite and at most ``MAX_SAMPLE_MAGNITUDE`` in magnitude."""

    abscissa: np.ndarray
    capacitance: np.ndarray
    kind: str = "pressure"  # "pressure" or "time"

    def __post_init__(self) -> None:
        x = np.asarray(self.abscissa, dtype=float)
        c = np.asarray(self.capacitance, dtype=float)
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "capacitance", c)
        if len(x) != len(c):
            raise ValueError("abscissa and capacitance lengths differ")
        for name, values in (("abscissa", x), ("capacitance", c)):
            bad = np.flatnonzero(~(np.abs(values) <= MAX_SAMPLE_MAGNITUDE))
            if len(bad):
                value = float(values[bad[0]])
                rule = (f"be at most {MAX_SAMPLE_MAGNITUDE:g} in magnitude"
                        if math.isfinite(value) else "be finite")
                raise ValueError(f"{name}[{bad[0]}] must {rule}, got {value}")
        if len(x) >= 2 and np.any(np.diff(x) <= 0):
            raise ValueError("abscissa must be strictly increasing")
        if self.kind not in ("pressure", "time"):
            raise ValueError("kind must be 'pressure' or 'time'")

    def __len__(self) -> int:
        return len(self.abscissa)

    @classmethod
    def from_csv(cls, text: str) -> "MeasuredSeries":
        """Parse a headed CSV with pressure_pa or time_s, and capacitance_f.

        Other columns are ignored.  Raises ValueError naming the line and
        the value of a malformed row.
        """
        names, (x, c) = csv_columns(text, ("pressure_pa", "capacitance_f"),
                                    ("time_s", "capacitance_f"))
        return cls(x, c, kind="pressure" if names[0] == "pressure_pa" else "time")


def csv_columns(text: str, *layouts: tuple[str, ...]) -> tuple[tuple[str, ...], list[np.ndarray]]:
    """Finite float columns of a headed CSV, located by name.

    ``layouts`` are the accepted sets of column names; the first whose
    names all appear in the (case-insensitive) header is read and other
    columns are ignored.  Returns that layout and one array per name.
    Raises ValueError for an empty CSV, a header that matches no layout,
    and a missing, malformed or non-finite field, naming its line and
    value.  A UTF-8 byte-order mark before the header, which spreadsheets
    write, is skipped.
    """
    text = text.removeprefix("\ufeff")
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines:
        raise ValueError("empty CSV")
    header = [h.strip().lower() for h in lines[0][1].split(",")]
    names = next((lay for lay in layouts if set(lay) <= set(header)), None)
    if names is None:
        wanted = " or ".join(",".join(lay) for lay in layouts)
        raise ValueError(f"unrecognized CSV header {lines[0][1]!r}: need columns {wanted}")
    index = [header.index(name) for name in names]
    columns: list[list[float]] = [[] for _ in names]
    for lineno, line in lines[1:]:
        fields = line.split(",")
        for name, col, out in zip(names, index, columns):
            if col >= len(fields):
                raise ValueError(f"line {lineno}: no {name} field in {line!r}")
            try:
                value = float(fields[col])
            except ValueError:
                raise ValueError(
                    f"line {lineno}: {name} {fields[col]!r} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"line {lineno}: {name} must be finite, got {value}")
            out.append(value)
    return names, [np.array(col, dtype=float) for col in columns]


@dataclass(frozen=True)
class FitResult:
    """Calibrated parameters with convergence diagnostics."""

    params: dict[str, float]
    residual_norm: float  # RMS capacitance error, F
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ModeSegmentation:
    """SSE-optimal continuous four-segment linear fit of a measured curve."""

    boundaries: tuple[float, float, float]  # Pa
    slopes: tuple[float, float, float, float]  # F/Pa
    r_squared: tuple[float, float, float, float]  # per segment; 1 with no spread
    sse: float
    low_confidence: bool = False


def apply_params(geom: DeviceGeometry, params: dict[str, float]) -> tuple[DeviceGeometry, float]:
    """Geometry with fit parameters (``FIT_PARAM_NAMES`` only) applied;
    returns (geometry, offset)."""
    offset = params.get("parasitic_offset", 0.0)
    fields = {k: v for k, v in params.items() if k != "parasitic_offset"}
    return replace(geom, **fields), offset


def model_capacitances(geom: DeviceGeometry, pressures: np.ndarray) -> np.ndarray:
    """Forward-model capacitance at each pressure, in one array evaluation.

    Raises ValueError for a negative or non-finite pressure and
    SweepPointError for the first pressure where the model has no value.
    """
    return cap.capacitances(geom, pressures)


def fit_model(data: MeasuredSeries, geom0: DeviceGeometry,
              free_params: list[str],
              bounds: dict[str, tuple[float, float]]) -> FitResult:
    """Fit geometry parameters to measured C-P data.

    Minimizes the sum of squared capacitance errors of the forward model
    by bounded Levenberg-Marquardt (More, LNM 630, 1978; Nocedal & Wright,
    ch. 10) on the parameters scaled to [0, 1] by their bounds:

    - the Jacobian is a forward difference, one array evaluation per free
      column, stepping backward at the upper bound;
    - the damping is Marquardt's diagonal of J^T J, raised tenfold on a
      rejected step and lowered tenfold on an accepted one;
    - each trial point is projected onto the bounds, and a parameter on a
      bound whose gradient points outward is held there.

    The fit has converged when a step moves no scaled parameter by more
    than ``FIT_STEP_TOL`` or lowers the SSE by at most ``FIT_SSE_RTOL`` of
    it, or when every parameter is held; ``converged`` is False only when
    ``MAX_FIT_ITERATIONS`` damped steps were tried first.  Identical
    inputs give identical results.

    A trial point where the model has no value (a ValueError, such as the
    SweepPointError of contact without a dielectric) is rejected, and a
    Jacobian column without one steps the other way; any other error
    propagates.  Raises ValueError, naming the pressure, if the model has
    no value at the starting point.
    """
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

    lo = np.array([bounds[n][0] for n in free_params], dtype=float)
    hi = np.array([bounds[n][1] for n in free_params], dtype=float)
    # Each parameter starts at its geometry field; the offset starts at 0.
    x0 = np.clip([0.0 if n == "parasitic_offset" else getattr(geom0, n)
                  for n in free_params], lo, hi)

    def params_at(z: np.ndarray) -> dict[str, float]:
        # Exact at both bounds: z = 0 gives lo and z = 1 gives hi.
        return dict(zip(free_params, (lo * (1.0 - z) + hi * z).tolist()))

    def residuals(z: np.ndarray) -> np.ndarray:
        geom, offset = apply_params(geom0, params_at(z))
        return model_capacitances(geom, data.abscissa) + offset - data.capacitance

    def trial(z: np.ndarray) -> np.ndarray | None:
        try:
            return residuals(z)
        except ValueError:
            return None

    z = (x0 - lo) / (hi - lo)
    try:
        r = residuals(z)
    except cap.SweepPointError as exc:
        raise ValueError(f"the model has no value at the starting point: "
                         f"P = {exc.pressure} Pa: {exc.cause}") from exc
    sse = float(r @ r)
    damping = FIT_DAMPING_START
    jac = None
    iterations = 0
    converged = False
    while iterations < MAX_FIT_ITERATIONS:
        if jac is None:
            jac = _jacobian(trial, z, r)
            grad = jac.T @ r
            held = ((z <= 0.0) & (grad > 0.0)) | ((z >= 1.0) & (grad < 0.0))
            free = np.flatnonzero(~held)
            if not len(free):
                converged = True
                break
            scale = np.sqrt(np.einsum("ij,ij->j", jac[:, free], jac[:, free]))
        # Damped Gauss-Newton step: min |J d + r|^2 + damping |diag(J^T J)^(1/2) d|^2.
        system = np.vstack([jac[:, free], np.diag(np.sqrt(damping) * scale)])
        rhs = np.concatenate([-r, np.zeros(len(free))])
        step = np.zeros_like(z)
        step[free] = np.linalg.lstsq(system, rhs, rcond=None)[0]
        z_new = np.clip(z + step, 0.0, 1.0)
        if np.max(np.abs(z_new - z)) <= FIT_STEP_TOL:
            converged = True
            break
        iterations += 1
        r_new = trial(z_new)
        sse_new = float(r_new @ r_new) if r_new is not None else math.inf
        if sse_new < sse:
            drop = sse - sse_new
            z, r, sse = z_new, r_new, sse_new
            jac = None
            damping /= 10.0
            if drop <= FIT_SSE_RTOL * (sse + drop):
                converged = True
                break
        else:
            damping *= 10.0

    return FitResult(params=params_at(z),
                     residual_norm=float(np.sqrt(sse / len(r))),
                     iterations=iterations, converged=converged)


def _jacobian(trial, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian of the residuals in scaled parameters.

    Column j steps z_j by ``FIT_JACOBIAN_STEP``, backward at the upper
    bound or where the forward point has no model value; a column with no
    value either way is zero, which leaves that parameter unmoved.
    """
    jac = np.zeros((len(r), len(z)))
    for j in range(len(z)):
        for step in (FIT_JACOBIAN_STEP, -FIT_JACOBIAN_STEP):
            moved = z.copy()
            moved[j] += step
            if not 0.0 <= moved[j] <= 1.0:
                continue
            r_step = trial(moved)
            if r_step is not None:
                jac[:, j] = (r_step - r) / (moved[j] - z[j])
                break
    return jac


def _piecewise_design(p: np.ndarray, b1: float, b2: float, b3: float) -> np.ndarray:
    """Design matrix of a continuous 4-piece linear spline with knots b1<b2<b3."""
    return np.column_stack([
        np.ones_like(p), p,
        np.maximum(p - b1, 0.0),
        np.maximum(p - b2, 0.0),
        np.maximum(p - b3, 0.0),
    ])


def _hinge_tables(p: np.ndarray, c: np.ndarray,
                  past: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row j, column m: the least-squares line hinged at p_m, fitted to
    samples 0..j, for every j < n - past; O(n^2) time and memory.  Returns
    its SSE, its value v at the anchor x = p[j + past], and s = x.G^-1 x
    there, G the normal matrix.  The SSE is inf where the hinge is fewer
    than ``MIN_GAP`` samples before the anchor.

    With u = p - p_m, the basis (min(u, 0), max(u, 0), 1) spans
    [1, p, h_m], and its first two columns are orthogonal, so the normal
    matrix is [[L2, 0, L1], [0, R2, R1], [L1, R1, j + 1]].  Its left-piece
    entries (samples 0..m) come per m from prefix sums of p and p^2; with
    p_0 = 0 <= p their rounding is O(n eps) relative to L2 >= p_m^2.  Its
    right-piece entries (samples m+1..j) are running sums along the hinge
    h_m itself, so they keep their relative accuracy however close the
    samples are to p_m.  Its Cholesky factor L gives z = L^-1 X.c and
    y = L^-1 (0, x - p_m, 1) elementwise: the SSE is c.c - z.z, v = y.z
    and s = y.y.  The last pivot is at least 1 in exact arithmetic, since
    sample m is 1 in the third column and 0 in the others; an entry whose
    pivot rounding leaves non-positive is NaN.
    """
    n = len(p)
    rows = n - past
    count = np.arange(1.0, n + 1.0)
    sp, spp, sc, spc, scc = (np.cumsum(f) for f in (p, p * p, c, p * c, c * c))
    with np.errstate(invalid="ignore", divide="ignore"):
        # Left piece, samples 0..m, per m, as a column.
        a = np.sqrt(spp - p * (2.0 * sp - p * count))
        z1 = ((spc - p * sc) / a)[:, None]
        e1 = ((sp - p * count) / a)[:, None]
        # Right piece, samples m+1..j, per (m, j), from running sums of h_m
        # along contiguous rows; the tables are returned transposed to [j, m].
        # (Each n x n array is deleted once used, to keep the peak down.)
        h = np.maximum(p[:rows] - p[:, None], 0.0)
        b = np.sqrt(np.cumsum(h * h, axis=1))
        e2 = np.cumsum(h, axis=1) / b
        z2 = np.cumsum(h * c[:rows], axis=1) / b
        del h
        d = np.sqrt(count[:rows] - e1 * e1 - e2 * e2)
        z3 = (sc[:rows] - e1 * z1 - e2 * z2) / d
        y2 = (p[past:] - p[:, None]) / b
        del b
        e2 *= y2  # y3 = (1 - e2 y2) / d, without a further n x n temporary
        y3 = (1.0 - e2) / d
        del e2, d
        v = y2 * z2 + y3 * z3
        y2 *= y2
        y3 *= y3
        s = y2 + y3
        del y2, y3
        sse = scc[:rows] - z1 * z1 - z2 * z2 - z3 * z3
    sse[np.arange(n)[:, None] > np.arange(rows) + (past - MIN_GAP)] = np.inf
    return sse.T, v.T, s.T


def _knot_tables(p: np.ndarray, c: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """The two hinge tables every knot triple is scored from.

    Split at its middle knot p_j, the spline with knots (i, j, k) is a line
    hinged at p_i on samples 0..j and a line hinged at p_k on samples
    j+1..n-1 that meet at p_j.  Returns (A, vA, sA) indexed [j, i] for the
    left piece and (B, vB, sB) indexed [j, k] for the right, each fitted
    alone, with its value at p_j and s there (see ``_hinge_tables``).  B
    is the table of the reversed series p_{n-1} - p: hinge k there has
    index n-1-k, samples j+1..n-1 are samples 0..n-2-j, and p_j is one
    sample past them.  Expects p_0 = 0 <= p.  c is first replaced by its
    residual off its ``line_fit`` line, in [1, p], which every piece spans;
    the SSEs are unchanged and the prefix sums smaller.
    """
    slope, intercept, _ = line_fit(p, c)
    c = c - (slope * p + intercept)
    right = _hinge_tables(p[-1] - p[::-1], c[::-1], 1)
    return _hinge_tables(p, c, 0), tuple(t[::-1, ::-1] for t in right)


def _score_first_knot(tables: tuple[tuple[np.ndarray, ...], ...],
                      i: int) -> tuple[float, int, int]:
    """Least SSE over every admissible (j, k) with first knot i, and its j, k.

    A least-squares fit held to a value at one point costs its free SSE
    plus (value - v)^2 / s, so holding the two pieces of ``_knot_tables``
    to one value at p_j gives SSE(i, j, k) = A + B + (vA - vB)^2 / (sA + sB),
    elementwise over (j, k) in O(n^2) time and memory.  A NaN scores inf.
    Among equal SSEs the smallest j, then k, wins.
    """
    (a, va, sa), (b, vb, sb) = tables
    n = b.shape[1]
    js = slice(i + MIN_GAP, n - 2 * MIN_GAP)
    ks = slice(i + 2 * MIN_GAP, n - MIN_GAP)
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = vb[js, ks] - va[js, i, None]
        cost *= cost
        den = sb[js, ks] + sa[js, i, None]
        cost /= den
        sse = np.add(b[js, ks], a[js, i, None], out=den)  # inf where k < j + MIN_GAP
        sse += cost
    sse[np.isnan(sse)] = np.inf
    a_pos, b_pos = divmod(int(np.argmin(sse)), sse.shape[1])
    return float(sse[a_pos, b_pos]), i + MIN_GAP + a_pos, i + 2 * MIN_GAP + b_pos


def _first_knot_bounds(tables: tuple[tuple[np.ndarray, ...], ...]) -> np.ndarray:
    """LB[i] <= the SSE ``_score_first_knot`` gives first knot i.

    LB[i] is the least A + B over its admissible (j, k): the score without
    its non-negative continuity term, so the bound holds in floating point
    by construction.  A NaN bound is -inf.  Only the entries of admissible
    first knots, ``MIN_GAP`` to n - 1 - 3 ``MIN_GAP``, mean anything.
    """
    (a, _, _), (b, _, _) = tables
    n = b.shape[1]
    b_min = b[:, :n - MIN_GAP].min(axis=1)[:n - 2 * MIN_GAP, None]
    with np.errstate(invalid="ignore"):
        lower = (a[:n - 2 * MIN_GAP] + b_min).min(axis=0)
    lower[np.isnan(lower)] = -np.inf
    return lower


def _search_keys(n: int, sse, *knots) -> list[tuple]:
    """The knot search's keys (bin, *knots), elementwise.  The bin of an
    SSE, or of a lower bound on one, over n normalized samples is
    floor(max(SSE, 0) / tie), tie = n (``SSE_TIE_ULPS`` eps)^2, or inf
    where that is not finite (numpy gives NaN for inf // tie)."""
    tie = n * (SSE_TIE_ULPS * np.finfo(float).eps) ** 2  # c spans a unit range
    sse = np.maximum(np.atleast_1d(sse), 0.0)
    bins = np.floor_divide(sse, tie, out=np.full_like(sse, np.inf), where=np.isfinite(sse))
    return list(zip(bins.tolist(), *knots))


def _best_knots(p: np.ndarray, c: np.ndarray) -> tuple[int, int, int]:
    """Knot indices (i, j, k) of the least-squares hinge fit, searched exactly.

    Each first knot i gets the triple of its least SSE from
    ``_score_first_knot``, O(n^2) each, and the least key (bin of SSE, i,
    j, k) from ``_search_keys`` wins.  First knots are scored in ascending
    order of (bin of lower bound, i), the bounds from ``_first_knot_bounds``.
    A bound's bin is never above its SSE's, so the search stops at the
    first of these pairs above the best key's (bin, i).  Time is O(n^2)
    for the tables plus O(n^2) per first knot scored: one or two on a
    curve with well-separated slope changes, one on a line.
    """
    n = len(p)
    tables = _knot_tables(p, c)
    bounds = _first_knot_bounds(tables)[MIN_GAP:n - 3 * MIN_GAP]
    best = (math.inf, math.inf)  # above every key: the first knot queued is scored
    for bound_bin, i in sorted(_search_keys(n, bounds, range(MIN_GAP, n - 3 * MIN_GAP))):
        if (bound_bin, i) > best[:2]:
            break
        sse, j, k = _score_first_knot(tables, i)
        best = min(best, *_search_keys(n, sse, [i], [j], [k]))
    return best[1:]


def segment_modes(data: MeasuredSeries) -> ModeSegmentation:
    """Best continuous 4-piece linear fit over every admissible knot triple.

    Knots are restricted to sample abscissae with at least ``MIN_GAP``
    samples between them and the ends; the search returns the global
    least-squares optimum in O(n^2) memory (see ``_best_knots``), so a
    series longer than ``MAX_SEGMENT_SAMPLES`` is a ValueError.  Its
    time is O(n^2) for the tables and first-knot lower bounds plus O(n^2)
    per first knot scored.  Deterministic by construction.

    The knots mark the SSE-optimal slope changes.  They coincide with
    operating-mode boundaries only where the curve changes slope there;
    the points of a sweep are labelled by ``mechanics.mode_labels``.
    """
    if data.kind != "pressure":
        raise ValueError("segment_modes needs pressure-capacitance data")
    n = len(data)
    if n < 12:
        raise ValueError("need at least 12 samples")
    if n > MAX_SEGMENT_SAMPLES:
        raise ValueError(f"segmentation takes at most {MAX_SEGMENT_SAMPLES} "
                         f"samples, got {n}")
    if np.ptp(data.capacitance) == 0.0:
        raise ValueError("degenerate data: capacitance is constant")
    # Normalize for conditioning; knot positions are unaffected.  Pressures
    # are shifted as well as scaled: the hinge space is shift-invariant, but
    # prefix sums of p^2 and the [1, p] columns of the re-solve are not.
    p, c = data.abscissa, data.capacitance
    q = p - p[0]
    i, j, k = _best_knots(q / q[-1], (c - float(np.mean(c))) / float(np.ptp(c)))
    # Re-solve the winning triple unscaled for exact reporting.
    design = _piecewise_design(q, q[i], q[j], q[k])
    coef, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
    fitted = design @ coef
    sse = float(np.sum((fitted - c) ** 2))
    boundaries = (float(p[i]), float(p[j]), float(p[k]))
    slopes = tuple(float(s) for s in np.cumsum(coef[1:]))  # hinge slopes accumulate

    edges = [0, i, j, k, n]
    r2 = tuple(r_squared(c[lo:hi + 1], fitted[lo:hi + 1])
               for lo, hi in zip(edges, edges[1:]))

    # Knots pinned to the searchable extremes suggest fewer than 4 regimes.
    low_confidence = (i <= MIN_GAP or k >= n - MIN_GAP - 1)
    return ModeSegmentation(boundaries=boundaries, slopes=slopes,
                            r_squared=r2, sse=sse,
                            low_confidence=low_confidence)


def sensitivity_linearity(data: MeasuredSeries,
                          p_range: tuple[float, float]) -> tuple[float, float]:
    """OLS slope (F/Pa) and R^2 over the samples inside ``p_range``."""
    lo, hi = p_range
    mask = (data.abscissa >= lo) & (data.abscissa <= hi)
    if int(np.sum(mask)) < 3:
        raise ValueError("need at least 3 samples in range")
    slope, _, r2 = line_fit(data.abscissa[mask], data.capacitance[mask])
    return slope, r2


def rise_time(data: MeasuredSeries) -> float:
    """10-90% rise time of a single step response.

    Baseline and plateau are medians over the first and last 10% of
    samples.  The 90% crossing is at the first sample at or above that
    level; the 10% crossing is at the last sample below that level before
    it, so noise before the step cannot stand in for the step.  Both are
    linearly interpolated to the next sample.  Raises if the step
    amplitude is below 5x the baseline noise.
    """
    if data.kind != "time":
        raise ValueError("rise_time needs time-capacitance data")
    if len(data) < 2:
        raise ValueError("need at least 2 samples")
    t, c = data.abscissa, data.capacitance
    n = len(c)
    head = max(1, n // 10)
    baseline = float(np.median(c[:head]))
    plateau = float(np.median(c[-head:]))
    amplitude = plateau - baseline
    noise = float(np.std(c[:head]))
    if amplitude <= 5.0 * noise or amplitude <= 0.0:
        raise ValueError("no detectable step")

    def crossing(idx: int, level: float) -> float:
        # The level is crossed between samples idx - 1 and idx.
        if idx == 0:
            return float(t[0])
        c0, c1 = c[idx - 1], c[idx]
        frac = (level - c0) / (c1 - c0)
        return float(t[idx - 1] + frac * (t[idx] - t[idx - 1]))

    high = baseline + RISE_HIGH * amplitude
    low = baseline + RISE_LOW * amplitude
    i_high = int(np.argmax(c >= high))
    below = np.flatnonzero(c[:i_high] < low)
    i_low = int(below[-1]) + 1 if len(below) else 0
    return crossing(i_high, high) - crossing(i_low, low)
