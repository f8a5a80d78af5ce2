"""Similarity laws of the model, checked bit for bit.

Scaling every length of a device (radius, gap, dielectric and layer
thicknesses) by lambda scales the center deflection, the capacitance and
the plate solve's deflection by lambda, and leaves the mode labels and
the von Mises stress unchanged.  Scaling every Young's modulus, the
built-in stress and the pressure by mu leaves the deflections, the mode
labels and the capacitance unchanged.  A power of two scales a float
without rounding, and the scaled device then hands the same dimensionless
arguments to the same numpy kernels, so with lambda = mu = 2^k these
laws hold exactly, whichever SIMD or BLAS kernels the host dispatches to,
wherever no value is subnormal (a subnormal loses bits when scaled down).
A term with a wrong exponent (R^2 where R^4 belongs, h where h^2 belongs)
breaks them, and no golden file rewritten on the same host would.
Dimensional analysis: Buckingham, Phys. Rev. 4 (1914).

The fit inherits both laws when its data and bounds scale with the
device: the capacitances and the bounds of gap, dielectric_thickness and
parasitic_offset by lambda, or the pressures and the bounds of
builtin_stress by mu.  The parameters fit_model iterates on, scaled to
[0, 1] by their bounds, are then the same numbers, so Levenberg-Marquardt
takes the same steps: the fitted values and the RMS scale exactly, and
the iteration count is unchanged.

Mode segmentation is equivariant: it normalizes pressures and
capacitances before its knot search, so scaling them by powers of two
lambda and mu scales the knots by exactly lambda, and a constant added to
every capacitance leaves them unchanged.  Its SSE comes from a
least-squares re-solve on the unnormalized data, so it scales by mu^2
only to rounding.
"""

from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_calibration import CLI_FREE_SETS
from touchcap import calibration as cal, capacitance as cap, mechanics, plate_fd
from touchcap.calibration import MeasuredSeries
from touchcap.config import load_config
from touchcap.materials import Laminate

CONFIG = load_config()
PROFILES = sorted(CONFIG.profiles)
POWERS = st.integers(-10, 10).map(lambda k: 2.0**k)
GRID = plate_fd.RadialGrid(201)
# A fraction of the pressure span, 0 or far enough above it that every
# deflection and stress is a normal float.
FRACTIONS = st.just(0.0) | st.floats(1e-100, 1.0)


def pressures(geom, extra: float) -> np.ndarray:
    """241 pressures from 0 to 60 kPa plus ``extra`` of that span; on a
    profile without a dielectric, within 0.99 of its touch onset instead,
    since the model has no capacitance after contact there."""
    top = 60e3
    if geom.dielectric_thickness == 0.0:
        top = min(top, 0.99 * oracles.touch_onset_pressure(geom))
    return np.append(np.linspace(0.0, top, 241), extra * top)


def labels(geom, p: np.ndarray) -> np.ndarray:
    w0 = mechanics.large_deflection_center(geom, p)
    return mechanics.mode_labels(geom, w0, mechanics.contact_edge_u(geom, w0),
                                 CONFIG.thresholds)


def scaled_lengths(geom, lam: float):
    layers = tuple(replace(layer, thickness=layer.thickness * lam)
                   for layer in geom.laminate.layers)
    return replace(geom, radius=geom.radius * lam, gap=geom.gap * lam,
                   dielectric_thickness=geom.dielectric_thickness * lam,
                   laminate=Laminate(layers))


def scaled_moduli(geom, mu: float):
    layers = tuple(replace(layer, youngs_modulus=layer.youngs_modulus * mu)
                   for layer in geom.laminate.layers)
    return replace(geom, builtin_stress=geom.builtin_stress * mu,
                   laminate=Laminate(layers))


@settings(max_examples=40)
@given(st.sampled_from(PROFILES), POWERS, FRACTIONS)
def test_length_scaling(profile, lam, extra):
    geom = CONFIG.geometry(profile)
    big = scaled_lengths(geom, lam)
    p = pressures(geom, extra)
    assert np.array_equal(mechanics.large_deflection_center(big, p),
                          lam * mechanics.large_deflection_center(geom, p))
    assert np.array_equal(cap.capacitances(big, p), lam * cap.capacitances(geom, p))
    assert np.array_equal(labels(big, p), labels(geom, p))
    sol, big_sol = (plate_fd.solve_plate(g, float(p[-1]), GRID) for g in (geom, big))
    assert np.array_equal(big_sol.deflection, lam * sol.deflection)
    assert np.array_equal(big_sol.von_mises, sol.von_mises)


@settings(max_examples=40)
@given(st.sampled_from(PROFILES), POWERS, FRACTIONS)
def test_stiffness_scaling(profile, mu, extra):
    geom = CONFIG.geometry(profile)
    stiff = scaled_moduli(geom, mu)
    p = pressures(geom, extra)
    assert np.array_equal(mechanics.large_deflection_center(stiff, mu * p),
                          mechanics.large_deflection_center(geom, p))
    assert np.array_equal(cap.capacitances(stiff, mu * p), cap.capacitances(geom, p))
    assert np.array_equal(labels(stiff, mu * p), labels(geom, p))
    sol, stiff_sol = (plate_fd.solve_plate(g, float(q[-1]), GRID)
                      for g, q in ((geom, p), (stiff, mu * p)))
    assert np.array_equal(stiff_sol.deflection, sol.deflection)


FIT_SERIES = MeasuredSeries.from_csv(
    resources.files("touchcap.data").joinpath("synthetic_fit.csv").read_text())
# The fit parameters that are lengths, with the capacitance offset, which
# scales as a capacitance does.
LENGTH_PARAMS = ("gap", "dielectric_thickness", "parasitic_offset")


def scaled_params(params: dict, names, factor: float) -> dict:
    """``params`` (values or bound pairs) with those in ``names`` scaled."""
    return {name: (np.multiply(factor, value).tolist() if name in names else value)
            for name, value in params.items()}


@settings(max_examples=40)
@given(st.sampled_from(CLI_FREE_SETS), POWERS)
def test_fit_length_scaling(free, lam):
    geom = CONFIG.geometry()
    base = cal.fit_model(FIT_SERIES, geom, list(free), CONFIG.fit_bounds)
    big = cal.fit_model(MeasuredSeries(FIT_SERIES.abscissa, lam * FIT_SERIES.capacitance),
                        scaled_lengths(geom, lam), list(free),
                        scaled_params(CONFIG.fit_bounds, LENGTH_PARAMS, lam))
    assert big.params == scaled_params(base.params, LENGTH_PARAMS, lam)
    assert big.residual_norm == lam * base.residual_norm
    assert big.iterations == base.iterations


@settings(max_examples=40)
@given(st.sampled_from(CLI_FREE_SETS), POWERS)
def test_fit_stiffness_scaling(free, mu):
    geom = CONFIG.geometry()
    base = cal.fit_model(FIT_SERIES, geom, list(free), CONFIG.fit_bounds)
    stiff = cal.fit_model(MeasuredSeries(mu * FIT_SERIES.abscissa, FIT_SERIES.capacitance),
                          scaled_moduli(geom, mu), list(free),
                          scaled_params(CONFIG.fit_bounds, ("builtin_stress",), mu))
    assert stiff.params == scaled_params(base.params, ("builtin_stress",), mu)
    assert stiff.residual_norm == base.residual_norm
    assert stiff.iterations == base.iterations


def noisy_sweep(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pressures from 0 to 60 kPa on ``default`` and their
    capacitances with Gaussian noise of 1e-3 of the capacitance span."""
    p = np.linspace(0.0, 60e3, n)
    c = cap.capacitances(CONFIG.geometry(), p)
    return p, c + 1e-3 * np.ptp(c) * np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=40)
@given(st.integers(40, 200), st.integers(0, 2**32 - 1), POWERS, POWERS)
def test_segmentation_scaling(n, seed, lam, mu):
    p, c = noisy_sweep(n, seed)
    seg = cal.segment_modes(MeasuredSeries(p, c))
    scaled = cal.segment_modes(MeasuredSeries(lam * p, mu * c))
    shifted = cal.segment_modes(MeasuredSeries(p, c + 1e-12))
    assert scaled.boundaries == tuple(lam * b for b in seg.boundaries)
    assert shifted.boundaries == seg.boundaries
    assert scaled.low_confidence == shifted.low_confidence == seg.low_confidence
    # lstsq's rounding does not scale exactly: 1e-12 is about 80 times the
    # largest deviation seen in 300 seeded series (1.2e-14).
    assert scaled.sse == pytest.approx(mu * mu * seg.sse, rel=1e-12)
