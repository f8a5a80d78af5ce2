"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single CRITERION line with its verdict; run with
``pytest -v tests/test_acceptance.py`` for the per-criterion pass/fail
report.  Tolerances are stated inline next to each assertion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from touchcap import calibration as cal
from touchcap import capacitance as cap
from touchcap import mechanics, plate_fd
from touchcap.cli import main as cli_main
from touchcap.mechanics import DeflectionState, DeviceGeometry
from touchcap.servo import servo_angle

import oracles


def report(n, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {n}: {verdict} {detail}".rstrip())
    return ok


def test_criterion_01_fd_matches_analytic(scaled_geometry):
    """201-node FD center deflection within 1% of the closed form,
    convergence order >= 1.8 across [51, 101, 201], under 5 s."""
    start = time.perf_counter()
    rows = plate_fd.convergence_study(scaled_geometry, 10e3, [51, 101, 201])
    elapsed = time.perf_counter() - start
    orders = plate_fd.observed_orders(rows)
    ok = (rows[-1].relative_error < 0.01
          and all(o >= 1.8 for o in orders)
          and elapsed < 5.0)
    assert report(1, ok,
                  f"(finest error {rows[-1].relative_error:.2e}, "
                  f"orders {[f'{o:.2f}' for o in orders]}, {elapsed:.2f} s)")


def test_criterion_02_stress_and_deflection_locations(scaled_geometry):
    """Max von Mises in the outermost 5% of radius, max deflection at
    r = 0, for 5 pressures spanning 2-10 kPa."""
    grid = plate_fd.RadialGrid(201)
    ok = True
    for p in np.linspace(2e3, 10e3, 5):
        sol = plate_fd.solve_plate(scaled_geometry, float(p), grid)
        ok &= sol.max_von_mises[1] >= 0.95 * scaled_geometry.radius
        ok &= int(np.argmax(np.abs(sol.deflection))) == 0
    assert report(2, ok)


def test_criterion_03_deflection_linearity(scaled_geometry):
    """FD center deflection vs. pressure over 2-10 kPa: R^2 >= 1 - 1e-9."""
    grid = plate_fd.RadialGrid(201)
    lin = plate_fd.linearity_check(
        scaled_geometry, [float(p) for p in np.linspace(2e3, 10e3, 5)], grid)
    ok = lin.r_squared >= 1.0 - 1e-9
    assert report(3, ok, f"(R^2 = {lin.r_squared:.15f})")


def test_criterion_04_capacitance_oracle_equivalence(default_laminate):
    """Closed form vs. adaptive quadrature within 1e-9 relative on 50
    randomized geometry/deflection cases, under 2 s."""
    rng = np.random.default_rng(42)
    lam = default_laminate
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        gap = float(rng.uniform(50e-6, 800e-6))
        geom = DeviceGeometry(
            radius=float(rng.uniform(1e-3, 2e-2)), laminate=lam, gap=gap,
            dielectric_thickness=float(rng.uniform(0.0, 0.2)) * gap,
            dielectric_rel_permittivity=float(rng.uniform(1.5, 8.0)))
        w0 = float(rng.uniform(0.01, 0.95)) * geom.electrical_gap
        closed = cap.normal_mode_capacitance(
            geom, DeflectionState(pressure=0.0, center_deflection=w0))
        quad = oracles.normal_mode_capacitance_quadrature(geom, w0)
        worst = max(worst, abs(closed - quad) / quad)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 2.0
    assert report(4, ok, f"(worst {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_05_touch_onset_continuity(default_geometry):
    """Normal and touch capacitance paths agree within 1e-6 relative at
    the onset pressure, located by bisection to 1e-12 on W0 = g."""
    geom = default_geometry
    g = geom.travel
    lo, hi = 0.0, 1e6
    assert mechanics.large_deflection_center(geom, hi) > g
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mechanics.large_deflection_center(geom, mid) < g:
            lo = mid
        else:
            hi = mid
    p_onset = 0.5 * (lo + hi)
    below = cap.capacitance_at(geom, p_onset * (1.0 - 1e-12))
    above = cap.capacitance_at(geom, p_onset * (1.0 + 1e-12))
    rel = abs(above - below) / below
    ok = rel < 1e-6
    assert report(5, ok, f"(onset {p_onset:.1f} Pa, jump {rel:.2e})")


def test_criterion_06_large_deflection_solver(default_laminate):
    """Implicit-equation residual < 1e-12 relative on 100 random cases;
    small-deflection agreement within 0.1% in the linear regime."""
    rng = np.random.default_rng(3)
    lam = default_laminate
    ok = True
    worst = 0.0
    for _ in range(100):
        geom = DeviceGeometry(
            radius=float(rng.uniform(1e-4, 2e-2)), laminate=lam,
            gap=float(rng.uniform(50e-6, 800e-6)),
            builtin_stress=float(rng.uniform(0.0, 5e7)))
        p = float(rng.uniform(1.0, 80e3))
        w = mechanics.large_deflection_center(geom, p)
        q = p * geom.radius**4 / (64.0 * geom.flexural_rigidity)
        s = (geom.builtin_stress * geom.thickness * geom.radius**2
             / (16.0 * geom.flexural_rigidity))
        resid = abs(w * (1.0 + mechanics.STIFFENING_COEFF
                         * (w / geom.thickness) ** 2 + s) - q) / q
        worst = max(worst, resid)
        if mechanics.STIFFENING_COEFF * (w / geom.thickness) ** 2 < 1e-5:
            small = oracles.small_deflection_center(geom, p)
            ok &= abs(w - small) / small < 1e-3
    ok &= worst < 1e-12
    assert report(6, ok, f"(worst residual {worst:.2e})")


def _mode_boundary(geom, thresholds, lo, hi, mode):
    """Bisect [lo, hi] to 1 Pa for the pressure where classify_mode first
    reports ``mode`` or a later one."""
    while hi - lo > 1.0:
        mid = 0.5 * (lo + hi)
        if mechanics.classify_mode(geom, mid, thresholds) >= mode:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_07_mode_segmentation(default_geometry, config):
    """Mode segmentation of the calibrated default device's 0-60 kPa model
    sweep: boundaries within 2 kPa of 8/10/40 kPa, and the touch
    segment's linear-fit R^2 strictly above the normal segment's.

    The boundaries are where the sweep's mode labels change (set by
    ``classify_mode`` under the config thresholds), each refined to 1 Pa
    by bisection so the result does not depend on the 1 kPa grid.
    ``segment_modes`` knots are printed for the record only: it returns
    the SSE-optimal continuous 4-piece linear fit, and the smooth contact
    model has no slope change at 10 or 40 kPa for a knot to find.
    """
    geom, th = default_geometry, config.thresholds
    pressures = [float(p) for p in np.arange(0.0, 60e3 + 1.0, 1e3)]
    curve = cap.sweep_cp_curve(geom, pressures, th)
    modes = [pt.mode for pt in curve.points]
    boundaries = []
    for mode in (mechanics.OperatingMode.TRANSITION,
                 mechanics.OperatingMode.TOUCH,
                 mechanics.OperatingMode.SATURATION):
        k = next((i for i, m in enumerate(modes) if m >= mode), None)
        if k is None:  # mode never reached; modes[0] is always NORMAL
            boundaries.append(math.nan)
        else:
            boundaries.append(_mode_boundary(geom, th, pressures[k - 1],
                                             pressures[k], mode))

    targets = (8e3, 10e3, 40e3)
    deltas = [abs(b - t) for b, t in zip(boundaries, targets)]
    boundaries_ok = all(d <= 2e3 for d in deltas)

    # Linearity contrast over the stated mode ranges: touch 10-40 kPa,
    # normal 1-8 kPa.
    data = cal.MeasuredSeries(np.array(curve.pressures()),
                              np.array(curve.capacitances()))
    _, r2_touch = cal.sensitivity_linearity(data, (10e3, 40e3))
    _, r2_normal = cal.sensitivity_linearity(data, (1e3, 8e3))
    r2_ok = r2_touch > r2_normal

    knots = cal.segment_modes(data).boundaries
    ok = boundaries_ok and r2_ok
    report(7, ok,
           f"(boundaries {[f'{b / 1e3:.3f}' for b in boundaries]} kPa "
           f"vs 8/10/40 +-2; touch R^2 {r2_touch:.4f} "
           f"{'>' if r2_ok else '<='} normal R^2 {r2_normal:.4f}; "
           f"segment_modes knots {[f'{b / 1e3:.0f}' for b in knots]} kPa)")
    assert r2_ok, "touch-segment linearity must beat the normal segment"
    assert boundaries_ok, (
        f"mode boundaries {boundaries} not within 2 kPa of "
        f"(8000, 10000, 40000)")


def test_criterion_08_calibration_recovery(default_geometry, config):
    """Noiseless gap fit recovers within 0.1%; with 1% noise over 20
    seeds the median relative gap error is at most 5%; under 30 s."""
    start = time.perf_counter()
    true_gap = 4.1e-4
    truth = replace(default_geometry, gap=true_gap)
    p = np.linspace(500.0, 8e3, 10)
    clean = cal.model_capacitances(truth, p)

    noiseless = cal.fit_model(cal.MeasuredSeries(p, clean), default_geometry,
                              ["gap"], config.fit_bounds)
    clean_err = abs(noiseless.params["gap"] - true_gap) / true_gap

    errs = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(len(p)))
        result = cal.fit_model(cal.MeasuredSeries(p, noisy), default_geometry,
                               ["gap"], config.fit_bounds)
        errs.append(abs(result.params["gap"] - true_gap) / true_gap)
    median_err = float(np.median(errs))
    elapsed = time.perf_counter() - start
    ok = clean_err < 1e-3 and median_err <= 0.05 and elapsed < 30.0
    assert report(8, ok,
                  f"(noiseless {clean_err:.2e}, noisy median "
                  f"{median_err:.2e}, {elapsed:.1f} s)")


def test_criterion_09_rise_time():
    """Constructed 1 kHz step with a 15.85 ms 10-90% span and 0.36 pF
    amplitude measures 15.85 +- 1 ms; densely sampled first-order
    response yields tau ln 9 within 1%."""
    tau = 15.85e-3 / math.log(9.0)

    def step(fs):
        t = np.arange(-0.05, 0.25, 1.0 / fs)
        c = np.where(t < 0.0, 5e-12,
                     5e-12 + 0.36e-12 * (1.0 - np.exp(-np.maximum(t, 0.0) / tau)))
        return cal.MeasuredSeries(t, c, kind="time")

    measured = cal.rise_time(step(1e3))
    dense = cal.rise_time(step(200e3))
    ok = (abs(measured - 15.85e-3) <= 1e-3
          and abs(dense - tau * math.log(9.0)) / (tau * math.log(9.0)) < 0.01)
    assert report(9, ok, f"(1 kHz: {measured * 1e3:.2f} ms, "
                         f"dense: {dense * 1e3:.3f} ms)")


def test_criterion_10_servo_map(config):
    """Affine pressure-to-angle map: 10 kPa -> 0, 25 kPa -> 45,
    40 kPa -> 90, clamped outside; exact in floating point."""
    sm = config.servo
    ok = (servo_angle(sm, 10e3) == 0.0
          and servo_angle(sm, 25e3) == 45.0
          and servo_angle(sm, 40e3) == 90.0
          and servo_angle(sm, 5e3) == 0.0
          and servo_angle(sm, 60e3) == 90.0)
    assert report(10, ok)


def test_criterion_11_sweep_determinism(tmp_path):
    """Repeated sweep runs on the default config write byte-identical
    CSV and JSON outputs."""
    runner = CliRunner()
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        result = runner.invoke(cli_main, ["--quiet", "sweep",
                                          "--output", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out.read_bytes(),
                        (tmp_path / f"{name}.json").read_bytes()))
    ok = outputs[0] == outputs[1]
    assert report(11, ok)
