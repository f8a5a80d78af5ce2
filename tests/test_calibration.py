import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from touchcap import calibration as cal, capacitance as cap, mechanics
from touchcap.calibration import MeasuredSeries

# The free-parameter sets the CLI benchmark fits to the bundled series.
CLI_FREE_SETS = (("gap",), ("builtin_stress",), ("dielectric_rel_permittivity",),
                 ("gap", "builtin_stress"), ("gap", "parasitic_offset"),
                 ("gap", "dielectric_thickness"),
                 ("gap", "dielectric_rel_permittivity"))


@pytest.fixture(scope="module")
def bundled_series():
    text = resources.files("touchcap.data").joinpath("synthetic_fit.csv").read_text()
    return MeasuredSeries.from_csv(text)


def nelder_mead_fit(data, geom0, free_params, bounds):
    """Oracle: scipy's Nelder-Mead on the RMS error, clamped to the bounds.

    Returns the parameters and the RMS error at them.
    """
    from scipy import optimize

    start = {"gap": geom0.gap, "builtin_stress": geom0.builtin_stress,
             "dielectric_thickness": geom0.dielectric_thickness,
             "dielectric_rel_permittivity": geom0.dielectric_rel_permittivity,
             "parasitic_offset": 0.0}
    lo = np.array([bounds[n][0] for n in free_params])
    hi = np.array([bounds[n][1] for n in free_params])
    x0 = np.clip([start[n] for n in free_params], lo, hi)

    def rms(x):
        params = dict(zip(free_params, np.clip(x, lo, hi)))
        geom, offset = cal.apply_params(geom0, params)
        try:
            model = cal.model_capacitances(geom, data.abscissa) + offset
        except ValueError:
            return np.inf
        return float(np.sqrt(np.mean((model - data.capacitance) ** 2)))

    simplex = [x0]
    for k in range(len(free_params)):
        vertex = x0.copy()
        step = 0.05 * (hi[k] - lo[k])
        vertex[k] += step if vertex[k] + step <= hi[k] else -step
        simplex.append(vertex)
    result = optimize.minimize(
        rms, x0, method="Nelder-Mead",
        options={"initial_simplex": np.array(simplex),
                 "xatol": 1e-10 * float(np.max(hi - lo)), "fatol": 1e-18,
                 "maxiter": 2000, "maxfev": 8000})
    assert result.success
    best = np.clip(result.x, lo, hi)
    return dict(zip(free_params, best.tolist())), rms(best)


class TestMeasuredSeries:
    def test_pressure_csv(self):
        text = "pressure_pa,capacitance_f\n0.0,7e-12\n1000.0,7.5e-12\n"
        s = MeasuredSeries.from_csv(text)
        assert s.kind == "pressure"
        assert len(s) == 2
        assert s.capacitance[1] == 7.5e-12

    def test_time_csv(self):
        text = "time_s,capacitance_f\n0.0,1e-12\n0.001,2e-12\n"
        assert MeasuredSeries.from_csv(text).kind == "time"

    def test_malformed_row_names_line(self):
        text = "pressure_pa,capacitance_f\n0.0,7e-12\nbogus,7e-12\n"
        with pytest.raises(ValueError, match="line 3"):
            MeasuredSeries.from_csv(text)

    def test_short_row_names_line(self):
        text = "pressure_pa,capacitance_f\n0.0\n"
        with pytest.raises(ValueError, match="line 2"):
            MeasuredSeries.from_csv(text)

    def test_unknown_header(self):
        with pytest.raises(ValueError, match="header"):
            MeasuredSeries.from_csv("volts,amps\n1,2\n")

    def test_empty(self):
        with pytest.raises(ValueError):
            MeasuredSeries.from_csv("")

    def test_non_increasing_abscissa(self):
        with pytest.raises(ValueError):
            MeasuredSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("x,c,kind,message", [
        ([0.0, 1.0], [1e-12], "pressure", "lengths differ"),
        ([0.0, 1.0], [1e-12, math.nan], "pressure",
         r"capacitance\[1\] must be finite, got nan"),
        ([0.0, math.inf], [1e-12, 2e-12], "time", r"abscissa\[1\] must be finite, got inf"),
        ([0.0, 1.0], [-1e308, 2e-12], "time",
         r"capacitance\[0\] must be at most 1e\+150 in magnitude, got -1e\+308"),
        ([0.0, 1e151], [1e-12, 2e-12], "pressure",
         r"abscissa\[1\] must be at most 1e\+150 in magnitude, got 1e\+151"),
        ([0.0, 1.0], [1e-12, 2e-12], "volts", "kind must be 'pressure' or 'time'"),
    ], ids=["lengths", "nan_capacitance", "inf_abscissa", "huge_capacitance",
            "huge_abscissa", "kind"])
    def test_rejects_bad_columns(self, x, c, kind, message):
        with pytest.raises(ValueError, match=message):
            MeasuredSeries(np.array(x), np.array(c), kind=kind)

    @pytest.mark.parametrize("row", ["nan,7e-12", "1000.0,inf"])
    def test_non_finite_sample(self, row):
        text = f"pressure_pa,capacitance_f\n0.0,7e-12\n{row}\n"
        with pytest.raises(ValueError, match="must be finite"):
            MeasuredSeries.from_csv(text)

    def test_columns_found_by_name(self):
        text = "mode,capacitance_f,pressure_pa\nnormal,7e-12,0.0\ntouch,8e-12,1e3\n"
        s = MeasuredSeries.from_csv(text)
        assert s.abscissa.tolist() == [0.0, 1e3]
        assert s.capacitance.tolist() == [7e-12, 8e-12]

    def test_utf8_bom_before_header_skipped(self):
        text = "pressure_pa,capacitance_f\n0.0,7e-12\n1000.0,7.5e-12\n"
        plain = MeasuredSeries.from_csv(text)
        bom = MeasuredSeries.from_csv("\ufeff" + text)
        assert bom.kind == plain.kind == "pressure"
        assert bom.abscissa.tolist() == plain.abscissa.tolist()
        assert bom.capacitance.tolist() == plain.capacitance.tolist()

    def test_error_names_physical_line_and_value(self):
        text = "pressure_pa\n\n1.0\n2.0x\n"
        with pytest.raises(ValueError, match="line 4: pressure_pa '2.0x'"):
            cal.csv_columns(text, ("pressure_pa",))


class TestFitModel:
    def test_noiseless_gap_recovery(self, default_geometry, config):
        true_gap = 4.1e-4
        truth = replace(default_geometry, gap=true_gap)
        # Pre-touch pressures: a normal-mode series.
        p = np.linspace(500.0, 8e3, 8)
        data = MeasuredSeries(p, cal.model_capacitances(truth, p))
        result = cal.fit_model(data, default_geometry, ["gap"],
                               config.fit_bounds)
        assert result.converged
        assert result.params["gap"] == pytest.approx(true_gap, rel=1e-3, abs=0)
        assert result.residual_norm < 1e-16

    def test_objective_surfaces_non_domain_errors(self, default_geometry,
                                                  config, monkeypatch):
        # Only the model's domain errors (ValueError, SweepPointError
        # included) score infinity; a fault in the model code itself must
        # not be swallowed.
        p = np.linspace(500.0, 8e3, 8)
        data = MeasuredSeries(p, cal.model_capacitances(default_geometry, p))
        real = cal.model_capacitances
        calls = []

        def faulty(geom, pressures):
            calls.append(1)
            if len(calls) == 2:
                raise TypeError("bug in the forward model")
            return real(geom, pressures)

        monkeypatch.setattr(cal, "model_capacitances", faulty)
        with pytest.raises(TypeError, match="bug"):
            cal.fit_model(data, default_geometry, ["gap"], config.fit_bounds)

    def test_objective_scores_domain_errors_infinite(self, default_geometry,
                                                     config, monkeypatch):
        p = np.linspace(500.0, 8e3, 8)
        data = MeasuredSeries(p, cal.model_capacitances(default_geometry, p))
        real = cal.model_capacitances
        calls = []

        def outside(geom, pressures):
            calls.append(1)
            if len(calls) == 2:
                raise cap.SweepPointError(0, 500.0, ValueError("no value"))
            return real(geom, pressures)

        monkeypatch.setattr(cal, "model_capacitances", outside)
        result = cal.fit_model(data, default_geometry, ["gap"],
                               config.fit_bounds)
        assert result.converged

    def test_trial_without_model_value_is_rejected(self, default_geometry,
                                                   config, monkeypatch):
        # Calls: the start, one Jacobian column, then the first trial step.
        p = np.linspace(500.0, 8e3, 8)
        truth = replace(default_geometry, gap=4.1e-4)
        data = MeasuredSeries(p, cal.model_capacitances(truth, p))
        bounds = config.fit_bounds
        want = cal.fit_model(data, default_geometry, ["gap"], bounds)
        real = cal.model_capacitances
        calls = []

        def outside(geom, pressures):
            calls.append(1)
            if len(calls) == 3:
                raise cap.SweepPointError(0, 500.0, ValueError("no value"))
            return real(geom, pressures)

        monkeypatch.setattr(cal, "model_capacitances", outside)
        result = cal.fit_model(data, default_geometry, ["gap"], bounds)
        assert result.converged
        assert result.iterations > want.iterations
        assert result.params["gap"] == pytest.approx(want.params["gap"], rel=1e-9,
                                                     abs=0)

    def test_model_capacitances_reports_point(self, bare_geometry):
        p_on = mechanics.touch_onset_pressure(bare_geometry)
        with pytest.raises(cap.SweepPointError) as err:
            cal.model_capacitances(bare_geometry, np.array([0.0, 2.0 * p_on]))
        assert err.value.index == 1
        assert "dielectric" in str(err.value.cause)

    @pytest.mark.parametrize("free", CLI_FREE_SETS, ids="+".join)
    def test_matches_nelder_mead_oracle(self, bundled_series, default_geometry,
                                        config, free):
        bounds = config.fit_bounds
        result = cal.fit_model(bundled_series, default_geometry, list(free), bounds)
        want, want_rms = nelder_mead_fit(bundled_series, default_geometry, free,
                                         bounds)
        assert result.converged
        assert result.residual_norm <= want_rms * (1.0 + 1e-9)
        for name in free:
            lo, hi = bounds[name]
            assert abs(result.params[name] - want[name]) <= 1e-6 * (hi - lo), name

    def test_few_iterations(self, bundled_series, default_geometry, config):
        result = cal.fit_model(bundled_series, default_geometry,
                               ["gap", "builtin_stress"], config.fit_bounds)
        assert result.converged
        assert result.iterations <= 20

    def test_active_upper_bound_held_exactly(self, default_geometry, config):
        bounds = config.fit_bounds
        hi = bounds["gap"][1]
        p = np.linspace(500.0, 8e3, 8)
        data = MeasuredSeries(
            p, cal.model_capacitances(replace(default_geometry, gap=1.2 * hi), p))
        result = cal.fit_model(data, default_geometry, ["gap"], bounds)
        assert result.converged
        assert result.params["gap"] == hi
        # With the gap held on its bound, the stress is fitted as if the gap
        # were fixed there.
        truth = replace(default_geometry, gap=1.02 * hi, builtin_stress=5e6)
        data = MeasuredSeries(p, cal.model_capacitances(truth, p))
        both = cal.fit_model(data, default_geometry, ["gap", "builtin_stress"],
                             bounds)
        fixed = cal.fit_model(data, replace(default_geometry, gap=hi),
                              ["builtin_stress"], bounds)
        assert both.converged
        assert both.params["gap"] == hi
        assert both.params["builtin_stress"] == pytest.approx(
            fixed.params["builtin_stress"], rel=1e-6, abs=0)

    def test_start_without_model_value_names_pressure(self, bare_geometry,
                                                      config):
        # No dielectric: every sample past touch has no capacitance.
        p_on = mechanics.touch_onset_pressure(bare_geometry)
        p = np.array([0.5, 1.5, 2.0, 2.5]) * p_on
        data = MeasuredSeries(p, np.full(4, 7e-12))
        with pytest.raises(ValueError, match=f"P = {float(p[1])} Pa: .*dielectric"):
            cal.fit_model(data, bare_geometry, ["gap"], config.fit_bounds)

    def test_deterministic(self, default_geometry, config):
        p = np.linspace(500.0, 8e3, 6)
        data = MeasuredSeries(
            p, cal.model_capacitances(default_geometry, p) * 1.01)
        a = cal.fit_model(data, default_geometry, ["gap"], config.fit_bounds)
        b = cal.fit_model(data, default_geometry, ["gap"], config.fit_bounds)
        assert a == b

    def test_rejects_empty_free_params(self, default_geometry, config):
        data = MeasuredSeries(np.linspace(1.0, 4.0, 4), np.full(4, 1e-12))
        with pytest.raises(ValueError):
            cal.fit_model(data, default_geometry, [], config.fit_bounds)

    def test_rejects_unknown_param(self, default_geometry, config):
        data = MeasuredSeries(np.linspace(1.0, 4.0, 4), np.full(4, 1e-12))
        with pytest.raises(ValueError, match="unknown"):
            cal.fit_model(data, default_geometry, ["radius"],
                          config.fit_bounds)

    def test_rejects_missing_bounds(self, default_geometry):
        data = MeasuredSeries(np.linspace(1.0, 4.0, 4), np.full(4, 1e-12))
        with pytest.raises(ValueError, match="bounds"):
            cal.fit_model(data, default_geometry, ["gap"], {})

    @pytest.mark.parametrize("n,bounds,message", [
        (3, {"gap": (1e-4, 1e-3)}, "need at least 4 samples"),
        (4, {"gap": (math.nan, 1e-3)}, "bounds for 'gap' must be finite with lo < hi"),
        (4, {"gap": (1e-4, math.inf)}, "bounds for 'gap' must be finite with lo < hi"),
        (4, {"gap": (1e-3, 1e-3)}, "bounds for 'gap' must be finite with lo < hi"),
    ], ids=["three_samples", "nan_bound", "inf_bound", "empty_range"])
    def test_rejects_bad_input(self, default_geometry, n, bounds, message):
        data = MeasuredSeries(np.linspace(1.0, 4.0, n), np.full(n, 1e-12))
        with pytest.raises(ValueError, match=message):
            cal.fit_model(data, default_geometry, ["gap"], bounds)

    def test_rejects_time_data(self, default_geometry, config):
        data = MeasuredSeries(np.linspace(0.0, 1.0, 5), np.full(5, 1e-12),
                              kind="time")
        with pytest.raises(ValueError):
            cal.fit_model(data, default_geometry, ["gap"],
                          config.fit_bounds)


def piecewise(p, boundaries, slopes, c0=5e-12):
    """Continuous 4-piece linear curve for construction oracles."""
    b1, b2, b3 = boundaries
    s1, s2, s3, s4 = slopes
    c = np.empty_like(p)
    for idx, x in enumerate(p):
        v = c0 + s1 * min(x, b1)
        if x > b1:
            v += s2 * (min(x, b2) - b1)
        if x > b2:
            v += s3 * (min(x, b3) - b2)
        if x > b3:
            v += s4 * (x - b3)
        c[idx] = v
    return c


def bruteforce_sse(p, c):
    """Least lstsq SSE of the hinge fit over every admissible knot triple,
    on pressures shifted to start at 0 as ``segment_modes`` re-solves them."""
    n = len(p)
    q = p - p[0]
    best = math.inf
    for i in range(2, n - 6):
        for j in range(i + 2, n - 4):
            for k in range(j + 2, n - 2):
                design = cal._piecewise_design(q, q[i], q[j], q[k])
                coef, _, _, _ = np.linalg.lstsq(design, c, rcond=None)
                best = min(best, float(np.sum((design @ coef - c) ** 2)))
    return best


class TestSegmentModes:
    def test_exact_recovery_on_grid(self):
        p = np.arange(0.0, 61e3, 1e3)
        c = piecewise(p, (8e3, 10e3, 40e3), (1e-16, 8e-16, 4e-16, 0.5e-16))
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert seg.boundaries == (8e3, 10e3, 40e3)
        assert seg.slopes == pytest.approx(
            (1e-16, 8e-16, 4e-16, 0.5e-16), rel=1e-6, abs=0)
        assert not seg.low_confidence
        assert seg.sse == pytest.approx(0.0, abs=1e-40)

    def test_single_segment_flagged(self):
        p = np.arange(0.0, 30e3, 1e3)
        c = 5e-12 + 2e-16 * p
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert seg.low_confidence

    def test_optimality_vs_bruteforce(self):
        rng = np.random.default_rng(11)
        p = np.linspace(0.0, 1.0, 18)
        c = np.sin(3.0 * p) + 0.05 * rng.standard_normal(len(p))
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert seg.sse == pytest.approx(bruteforce_sse(p, c), rel=1e-9, abs=1e-12)

    @given(st.integers(12, 25), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_bruteforce_oracle(self, n, seed, rounded):
        """SSE equals the lstsq minimum over every admissible triple.

        Rounded series sit on an integer grid with 0.1-step capacitances,
        so distinct triples can tie exactly.
        """
        rng = np.random.default_rng(seed)
        if rounded:
            p = np.cumsum(rng.integers(1, 4, n)).astype(float)
            c = np.round(np.sin(p / n * 4.0) + 0.3 * rng.standard_normal(n), 1)
        else:
            p = np.cumsum(rng.uniform(0.05, 1.0, n))
            c = np.sin(p / p[-1] * 4.0) + 0.3 * rng.standard_normal(n)
        assume(np.ptp(c) > 0)
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert seg.sse == pytest.approx(bruteforce_sse(p, c), rel=1e-9, abs=0)

    @pytest.mark.parametrize("offset", [0.0, 101325.0, 1e6, 1e9, 1e12])
    def test_pressure_offset_keeps_knots(self, default_geometry, config, offset):
        """Adding a constant to every pressure moves no knot and changes
        neither the SSE nor the slopes reported."""
        p, c = sweep_series(default_geometry, config.thresholds, 161)
        c = c + 2e-15 * np.random.default_rng(7).standard_normal(len(p))
        want = cal.segment_modes(MeasuredSeries(p, c))
        seg = cal.segment_modes(MeasuredSeries(p + offset, c))
        assert (np.searchsorted(p + offset, seg.boundaries).tolist()
                == np.searchsorted(p, want.boundaries).tolist())
        assert seg.sse == pytest.approx(want.sse, rel=1e-9, abs=0)
        assert seg.slopes == pytest.approx(want.slopes, rel=1e-9, abs=0)

    @given(st.integers(12, 25), st.integers(0, 2**32 - 1), st.data(),
           st.sampled_from([None, 1e6, 1e9]))
    @settings(max_examples=40, deadline=None)
    def test_near_coincident_pressures(self, n, seed, data, separation):
        """Samples 1e-12 of the span apart, or two clusters 1e6 or 1e9
        apart, give an admissible triple of the brute-force SSE."""
        p, c = near_coincident_series(n, seed, data.draw(st.integers(1, n - 1)),
                                      separation)
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert_admissible(p, seg)
        assert seg.sse == pytest.approx(bruteforce_sse(p, c), rel=1e-9, abs=0)

    @pytest.mark.parametrize("separation", [None, 1e6], ids=["close_pair", "clusters"])
    def test_near_coincident_pressures_long(self, separation):
        p, c = near_coincident_series(161, 5, 80, separation)
        data = MeasuredSeries(p, c)
        seg = cal.segment_modes(data)
        assert_admissible(p, seg)
        with mock.patch.object(cal, "_best_knots", oracles.best_knots_exhaustive):
            assert seg == cal.segment_modes(data)

    def test_default_sweep_golden(self, default_geometry, config):
        """Knots of the 161-point 0-60 kPa default sweep, frozen from a
        search that solved the 5x5 normal equations of every triple."""
        pressures = [float(p) for p in np.linspace(0.0, 60e3, 161)]
        curve = cap.sweep_cp_curve(default_geometry, pressures, config.thresholds)
        seg = cal.segment_modes(MeasuredSeries(np.array(curve.pressures()),
                                               np.array(curve.capacitances())))
        assert seg.boundaries == (7500.0, 15000.0, 29625.0)
        assert seg.sse == pytest.approx(1.5790018750623988e-21, rel=1e-9, abs=0)
        assert not seg.low_confidence

    def test_flat_tail_segment_r_squared_is_one(self):
        """A curve that saturates at one value from 31 kPa on: the last
        segment's samples are all equal, and its R^2 is 1.  Taken about
        their rounded mean, the TSS would be rounding noise and R^2 about
        -5.4e24."""
        p = np.linspace(0.0, 60e3, 61)
        c = ((2.2e-12 - 4e-13) + 1e-17 * np.minimum(p, 31e3)
             + 3e-22 * p**2 * (p < 20e3))
        c[p >= 31e3] = 2.2e-12
        seg = cal.segment_modes(MeasuredSeries(p, c))
        assert seg.boundaries == (19e3, 21e3, 34e3)
        assert seg.r_squared[3] == 1.0
        assert all(0.0 < r < 1.0 for r in seg.r_squared[:3])

    def test_memory_quadratic(self, default_geometry):
        """400 samples: the search holds O(n^2) arrays, not every triple."""
        p = np.linspace(0.0, 60e3, 400)
        noise = 2e-15 * np.random.default_rng(3).standard_normal(len(p))
        data = MeasuredSeries(p, cap.capacitances(default_geometry, p) + noise)
        tracemalloc.start()
        try:
            cal.segment_modes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cal.segment_modes(MeasuredSeries(np.arange(5.0), np.arange(5.0)))

    @pytest.mark.parametrize("n,kind,message", [
        (11, "pressure", "need at least 12 samples"),
        (20, "time", "segment_modes needs pressure-capacitance data"),
    ], ids=["eleven_samples", "time_data"])
    def test_rejects_series(self, n, kind, message):
        with pytest.raises(ValueError, match=message):
            cal.segment_modes(MeasuredSeries(np.arange(float(n)), np.arange(float(n)),
                                             kind=kind))

    def test_too_many_samples_rejected_before_allocating(self, monkeypatch):
        def no_tables(*args):
            raise AssertionError("_knot_tables called")
        monkeypatch.setattr(cal, "_knot_tables", no_tables)
        n = cal.MAX_SEGMENT_SAMPLES + 1
        with pytest.raises(ValueError, match=f"at most {n - 1} samples, got {n}"):
            cal.segment_modes(MeasuredSeries(np.arange(float(n)), np.arange(float(n))))
        n -= 1
        with pytest.raises(AssertionError, match="_knot_tables called"):
            cal.segment_modes(MeasuredSeries(np.arange(float(n)), np.arange(float(n))))

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            cal.segment_modes(MeasuredSeries(np.arange(15.0), np.full(15, 2e-12)))


def near_coincident_series(n, seed, q, separation=None):
    """A noisy sine on n increasing pressures, with samples q-1 and q 1e-12
    of the span apart or, given a ``separation``, samples q on that much
    further from the rest."""
    rng = np.random.default_rng(seed)
    p = np.cumsum(rng.uniform(0.05, 1.0, n))
    if separation is None:
        p[q:] -= p[q] - p[q - 1] - 1e-12 * (p[-1] - p[0])
    else:
        p[q:] += separation
    return p, np.sin(4.0 * np.arange(n) / n) + 0.3 * rng.standard_normal(n)


def assert_admissible(p, seg):
    """Knots at sample pressures, ``MIN_GAP`` apart and from the ends, and a
    finite SSE."""
    i, j, k = np.searchsorted(p, seg.boundaries).tolist()
    assert p[[i, j, k]].tolist() == list(seg.boundaries)
    gap = cal.MIN_GAP
    assert gap <= i and i + gap <= j and j + gap <= k and k <= len(p) - 1 - gap
    assert math.isfinite(seg.sse)


def random_series(n, seed, rounded):
    """A noisy sine, on an integer grid with 0.1-step values if ``rounded``."""
    rng = np.random.default_rng(seed)
    if rounded:
        p = np.cumsum(rng.integers(1, 4, n)).astype(float)
        return p, np.round(np.sin(p / n * 4.0) + 0.3 * rng.standard_normal(n), 1)
    p = np.cumsum(rng.uniform(0.05, 1.0, n))
    return p, np.sin(p / p[-1] * 4.0) + 0.3 * rng.standard_normal(n)


def sweep_series(geom, thresholds, n):
    """The n-point 0-60 kPa sweep of ``geom`` as measured data."""
    curve = cap.sweep_cp_curve(geom, [float(x) for x in np.linspace(0.0, 60e3, n)],
                               thresholds)
    return np.array(curve.pressures()), np.array(curve.capacitances())


KNOTS_GOLDEN = Path(__file__).parent / "golden" / "segment_knots.json"


def golden_knot_series(config):
    """(name, pressures, capacitances) of the series whose segmentations
    ``golden/segment_knots.json`` freezes: 41-161-point 0-60 kPa sweeps of
    three profiles with 2e-15 F Gaussian noise, and seeded noisy sines."""
    rng = np.random.default_rng(15)
    for profile in ("default", "dielectric_50um", "fem_scaled"):
        for n in (41, 81, 121, 161):
            p, c = sweep_series(config.geometry(profile), config.thresholds, n)
            for rep in range(2):
                yield f"{profile}/{n}/{rep}", p, c + 2e-15 * rng.standard_normal(n)
    for seed in range(16):
        yield (f"sine/{seed}", *random_series(12 + 7 * seed, seed, seed % 2 == 1))


def segmentation_record(seg):
    """The fields of a segmentation the knot golden file holds."""
    return {"boundaries": list(seg.boundaries), "sse": repr(seg.sse),
            "slopes": list(seg.slopes), "low_confidence": seg.low_confidence}


def test_knots_match_golden(config):
    """Knots, SSE, slopes and confidence of 40 series, exactly as frozen."""
    want = json.loads(KNOTS_GOLDEN.read_text())
    got = {name: segmentation_record(cal.segment_modes(MeasuredSeries(p, c)))
           for name, p, c in golden_knot_series(config)}
    assert list(got) == list(want)
    for name in want:
        assert got[name] == want[name], name


class TestKnotPruning:
    """The first-knot lower bounds and the best-first search they prune."""

    @staticmethod
    def tables(p, c):
        """The knot tables of (p, c), scaled as segment_modes scales the
        data it searches."""
        return cal._knot_tables((p - p[0]) / (p[-1] - p[0]), (c - np.mean(c)) / np.ptp(c))

    def assert_bounds_hold(self, p, c):
        tables = self.tables(p, c)
        bounds = cal._first_knot_bounds(tables)
        for i in range(cal.MIN_GAP, len(p) - 3 * cal.MIN_GAP):
            assert bounds[i] <= cal._score_first_knot(tables, i)[0], i

    @staticmethod
    def scored_first_knots(data):
        calls = []
        score = cal._score_first_knot

        def counted(*args):
            calls.append(args[-1])
            return score(*args)

        with mock.patch.object(cal, "_score_first_knot", counted):
            seg = cal.segment_modes(data)
        return seg, calls

    @given(st.integers(12, 80), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_bound_below_first_knot_sse(self, n, seed, rounded):
        p, c = random_series(n, seed, rounded)
        assume(np.ptp(c) > 0)
        self.assert_bounds_hold(p, c)

    @pytest.mark.parametrize("shape", ["line", "hinge"])
    def test_bound_below_first_knot_sse_exact_fits(self, shape):
        p = np.arange(0.0, 40e3, 1e3)
        c = 5e-12 + 2e-16 * p
        if shape == "hinge":
            c += 6e-16 * np.maximum(p - 17e3, 0.0)
        self.assert_bounds_hold(p, c)

    @pytest.mark.parametrize("n", [61, 161])
    def test_bound_below_first_knot_sse_fem_scaled(self, scaled_geometry, config, n):
        # Nearly a straight line: the bounds sit within rounding of the SSEs.
        self.assert_bounds_hold(*sweep_series(scaled_geometry, config.thresholds, n))

    def test_nan_entry_leaves_first_knot_unbounded(self):
        """A NaN table entry, a pivot lost to rounding, bounds its first
        knot by -inf and scores inf, so the first knot is still scored."""
        tables = self.tables(*random_series(30, 1, False))
        sse, j, k = cal._score_first_knot(tables, 5)
        tables[0][0][j, 5] = np.nan  # A(5, j)
        bounds = cal._first_knot_bounds(tables)
        assert bounds[5] == -np.inf and np.isfinite(bounds[6])
        rescored = cal._score_first_knot(tables, 5)
        assert rescored[1] != j and rescored[0] > sse

    @given(st.integers(30, 120), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_oracle(self, n, seed, rounded):
        p, c = random_series(n, seed, rounded)
        assume(np.ptp(c) > 0)
        data = MeasuredSeries(p, c)
        seg = cal.segment_modes(data)
        with mock.patch.object(cal, "_best_knots", oracles.best_knots_exhaustive):
            want = cal.segment_modes(data)
        assert (seg.boundaries, seg.sse, seg.low_confidence) == \
            (want.boundaries, want.sse, want.low_confidence)

    def test_golden_sweep_scores_two_first_knots(self, default_geometry, config):
        seg, calls = self.scored_first_knots(
            MeasuredSeries(*sweep_series(default_geometry, config.thresholds, 161)))
        assert seg.boundaries == (7500.0, 15000.0, 29625.0)
        assert 1 <= len(calls) <= 2

    def test_exact_line_scores_smallest_first_knot_only(self):
        # Every triple fits a line exactly, so every bound and SSE is in bin
        # 0: the smallest first knot is scored first and wins.
        p = np.arange(0.0, 30e3, 1e3)
        data = MeasuredSeries(p, 5e-12 + 2e-16 * p)
        seg, calls = self.scored_first_knots(data)
        assert calls == [cal.MIN_GAP]
        assert seg.low_confidence
        # The oracle, scoring every first knot, agrees.
        with mock.patch.object(cal, "_best_knots", oracles.best_knots_exhaustive):
            assert seg == cal.segment_modes(data)

    @staticmethod
    def searched_with(sse, bounds):
        """Knots of the search and of the oracle on 11 samples, whose first
        knots 2, 3 and 4 score ``sse`` and are bounded by ``bounds``, both
        in tie widths."""
        n = 11
        tie = n * (cal.SSE_TIE_ULPS * np.finfo(float).eps) ** 2
        lower = np.full(n, np.inf)
        lower[2:5] = np.array(bounds) * tie

        def score(tables, i):
            return sse[i - 2] * tie, i + cal.MIN_GAP, i + 2 * cal.MIN_GAP

        p = np.linspace(0.0, 1.0, n)
        with mock.patch.object(cal, "_score_first_knot", score), \
                mock.patch.object(cal, "_first_knot_bounds", lambda tables: lower):
            return cal._best_knots(p, p * p), oracles.best_knots_exhaustive(p, p * p)

    @pytest.mark.parametrize("bounds", [(0.0, 0.0, 0.0), (2.0, 1.0, 0.0)],
                             ids=["index_order", "reverse_order"])
    def test_tie_rule_chain(self, bounds):
        """SSEs 2.0, 1.1 and 0.2 tie widths at first knots 2, 3 and 4 fall
        in bins 2, 1 and 0, so 4 wins in either scoring order, in the search
        and in the oracle, although 3 is within the tie width of it."""
        assert self.searched_with((2.0, 1.1, 0.2), bounds) == ((4, 6, 8), (4, 6, 8))

    @pytest.mark.parametrize("bounds", [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0)],
                             ids=["index_order", "reverse_order"])
    def test_tie_rule_same_bin(self, bounds):
        """SSEs 1.9, 1.1 and 1.0 tie widths share bin 1: the smallest first
        knot, 2, wins over the least SSE in either scoring order."""
        assert self.searched_with((1.9, 1.1, 1.0), bounds) == ((2, 4, 6), (2, 4, 6))

    def test_non_finite_keys(self):
        """An infinite SSE bins to inf, a -inf bound to 0, and a NaN table
        entry, whose bound is -inf, keys its first knot first; no
        RuntimeWarning on the way."""
        tables = self.tables(*random_series(30, 1, False))
        tables[0][0][10, 5] = np.nan  # A(5, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cal._search_keys(30, [np.inf, -np.inf, 0.0], [2, 3, 4]) == \
                [(math.inf, 2), (0.0, 3), (0.0, 4)]
            bounds = cal._first_knot_bounds(tables)
            assert cal._search_keys(30, bounds[5:7], [5, 6])[0] == (0.0, 5)
            assert cal._search_keys(30, math.inf, [5], [9], [12]) == [(math.inf, 5, 9, 12)]

    @given(st.integers(30, 120), st.integers(0, 2**32 - 1), st.booleans(),
           st.floats(-13.0, -10.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_oracle_near_exact(self, n, seed, hinge, noise_exp):
        """Lines and one-hinge curves with noise 1e-13 to 1e-10 of their
        span, where SSEs lie a few tie widths apart and can round below 0."""
        rng = np.random.default_rng(seed)
        p = np.cumsum(rng.uniform(0.05, 1.0, n))
        c = 5e-12 + 2e-16 * p
        if hinge:
            c += 6e-16 * np.maximum(p - p[rng.integers(n // 4, 3 * n // 4)], 0.0)
        c += 10.0**noise_exp * np.ptp(c) * rng.standard_normal(n)
        data = MeasuredSeries(p, c)
        seg = cal.segment_modes(data)
        with mock.patch.object(cal, "_best_knots", oracles.best_knots_exhaustive):
            assert seg == cal.segment_modes(data)


class TestSensitivityLinearity:
    def test_exact_line(self):
        p = np.linspace(10e3, 40e3, 10)
        data = MeasuredSeries(p, 5e-12 + 3e-16 * p)
        slope, r2 = cal.sensitivity_linearity(data, (10e3, 40e3))
        assert slope == pytest.approx(3e-16, rel=1e-9, abs=0)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_too_few_in_range(self):
        p = np.linspace(0.0, 50e3, 10)
        data = MeasuredSeries(p, 5e-12 + 3e-16 * p)
        with pytest.raises(ValueError):
            cal.sensitivity_linearity(data, (49e3, 50e3))

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20)
    def test_slope_equivariance(self, k):
        p = np.linspace(1e3, 40e3, 12)
        c = 5e-12 + 3e-16 * p + 1e-15 * np.sin(p / 7e3)
        s1, _ = cal.sensitivity_linearity(MeasuredSeries(p, c), (1e3, 40e3))
        s2, _ = cal.sensitivity_linearity(MeasuredSeries(k * p, c),
                                          (k * 1e3, k * 40e3))
        assert s2 == pytest.approx(s1 / k, rel=1e-9, abs=0)


def first_order_step(tau, fs=1e3, amplitude=0.36e-12, baseline=5e-12,
                     t_end=0.25):
    t = np.arange(-0.05, t_end, 1.0 / fs)
    c = np.where(t < 0.0, baseline,
                 baseline + amplitude * (1.0 - np.exp(-np.maximum(t, 0.0) / tau)))
    return MeasuredSeries(t, c, kind="time")


class TestRiseTime:
    def test_constructed_span(self):
        # First-order response whose 10-90% span is exactly 15.85 ms.
        tau = 15.85e-3 / math.log(9.0)
        data = first_order_step(tau, fs=1e3)
        assert cal.rise_time(data) == pytest.approx(15.85e-3, abs=1e-3)

    def test_first_order_dense(self):
        tau = 7.0e-3
        data = first_order_step(tau, fs=100e3)
        assert cal.rise_time(data) == pytest.approx(tau * math.log(9.0),
                                                    rel=0.01)

    @pytest.mark.parametrize("snr", [20.0, 10.0])
    def test_noise_before_step_ignored(self, snr):
        # At these amplitude/noise ratios most records hold a sample above
        # the 10% level before the step; the 10% crossing is the one just
        # before the 90% crossing, not that sample.
        tau = 7.2e-3
        step = first_order_step(tau)
        noise = (0.36e-12 / snr) * np.random.default_rng(2024).standard_normal(
            (200, len(step)))
        rises = np.array([cal.rise_time(MeasuredSeries(
            step.abscissa, step.capacitance + row, kind="time")) for row in noise])
        true = tau * math.log(9.0)
        assert np.all((rises > true / 4) & (rises < 2 * true))

    def test_flat_series_rejected(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(ValueError, match="step"):
            cal.rise_time(MeasuredSeries(t, np.full(100, 4e-12), kind="time"))

    def test_rejects_pressure_data(self):
        with pytest.raises(ValueError):
            cal.rise_time(MeasuredSeries(np.arange(10.0), np.arange(10.0)))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            cal.rise_time(MeasuredSeries(np.array([0.0]), np.array([1e-12]), kind="time"))

    @given(st.floats(0.1, 50.0), st.floats(-1e-11, 1e-11))
    @settings(max_examples=20, deadline=None)
    def test_affine_invariance(self, alpha, beta):
        tau = 5e-3
        data = first_order_step(tau, fs=10e3)
        scaled = MeasuredSeries(data.abscissa,
                                alpha * data.capacitance + beta, kind="time")
        assert cal.rise_time(scaled) == pytest.approx(cal.rise_time(data),
                                                      rel=1e-12)
