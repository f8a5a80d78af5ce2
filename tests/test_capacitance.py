import functools
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchcap import calibration as cal
from touchcap import capacitance as cap
from touchcap import mechanics
from touchcap.capacitance import SweepPointError, TouchStateError
from touchcap.mechanics import EPSILON_0, DeflectionState, OperatingMode

import oracles

# Frozen quadrature-oracle goldens: annulus of the 50 um dielectric profile
# at contact radius a = R/2 (R = 1 cm, gap = 450 um, eps = 3.4).  The
# annulus value is the quadrature in u = 1 - (r/R)^2 of
# pi eps0 R^2 du / (d_e - W(u)/eps_r) at epsrel 1e-13, independent of the
# r-quadrature oracle and the closed form (which agree with it to 2e-15).
GOLDEN_TOUCHED_HALF_R = 4.728762735653449e-11
GOLDEN_ANNULUS_HALF_R = 1.205684036802106e-11

# Single-formula arithmetic: eps0 pi (1 cm)^2 / 400 um.
GOLDEN_BASE_C = 6.95406284654919e-12


def untouched_state(w0, p=0.0):
    return DeflectionState(pressure=p, center_deflection=w0)


class TestBaseCapacitance:
    def test_bare_gap_value(self, bare_geometry):
        c0 = bare_geometry.base_capacitance
        assert c0 == pytest.approx(GOLDEN_BASE_C, rel=1e-12, abs=0)
        assert c0 == pytest.approx(6.95e-12, rel=1e-3, abs=0)

    def test_doubling_gap_halves(self, bare_geometry):
        doubled = replace(bare_geometry, gap=2.0 * bare_geometry.gap)
        assert doubled.base_capacitance == pytest.approx(
            bare_geometry.base_capacitance / 2.0, rel=1e-12, abs=0)

    def test_doubling_radius_quadruples(self, bare_geometry):
        doubled = replace(bare_geometry, radius=2.0 * bare_geometry.radius)
        assert doubled.base_capacitance == pytest.approx(
            4.0 * bare_geometry.base_capacitance, rel=1e-12, abs=0)

    def test_series_dielectric_reduces_gap(self, default_geometry):
        d_e = default_geometry.electrical_gap
        t1 = default_geometry.dielectric_thickness
        assert d_e == pytest.approx(
            (default_geometry.gap - t1)
            + t1 / default_geometry.dielectric_rel_permittivity, rel=1e-12, abs=0)
        assert d_e < default_geometry.gap


class TestNormalMode:
    def test_flat_equals_base(self, bare_geometry):
        c = cap.normal_mode_capacitance(bare_geometry, untouched_state(0.0))
        assert c == bare_geometry.base_capacitance

    def test_half_gap_matches_quadrature(self, bare_geometry):
        w0 = 0.5 * bare_geometry.electrical_gap
        closed = cap.normal_mode_capacitance(bare_geometry, untouched_state(w0))
        quad = oracles.normal_mode_capacitance_quadrature(bare_geometry, w0)
        assert closed == pytest.approx(quad, rel=1e-9, abs=0)

    def test_strictly_increasing_in_deflection(self, bare_geometry):
        d_e = bare_geometry.electrical_gap
        values = [cap.normal_mode_capacitance(bare_geometry, untouched_state(f * d_e))
                  for f in np.linspace(0.0, 0.9, 10)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_deflection_at_gap(self, bare_geometry):
        d_e = bare_geometry.electrical_gap
        with pytest.raises(TouchStateError):
            cap.normal_mode_capacitance(bare_geometry, untouched_state(d_e))

    def test_rejects_touched_state(self, bare_geometry):
        state = DeflectionState(pressure=1.0, center_deflection=1e-6,
                                contact_radius=1e-3)
        with pytest.raises(TouchStateError):
            cap.normal_mode_capacitance(bare_geometry, state)


class TestTouchMode:
    @pytest.fixture
    def dielectric_geometry(self, config):
        return config.geometry("dielectric_50um")

    def _pressure_for_contact(self, geom, a_frac):
        w0 = geom.travel / (1.0 - a_frac**2) ** 2
        return mechanics.pressure_for_center_deflection(geom, w0)

    def test_half_radius_golden(self, dielectric_geometry):
        geom = dielectric_geometry
        p = self._pressure_for_contact(geom, 0.5)
        got = cap.touch_mode_capacitance(geom, p)
        expected_touched = (EPSILON_0 * 3.4 * math.pi * (geom.radius / 2.0) ** 2
                            / geom.dielectric_thickness)
        assert got.touched_part == pytest.approx(expected_touched, rel=1e-9, abs=0)
        assert got.touched_part == pytest.approx(GOLDEN_TOUCHED_HALF_R, rel=1e-10,
                                                 abs=0)
        assert got.untouched_part == pytest.approx(GOLDEN_ANNULUS_HALF_R, rel=1e-8,
                                                   abs=0)

    def test_additivity(self, dielectric_geometry):
        p = self._pressure_for_contact(dielectric_geometry, 0.3)
        got = cap.touch_mode_capacitance(dielectric_geometry, p)
        assert got.total == pytest.approx(
            got.touched_part + got.untouched_part, rel=1e-12, abs=0)
        assert got.touched_part >= 0.0 and got.untouched_part >= 0.0

    def test_monotone_in_pressure(self, default_geometry):
        c20 = cap.touch_mode_capacitance(default_geometry, 20e3).total
        c30 = cap.touch_mode_capacitance(default_geometry, 30e3).total
        assert c20 < c30

    def test_rejects_untouched(self, default_geometry):
        with pytest.raises(TouchStateError):
            cap.touch_mode_capacitance(default_geometry, 100.0)

    def test_rejects_zero_dielectric(self, bare_geometry):
        p = oracles.touch_onset_pressure(bare_geometry) * 2.0
        with pytest.raises(ValueError):
            cap.touch_mode_capacitance(bare_geometry, p)

    def test_quadrature_oracle_rejects_wrong_regime(self, default_geometry,
                                                    bare_geometry):
        with pytest.raises(TouchStateError):
            oracles.touch_mode_capacitance_quadrature(default_geometry, 100.0)
        p = oracles.touch_onset_pressure(bare_geometry) * 2.0
        with pytest.raises(ValueError):
            oracles.touch_mode_capacitance_quadrature(bare_geometry, p)


@settings(max_examples=60)
@given(radius=st.floats(1e-3, 2e-2), gap=st.floats(50e-6, 800e-6),
       t1_frac=st.floats(0.005, 0.2), eps_t1=st.floats(1.5, 8.0),
       eps_r=st.floats(1.0, 3.0), a_frac=st.floats(1e-3, 0.95))
def test_touch_closed_form_matches_quadrature(default_laminate, radius, gap,
                                              t1_frac, eps_t1, eps_r, a_frac):
    geom = mechanics.DeviceGeometry(
        radius=radius, laminate=default_laminate, gap=gap,
        dielectric_thickness=t1_frac * gap, dielectric_rel_permittivity=eps_t1,
        medium_rel_permittivity=eps_r)
    w0 = geom.travel / (1.0 - a_frac**2) ** 2
    p = mechanics.pressure_for_center_deflection(geom, w0)
    closed = cap.touch_mode_capacitance(geom, p)
    quad = oracles.touch_mode_capacitance_quadrature(geom, p)
    assert closed.touched_part == pytest.approx(quad.touched_part, rel=1e-9, abs=0)
    assert closed.untouched_part == pytest.approx(quad.untouched_part, rel=1e-9,
                                                  abs=0)


@pytest.fixture(scope="module")
def default_curve(default_geometry, config):
    pressures = [float(p) for p in np.arange(0.0, 60e3 + 1.0, 1e3)]
    return cap.sweep_cp_curve(default_geometry, pressures,
                              config.thresholds, geometry_id="default")


class TestSweep:
    def test_single_zero_point(self, default_geometry, config):
        curve = cap.sweep_cp_curve(default_geometry, [0.0], config.thresholds)
        assert curve.points[0].capacitance == pytest.approx(
            default_geometry.base_capacitance, rel=1e-12, abs=0)
        assert curve.points[0].mode is OperatingMode.NORMAL

    def test_four_contiguous_mode_segments(self, default_curve):
        modes = [pt.mode for pt in default_curve.points]
        seen = [modes[0]]
        for m in modes[1:]:
            if m is not seen[-1]:
                seen.append(m)
        assert seen == [OperatingMode.NORMAL, OperatingMode.TRANSITION,
                        OperatingMode.TOUCH, OperatingMode.SATURATION]

    def test_monotone_capacitance(self, default_curve):
        c = default_curve.capacitances()
        assert all(b >= a for a, b in zip(c, c[1:]))

    def test_touch_range_more_linear_than_normal_range(self, default_curve):
        # Linear-fit quality over the touch range (10-40 kPa) must beat
        # the normal range (1-8 kPa).
        def range_r2(lo, hi):
            pts = [(pt.pressure, pt.capacitance) for pt in default_curve.points
                   if lo <= pt.pressure <= hi]
            p = np.array([x for x, _ in pts])
            c = np.array([y for _, y in pts])
            slope, intercept = np.polyfit(p, c, 1)
            resid = c - (slope * p + intercept)
            return 1.0 - float(np.sum(resid**2)) / float(np.sum((c - c.mean())**2))

        assert range_r2(10e3, 40e3) > range_r2(1e3, 8e3)

    def test_saturation_flattens(self, default_curve):
        p = np.array(default_curve.pressures())
        c = np.array(default_curve.capacitances())
        modes = np.array([pt.mode for pt in default_curve.points])
        dcdp = np.diff(c) / np.diff(p)
        seg = modes[:-1]
        sat = dcdp[seg == OperatingMode.SATURATION]
        touch = dcdp[seg == OperatingMode.TOUCH]
        assert float(np.mean(sat)) < float(np.mean(touch))

    def test_continuity_at_mode_switch(self, default_geometry):
        p_on = oracles.touch_onset_pressure(default_geometry)
        below = cap.capacitance_at(default_geometry, p_on * (1.0 - 1e-9))
        above = cap.capacitance_at(default_geometry, p_on * (1.0 + 1e-9))
        assert above == pytest.approx(below, rel=1e-6, abs=0)

    def test_rejects_unsorted_pressures(self, default_geometry, config):
        th = config.thresholds
        with pytest.raises(ValueError):
            cap.sweep_cp_curve(default_geometry, [0.0, 2.0, 1.0], th)
        with pytest.raises(ValueError):
            cap.sweep_cp_curve(default_geometry, [-1.0, 2.0], th)

    @pytest.mark.parametrize("profile,p_end", [("default", 100e3),
                                               ("dielectric_50um", 100e3),
                                               ("airgap", None)])
    def test_matches_pointwise_evaluation(self, config, profile, p_end):
        geom, th = config.geometry(profile), config.thresholds
        if p_end is None:  # no dielectric: stay below touch onset
            p_end = 0.999 * oracles.touch_onset_pressure(geom)
        pressures = [float(p) for p in np.linspace(0.0, p_end, 201)]
        curve = cap.sweep_cp_curve(geom, pressures, th)
        expected = [cap.capacitance_at(geom, p) for p in pressures]
        assert curve.capacitances() == expected
        assert cap.capacitances(geom, pressures).tolist() == expected
        assert [pt.mode for pt in curve.points] == \
            [mechanics.classify_mode(geom, p, th) for p in pressures]

    def test_rejects_non_finite_before_ordering(self, default_geometry, config):
        # [0, inf, inf] is also non-increasing; the error must name inf.
        with pytest.raises(ValueError, match="finite, got inf"):
            cap.sweep_cp_curve(default_geometry, [0.0, math.inf, math.inf],
                               config.thresholds)

    def test_point_error_carries_index(self, bare_geometry, generic_thresholds):
        # Bare gap device enters touch with no dielectric: the failing
        # point index must be reported.
        p_on = oracles.touch_onset_pressure(bare_geometry)
        with pytest.raises(SweepPointError) as err:
            cap.sweep_cp_curve(bare_geometry, [0.0, p_on * 2.0], generic_thresholds)
        assert err.value.index == 1

    def test_error_form_follows_the_input(self, bare_geometry):
        # A scalar pressure raises the point's own error; an array wraps it.
        p = 2.0 * oracles.touch_onset_pressure(bare_geometry)
        with pytest.raises(ValueError, match="zero dielectric") as scalar:
            cap.capacitances(bare_geometry, p)
        assert type(scalar.value) is ValueError
        with pytest.raises(SweepPointError) as array:
            cap.capacitances(bare_geometry, [p])
        assert str(array.value.cause) == str(scalar.value)

    def test_point_error_is_a_value_error(self):
        assert issubclass(SweepPointError, ValueError)

    def test_rejected_point_raises_its_cause_pointwise(self, bare_geometry,
                                                       generic_thresholds):
        # Just above onset a bare device first sits at the gap, then in
        # contact without a dielectric: both causes must occur.
        pressures = [oracles.touch_onset_pressure(bare_geometry)]
        for _ in range(12):
            pressures.append(float(np.nextafter(pressures[-1], math.inf)))
        pressures.append(2.0 * pressures[0])
        causes = set()
        for p in pressures:
            try:
                cap.sweep_cp_curve(bare_geometry, [0.0, p], generic_thresholds)
            except SweepPointError as err:
                assert (err.index, err.pressure) == (1, p)
                causes.add(type(err.cause))
                with pytest.raises(type(err.cause)) as point:
                    cap.capacitance_at(bare_geometry, p)
                assert type(point.value) is type(err.cause)
                assert str(point.value) == str(err.cause)
        assert causes == {TouchStateError, ValueError}

    def test_csv_round_trip(self, default_curve):
        text = default_curve.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "pressure_pa,capacitance_f,mode"
        assert len(lines) == len(default_curve.points) + 1
        first = lines[1].split(",")
        assert float(first[0]) == default_curve.points[0].pressure
        assert float(first[1]) == default_curve.points[0].capacitance

    def test_json_embeds_geometry(self, default_curve, default_geometry, config):
        doc = json.loads(default_curve.to_json(default_geometry, config.thresholds))
        assert doc["geometry"]["radius_m"] == default_geometry.radius
        assert doc["thresholds"]["saturation_fraction"] == \
            config.thresholds.saturation_fraction
        assert len(doc["points"]) == len(default_curve.points)


# Finite floats whose repr and json encodings could plausibly differ.
_AWKWARD_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 0.1 + 0.2,
                   1e16, 1e22, -1.5e300, 123456789.0)


@pytest.mark.parametrize("geometry_id", [
    "", "default", 'say "hi", then \\ back', '"points": []',
    '\n  "points": []', "\u00d810 mm \u2014 Kapton \u2603"])
@pytest.mark.parametrize("points", ["none", "one", "all_modes", "awkward"])
@pytest.mark.parametrize("default_profile,calibrated", [
    (True, True), (False, True), (True, False), (False, False)])
def test_exports_match_encoder_oracles(default_curve, config, generic_thresholds,
                                       geometry_id, points, default_profile, calibrated):
    """Both exports against the encoders, for the default or the airgap
    profile's geometry block and the config's calibrated or a generic
    thresholds block."""
    d = default_curve
    columns = {
        "none": ((), (), ()),
        "one": (d.pressure[:1], d.capacitance[:1], d.mode[:1]),
        "all_modes": (d.pressure, d.capacitance, d.mode),
        "awkward": (_AWKWARD_FLOATS, tuple(-x for x in _AWKWARD_FLOATS),
                    tuple(OperatingMode(i % 4) for i in range(len(_AWKWARD_FLOATS)))),
    }[points]
    curve = cap.CPCurve(*columns, geometry_id=geometry_id)
    geom = config.geometry("default" if default_profile else "airgap")
    thresholds = config.thresholds if calibrated else generic_thresholds
    assert curve.to_csv() == oracles.cp_curve_csv(curve)
    assert curve.to_json(geom, thresholds) == \
        oracles.cp_curve_json(curve, geom, thresholds)


class TestExportText:
    """Both exports share text formatted once per curve."""

    def test_bytes_independent_of_call_order(self, default_curve, default_geometry,
                                             config):
        def fresh():
            return cap.CPCurve(default_curve.pressure, default_curve.capacitance,
                               default_curve.mode, geometry_id="default")

        th = config.thresholds
        json_first = fresh()
        json_text = json_first.to_json(default_geometry, th)
        csv_text = json_first.to_csv()
        twice = fresh()
        assert twice.to_csv() == twice.to_csv() == csv_text
        assert twice.to_json(default_geometry, th) == json_text
        other = fresh()
        assert other.to_csv() == csv_text
        assert other.to_json(default_geometry, th) == json_text

    @pytest.mark.parametrize("order", ["copy_first", "original_first"])
    def test_json_frame_same_for_equal_distinct_geometries(
            self, default_curve, default_geometry, config, order):
        copy = replace(default_geometry, laminate=replace(default_geometry.laminate))
        thresholds = replace(config.thresholds)
        assert copy == default_geometry and copy is not default_geometry
        pairs = [(copy, thresholds), (default_geometry, config.thresholds)]
        if order == "original_first":
            pairs.reverse()
        cap._json_frame.cache_clear()
        texts = [default_curve.to_json(g, th) for g, th in pairs]
        assert texts[0] == texts[1] == \
            oracles.cp_curve_json(default_curve, default_geometry, config.thresholds)

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0), (0.0, 0),
                                              (0, 0.0)])
    def test_json_frame_keeps_equal_values_that_print_differently(
            self, default_curve, default_geometry, config, first, second):
        # 0 == 0.0 == -0.0, yet json writes "0", "0.0" and "-0.0".
        for stress in (first, second):
            geom = replace(default_geometry, builtin_stress=stress)
            assert default_curve.to_json(geom, config.thresholds) == \
                oracles.cp_curve_json(default_curve, geom, config.thresholds)

    def test_views_match_columns(self, default_curve):
        d = default_curve
        assert d.pressures() == list(d.pressure)
        assert d.capacitances() == list(d.capacitance)
        assert d.points == tuple(cap.CPPoint(p, c, OperatingMode(m))
                                 for p, c, m in zip(d.pressure, d.capacitance, d.mode))
        assert len(d.points) == len(d.pressure) == 61

    def test_list_views_are_copies(self, default_curve):
        text = default_curve.to_csv()
        default_curve.pressures().append(1.0)
        default_curve.capacitances().clear()
        assert len(default_curve.pressure) == len(default_curve.capacitance) == 61
        assert default_curve.to_csv() == text

    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            cap.CPCurve((0.0, 1.0), (1e-12,), (0, 0))

    def test_csv_and_json_carry_the_same_float_strings(self, default_curve,
                                                       default_geometry, config):
        rows = [line.split(",") for line in default_curve.to_csv().splitlines()[1:]]
        lines = default_curve.to_json(default_geometry, config.thresholds).splitlines()

        def values(key):
            prefix = f'      "{key}": '
            return [l[len(prefix):].rstrip(",") for l in lines if l.startswith(prefix)]

        assert values("pressure_pa") == [r[0] for r in rows] == \
            [repr(pt.pressure) for pt in default_curve.points]
        assert values("capacitance_f") == [r[1] for r in rows] == \
            [repr(pt.capacitance) for pt in default_curve.points]
        assert values("mode") == [f'"{r[2]}"' for r in rows]

    @pytest.mark.parametrize("field", cap.CPPoint._fields)
    def test_point_fields_cannot_be_assigned(self, default_curve, field):
        pt = default_curve.points[0]
        with pytest.raises(AttributeError):
            setattr(pt, field, 1.0)

    def test_point_is_a_plain_value_tuple(self):
        pt = cap.CPPoint(1.0, 2e-12, OperatingMode.TOUCH)
        assert pt == (1.0, 2e-12, OperatingMode.TOUCH)
        assert pt[2] is pt.mode is OperatingMode.TOUCH

    def test_sweep_points_carry_operating_modes(self, default_curve):
        assert all(type(pt) is cap.CPPoint and type(pt.mode) is OperatingMode
                   for pt in default_curve.points)
        assert {pt.mode for pt in default_curve.points} == set(OperatingMode)


@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       finite=st.lists(st.floats(0.0, 60e3), max_size=6, unique=True),
       where=st.integers(0, 6))
def test_non_finite_pressure_rejected(default_geometry, config, bad, finite, where):
    finite = sorted(finite)
    pressures = finite[:where] + [bad] + finite[where:]
    message = f"finite, got {bad}"
    with pytest.raises(ValueError, match=message):
        cap.capacitance_at(default_geometry, bad)
    with pytest.raises(ValueError, match=message):
        cap.sweep_cp_curve(default_geometry, pressures, config.thresholds)
    with pytest.raises(ValueError, match=message):
        cal.model_capacitances(default_geometry, np.array(pressures))


def test_oracle_equivalence_random_cases(default_laminate):
    rng = np.random.default_rng(7)
    lam = default_laminate
    for _ in range(20):
        radius = float(rng.uniform(1e-3, 2e-2))
        gap = float(rng.uniform(50e-6, 800e-6))
        t1 = float(rng.uniform(0.0, 0.2)) * gap
        geom = mechanics.DeviceGeometry(
            radius=radius, laminate=lam, gap=gap, dielectric_thickness=t1,
            dielectric_rel_permittivity=float(rng.uniform(1.5, 8.0)))
        w0 = float(rng.uniform(0.01, 0.95)) * geom.electrical_gap
        closed = cap.normal_mode_capacitance(geom, untouched_state(w0))
        quad = oracles.normal_mode_capacitance_quadrature(geom, w0)
        assert closed == pytest.approx(quad, rel=1e-9, abs=0)


@pytest.mark.parametrize("profile", ["default", "airgap"])
def test_each_group_computed_once_per_geometry(config, monkeypatch, profile):
    # Every group the model reads is a cached property of the geometry:
    # construction computes the checked ones, an evaluation the rest, and
    # nothing computes one again.  D still comes from the module binding
    # mechanics.flexural_rigidity, which a benchmark can count.
    counts = Counter()

    def counted(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)
        return wrapper

    groups = ["flexural_rigidity", "c1", "c3", "load_term", "electrical_gap",
              "base_capacitance", "disk_prefactor", "contact_argument"]
    for name in groups:
        prop = vars(mechanics.DeviceGeometry)[name]
        assert isinstance(prop, functools.cached_property)
        monkeypatch.setattr(prop, "func", counted(name, prop.func))
    monkeypatch.setattr(mechanics, "flexural_rigidity",
                        counted("materials", mechanics.flexural_rigidity))
    geom = replace(config.geometry(profile))
    p = np.linspace(0.0, 60e3 if geom.dielectric_thickness
                    else 0.99 * oracles.touch_onset_pressure(geom), 61)
    cap.capacitances(geom, p)
    cap.sweep_cp_curve(geom, p, config.thresholds)
    assert counts == {name: 1 for name in [*groups, "materials"]}
