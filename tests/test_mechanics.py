import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from touchcap import mechanics
from touchcap.mechanics import DeviceGeometry, ModeThresholds, OperatingMode

import oracles

# Frozen from a bisection oracle on the cubic over [0, P R^4 / 64 D] with
# 1e-15 relative tolerance: full-scale device, default laminate, sigma = 0,
# P = 5 kPa.
GOLDEN_W0_5KPA = 0.0005605840315411636

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def newton_center_deflection(geom, pressure):
    """Oracle for the cubic c3 w^3 + c1 w = q: Newton from the linear bound.

    f is convex and the start q/c1 lies right of the root, so the iterates
    decrease monotonically; stop when rounding ends the descent.
    """
    q = pressure * geom.radius**4 / (64.0 * geom.flexural_rigidity)
    c1 = 1.0 + (geom.builtin_stress * geom.thickness * geom.radius**2
                / (16.0 * geom.flexural_rigidity))
    c3 = mechanics.STIFFENING_COEFF / geom.thickness**2
    w = q / c1
    for _ in range(500):
        nxt = w - (c3 * w**3 + c1 * w - q) / (3.0 * c3 * w**2 + c1)
        if not nxt < w:
            return w
        w = nxt
    raise AssertionError("oracle Newton iteration did not settle")


class TestSmallDeflection:
    def test_zero_load(self, bare_geometry):
        assert oracles.small_deflection_center(bare_geometry, 0.0) == 0.0

    def test_zero_stress_closed_form(self, bare_geometry):
        p = 123.0
        expected = p * bare_geometry.radius**4 / (
            64.0 * bare_geometry.flexural_rigidity)
        assert oracles.small_deflection_center(bare_geometry, p) == expected

    def test_stress_stiffens(self, bare_geometry):
        from dataclasses import replace
        stressed = replace(bare_geometry, builtin_stress=1e7)
        assert (oracles.small_deflection_center(stressed, 100.0)
                < oracles.small_deflection_center(bare_geometry, 100.0))

    def test_rejects_negative_pressure(self, bare_geometry):
        with pytest.raises(ValueError):
            oracles.small_deflection_center(bare_geometry, -1.0)


class TestTensionedPlateOracle:
    """The exact tensioned-plate deflection in its two limits, and the
    model's small-load excess over it on the default profile."""

    @staticmethod
    def with_kr(geom, kr):
        """``geom`` with the built-in stress that puts kR = R sqrt(N/D) at ``kr``."""
        return replace(geom, builtin_stress=kr**2 * geom.flexural_rigidity
                       / (geom.radius**2 * geom.thickness))

    @pytest.mark.parametrize("kr", [0.1, 0.2, 0.3])
    def test_bending_limit(self, default_geometry, kr):
        g = self.with_kr(default_geometry, kr)
        plate = g.radius**4 / (64.0 * g.flexural_rigidity)
        assert oracles.tensioned_plate_center(g, 1.0) == pytest.approx(
            plate * (1.0 - 5.0 * kr**2 / 72.0), rel=kr**4 / 100.0, abs=0)

    @pytest.mark.parametrize("kr", [1e4, 1e5, 1e6])
    def test_membrane_limit(self, default_geometry, kr):
        g = self.with_kr(default_geometry, kr)
        membrane = g.radius**2 / (4.0 * g.builtin_stress * g.thickness)
        assert oracles.tensioned_plate_center(g, 1.0) == pytest.approx(
            membrane * (1.0 - 2.0 / kr), rel=2.0 / kr**2, abs=0)

    def test_model_excess_on_default(self, default_geometry):
        # The model's factor 1 / (1 + (kR)^2 / 16) has the exact leading
        # term in both limits and stiffens too little between them.
        # Frozen, not a bound.
        g = default_geometry
        kr = g.radius * math.sqrt(g.builtin_stress * g.thickness / g.flexural_rigidity)
        excess = (mechanics.large_deflection_center(g, 1.0)
                  / oracles.tensioned_plate_center(g, 1.0) - 1.0)
        print(f"ORACLE built-in stress: model/exact - 1 = {excess:+.4%} "
              f"at 1 Pa (kR = {kr:.1f})")
        assert excess == pytest.approx(0.02131651, rel=1e-6, abs=0)


class TestLinearCenterDeflection:
    def test_matches_unstressed_oracle(self, bare_geometry):
        for p in (0.0, 1e-3, 5e3, 60e3):
            w = mechanics.linear_center_deflection(bare_geometry, p)
            assert type(w) is float
            assert w == oracles.small_deflection_center(bare_geometry, p)

    def test_array_matches_scalar(self, default_geometry):
        pressures = np.linspace(0.0, 80e3, 81)
        assert mechanics.linear_center_deflection(default_geometry, pressures).tolist() \
            == [mechanics.linear_center_deflection(default_geometry, p)
                for p in pressures.tolist()]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_pressure(self, bare_geometry, bad):
        with pytest.raises(ValueError, match="pressure must be"):
            mechanics.linear_center_deflection(bare_geometry, bad)


class TestLargeDeflection:
    def test_zero_load(self, bare_geometry):
        assert mechanics.large_deflection_center(bare_geometry, 0.0) == 0.0

    def test_bisection_golden(self, bare_geometry):
        w0 = mechanics.large_deflection_center(bare_geometry, 5e3)
        assert w0 == pytest.approx(GOLDEN_W0_5KPA, rel=1e-12, abs=0)

    def test_small_regime_agreement(self, bare_geometry):
        # Low enough pressure that the cubic stiffening term is negligible.
        p = 1e-3
        w = mechanics.large_deflection_center(bare_geometry, p)
        assert mechanics.STIFFENING_COEFF * (w / bare_geometry.thickness) ** 2 < 1e-5
        assert w == pytest.approx(
            oracles.small_deflection_center(bare_geometry, p), rel=1e-3, abs=0)

    def test_residual(self, bare_geometry):
        g = bare_geometry
        for p in (10.0, 1e3, 20e3, 60e3):
            w = mechanics.large_deflection_center(g, p)
            q = p * g.radius**4 / (64.0 * g.flexural_rigidity)
            s = (g.builtin_stress * g.thickness * g.radius**2
                 / (16.0 * g.flexural_rigidity))
            resid = w * (1.0 + mechanics.STIFFENING_COEFF
                         * (w / g.thickness) ** 2 + s) - q
            assert abs(resid) < 1e-12 * q

    @pytest.mark.parametrize("profile", ["default", "airgap", "fem_scaled"])
    def test_closed_form_matches_newton_oracle(self, config, profile):
        geom = config.geometry(profile)
        pressures = np.geomspace(1e-6, 1e8, 141)
        roots = mechanics.large_deflection_center(geom, pressures)
        c1 = 1.0 + (geom.builtin_stress * geom.thickness * geom.radius**2
                    / (16.0 * geom.flexural_rigidity))
        c3 = mechanics.STIFFENING_COEFF / geom.thickness**2
        for p, w in zip(pressures.tolist(), roots.tolist()):
            q = p * geom.radius**4 / (64.0 * geom.flexural_rigidity)
            assert abs(c3 * w**3 + c1 * w - q) < 1e-13 * q
            assert w == pytest.approx(newton_center_deflection(geom, p),
                                      rel=1e-13, abs=0)

    def test_array_matches_scalar(self, default_geometry):
        pressures = np.linspace(0.0, 80e3, 81)
        assert mechanics.large_deflection_center(default_geometry, pressures).tolist() \
            == [mechanics.large_deflection_center(default_geometry, p)
                for p in pressures.tolist()]

    def test_inverse_roundtrip(self, bare_geometry):
        for w0 in (1e-6, 1e-4, 5e-4):
            p = mechanics.pressure_for_center_deflection(bare_geometry, w0)
            assert mechanics.large_deflection_center(bare_geometry, p) == \
                pytest.approx(w0, rel=1e-12, abs=0)


class TestProfile:
    def test_center_edge_midpoint(self, bare_geometry):
        state = mechanics.solve_state(bare_geometry, 500.0)
        w0 = state.center_deflection
        R = bare_geometry.radius
        assert oracles.deflection_profile(state, bare_geometry, 0.0) == w0
        assert oracles.deflection_profile(state, bare_geometry, R) == 0.0
        assert oracles.deflection_profile(
            state, bare_geometry, R / math.sqrt(2.0)) == pytest.approx(
            w0 / 4.0, rel=1e-12, abs=0)

    def test_rejects_out_of_range(self, bare_geometry):
        state = mechanics.solve_state(bare_geometry, 500.0)
        with pytest.raises(ValueError):
            oracles.deflection_profile(state, bare_geometry, -1e-9)
        with pytest.raises(ValueError):
            oracles.deflection_profile(state, bare_geometry,
                                         bare_geometry.radius * 1.01)

    def test_rejects_touched_state(self, bare_geometry):
        p_touch = mechanics.touch_onset_pressure(bare_geometry) * 1.5
        state = mechanics.solve_state(bare_geometry, p_touch)
        assert state.touched
        with pytest.raises(ValueError):
            oracles.deflection_profile(state, bare_geometry, 0.0)


class TestContactRadius:
    def _pressure_for(self, geom, w0):
        return mechanics.pressure_for_center_deflection(geom, w0)

    def test_untouched_below_travel(self, bare_geometry):
        g = bare_geometry.travel
        p = self._pressure_for(bare_geometry, g / 2.0)
        assert mechanics.contact_radius(bare_geometry, p) == 0.0

    def test_onset_boundary(self, bare_geometry):
        p = self._pressure_for(bare_geometry, bare_geometry.travel)
        assert mechanics.contact_radius(bare_geometry, p) == \
            pytest.approx(0.0, abs=1e-6 * bare_geometry.radius)

    def test_four_times_travel(self, bare_geometry):
        p = self._pressure_for(bare_geometry, 4.0 * bare_geometry.travel)
        a = mechanics.contact_radius(bare_geometry, p)
        assert a == pytest.approx(
            bare_geometry.radius * math.sqrt(1.0 - 0.5), rel=1e-9)

    def test_onset_continuity(self, bare_geometry):
        p_on = mechanics.touch_onset_pressure(bare_geometry)
        for eps in (1e-6, 1e-8, 1e-10):
            a = mechanics.contact_radius(bare_geometry, p_on * (1.0 + eps))
            assert 0.0 < a < bare_geometry.radius * 0.05

    def test_strictly_increasing_once_positive(self, bare_geometry):
        p_on = mechanics.touch_onset_pressure(bare_geometry)
        ps = np.linspace(p_on * 1.01, p_on * 5.0, 20)
        a = [mechanics.contact_radius(bare_geometry, float(p)) for p in ps]
        assert all(b > c for b, c in zip(a[1:], a[:-1]))


class TestSolveState:
    def test_caps_deflection_at_travel(self, bare_geometry):
        p = mechanics.touch_onset_pressure(bare_geometry) * 2.0
        state = mechanics.solve_state(bare_geometry, p)
        assert state.center_deflection == bare_geometry.travel
        assert state.touched


class TestClassifyMode:
    def test_zero_pressure_normal(self, bare_geometry, generic_thresholds):
        assert mechanics.classify_mode(bare_geometry, 0.0, generic_thresholds) \
            is OperatingMode.NORMAL

    def test_mid_contact_is_touch(self, bare_geometry, generic_thresholds):
        # Construct the pressure putting a/R exactly at 0.3.
        g = bare_geometry.travel
        w0 = g / (1.0 - 0.3**2) ** 2
        p = mechanics.pressure_for_center_deflection(bare_geometry, w0)
        assert mechanics.classify_mode(bare_geometry, p, generic_thresholds) \
            is OperatingMode.TOUCH

    def test_default_device_boundaries(self, default_geometry, config):
        # Calibrated device: normal through ~8 kPa, transition to ~10 kPa,
        # touch to ~40 kPa, saturation beyond.
        th = config.thresholds
        modes = [mechanics.classify_mode(default_geometry, p, th)
                 for p in np.arange(0.0, 60e3 + 1, 1e3)]
        assert modes[0] is OperatingMode.NORMAL
        assert OperatingMode.TRANSITION in modes
        assert OperatingMode.TOUCH in modes
        assert modes[-1] is OperatingMode.SATURATION
        transition = next(p for p, m in zip(np.arange(0.0, 60e3 + 1, 1e3), modes)
                          if m is OperatingMode.TRANSITION)
        onset = next(p for p, m in zip(np.arange(0.0, 60e3 + 1, 1e3), modes)
                     if m is OperatingMode.TOUCH)
        sat = next(p for p, m in zip(np.arange(0.0, 60e3 + 1, 1e3), modes)
                   if m is OperatingMode.SATURATION)
        assert abs(transition - 8e3) <= 2e3
        assert 8e3 <= onset <= 10e3
        assert 38e3 <= sat <= 42e3

    def test_staircase(self, default_geometry, config):
        modes = [mechanics.classify_mode(default_geometry, float(p), config.thresholds)
                 for p in np.linspace(0.0, 80e3, 161)]
        assert all(b >= a for a, b in zip(modes, modes[1:]))


class TestThresholdValidation:
    def test_rejects_bad_transition(self, generic_thresholds):
        with pytest.raises(ValueError):
            replace(generic_thresholds, transition_fraction=1.5)

    def test_rejects_unordered_contact_fractions(self, generic_thresholds):
        with pytest.raises(ValueError):
            replace(generic_thresholds, touch_onset_fraction=0.7, saturation_fraction=0.6)

    @given(st.sampled_from(["transition_fraction", "touch_onset_fraction",
                            "saturation_fraction"]), NON_FINITE)
    def test_rejects_non_finite(self, generic_thresholds, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad}"):
            replace(generic_thresholds, **{field: bad})

    def test_no_field_defaults(self):
        with pytest.raises(TypeError, match="missing 3 required"):
            ModeThresholds()


class TestGeometryValidation:
    def test_rejects_gap_below_dielectric(self, default_laminate):
        with pytest.raises(ValueError):
            DeviceGeometry(radius=0.01, laminate=default_laminate, gap=10e-6,
                           dielectric_thickness=20e-6)

    def test_rejects_compressive_stress(self, default_laminate):
        with pytest.raises(ValueError):
            DeviceGeometry(radius=0.01, laminate=default_laminate, gap=400e-6,
                           builtin_stress=-1e6)

    @pytest.mark.parametrize("field,value,message", [
        ("radius", 0.0, "radius must be > 0"),
        ("gap", -1e-6, "gap must be > 0"),
        ("dielectric_thickness", -1e-9, "dielectric_thickness must be >= 0"),
        ("dielectric_rel_permittivity", 0.0, "relative permittivities must be > 0"),
        ("medium_rel_permittivity", -1.0, "relative permittivities must be > 0"),
    ])
    def test_rejects_out_of_range(self, default_geometry, field, value, message):
        with pytest.raises(ValueError, match=message):
            replace(default_geometry, **{field: value})

    @given(st.sampled_from(["radius", "gap", "builtin_stress", "dielectric_thickness",
                            "dielectric_rel_permittivity", "medium_rel_permittivity"]),
           NON_FINITE)
    def test_rejects_non_finite(self, default_geometry, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite, got {bad}"):
            replace(default_geometry, **{field: bad})


@pytest.mark.parametrize("call,message", [
    (lambda g: mechanics.DeflectionState(1e3, -1e-9), "center_deflection must be >= 0"),
    (lambda g: mechanics.DeflectionState(1e3, 1e-6, -1e-9), "contact_radius must be >= 0"),
    (lambda g: mechanics.pressure_for_center_deflection(g, -1e-9), "w0 must be >= 0"),
], ids=["center_deflection", "contact_radius", "inverse_w0"])
def test_rejects_negative_value(default_geometry, call, message):
    with pytest.raises(ValueError, match=message):
        call(default_geometry)


@given(NON_FINITE, st.lists(st.floats(0.0, 60e3), max_size=6), st.integers(0, 6))
def test_rejects_non_finite_pressure(default_geometry, bad, finite, where):
    pressures = finite[:where] + [bad] + finite[where:]
    with pytest.raises(ValueError, match=f"finite, got {bad}"):
        mechanics.large_deflection_center(default_geometry, np.array(pressures))
    with pytest.raises(ValueError, match=f"finite, got {bad}"):
        mechanics.large_deflection_center(default_geometry, bad)


@given(st.floats(0.0, 60e3), st.floats(0.0, 60e3))
def test_monotone_center_deflection(default_laminate, p1, p2):
    geom = DeviceGeometry(radius=0.01, laminate=default_laminate, gap=400e-6)
    lo, hi = sorted((p1, p2))
    assert mechanics.large_deflection_center(geom, lo) <= \
        mechanics.large_deflection_center(geom, hi)


@given(st.floats(1.0, 60e3))
def test_large_never_exceeds_small(default_laminate, p):
    geom = DeviceGeometry(radius=0.01, laminate=default_laminate, gap=400e-6)
    assert mechanics.large_deflection_center(geom, p) <= \
        oracles.small_deflection_center(geom, p)


@settings(max_examples=20, deadline=None)
@given(st.floats(10.0, 5e3))
def test_profile_volume(default_laminate, p):
    geom = DeviceGeometry(radius=0.01, laminate=default_laminate, gap=400e-6)
    state = mechanics.solve_state(geom, p)
    if state.touched:
        return
    R = geom.radius
    vol, _ = integrate.quad(
        lambda r: 2.0 * math.pi * r
        * oracles.deflection_profile(state, geom, r),
        0.0, R, epsrel=1e-12)
    expected = math.pi * R**2 * state.center_deflection / 3.0
    assert vol == pytest.approx(expected, rel=1e-9, abs=0)
