import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from touchcap.materials import (Laminate, LineFit, MaterialLayer,
                                flexural_rigidity, line_fit, neutral_plane,
                                r_squared)

# Golden values for the default Al-on-PI stack, frozen from independent
# numerical integration of the weighted-centroid and stiffness integrals.
GOLDEN_E = 1.4834783916574768e-05
GOLDEN_D = 5.747175304714495e-06
GOLDEN_D_LITERAL = 2.6709814917421968e-06


def layer(E, nu, t, name="L"):
    return MaterialLayer(name, youngs_modulus=E, poisson_ratio=nu, thickness=t)


def flexural_rigidity_two_layer_literal(laminate):
    """Oracle: the literal two-layer closed form for D.

    D = E_top[(h - e)^3 - (h_bot - e)^3] / (3 (1 - nu_top^2))
      + E_bot (h_bot - e)^3 / (3 (1 - nu_bot^2))

    The bottom-layer term drops the e^3 contribution of the material below
    the neutral plane, so this under-counts relative to the full stiffness
    integral of ``flexural_rigidity``.
    """
    if len(laminate.layers) == 1:
        only = laminate.layers[0]
        return only.youngs_modulus * only.thickness**3 / (
            12.0 * (1.0 - only.poisson_ratio**2))
    bot, top = laminate.layers
    e = neutral_plane(laminate)
    h = laminate.total_thickness
    h_bot = bot.thickness
    d_top = top.youngs_modulus * ((h - e) ** 3 - (h_bot - e) ** 3) / (
        3.0 * (1.0 - top.poisson_ratio**2))
    d_bot = bot.youngs_modulus * (h_bot - e) ** 3 / (
        3.0 * (1.0 - bot.poisson_ratio**2))
    return d_top + d_bot


class TestLayerValidation:
    def test_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            layer(0.0, 0.3, 1e-6)

    def test_rejects_poisson_out_of_range(self):
        with pytest.raises(ValueError):
            layer(1e9, 0.5, 1e-6)
        with pytest.raises(ValueError):
            layer(1e9, -0.1, 1e-6)

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError):
            layer(1e9, 0.3, 0.0)

    @given(st.sampled_from(["youngs_modulus", "poisson_ratio", "thickness"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_rejects_non_finite(self, field, value):
        values = {"youngs_modulus": 1e9, "poisson_ratio": 0.3, "thickness": 1e-6}
        values[field] = value
        with pytest.raises(ValueError, match=f"layer 'L': {field} must be finite"):
            MaterialLayer("L", **values)

    def test_rejects_three_layers(self):
        one = layer(1e9, 0.3, 1e-6)
        with pytest.raises(ValueError):
            Laminate((one, one, one))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Laminate(())


class TestNeutralPlane:
    def test_single_layer_is_half_thickness(self, pi_layer):
        assert neutral_plane(Laminate((pi_layer,))) == pytest.approx(12.5e-6, rel=1e-6, abs=0)

    def test_two_identical_layers_midplane(self):
        lam = Laminate((layer(3e9, 0.3, 10e-6), layer(3e9, 0.3, 10e-6)))
        assert neutral_plane(lam) == pytest.approx(10e-6, rel=1e-12, abs=0)

    def test_default_stack_golden(self, default_laminate):
        assert neutral_plane(default_laminate) == pytest.approx(GOLDEN_E, rel=1e-12, abs=0)

    def test_inside_stack(self, default_laminate):
        e = neutral_plane(default_laminate)
        assert 0.0 < e < default_laminate.total_thickness


class TestFlexuralRigidity:
    def test_single_layer_closed_form(self, pi_layer):
        d = flexural_rigidity(Laminate((pi_layer,)))
        expected = 2.5e9 * (25e-6) ** 3 / (12.0 * (1.0 - 0.34**2))
        assert d == pytest.approx(expected, rel=1e-12, abs=0)
        assert d == pytest.approx(3.67e-6, rel=0.01, abs=0)

    def test_split_into_identical_sublayers(self):
        whole = Laminate((layer(3e9, 0.3, 20e-6),))
        split = Laminate((layer(3e9, 0.3, 10e-6), layer(3e9, 0.3, 10e-6)))
        assert flexural_rigidity(split) == pytest.approx(
            flexural_rigidity(whole), rel=1e-12, abs=0)

    def test_default_stack_golden(self, default_laminate):
        assert flexural_rigidity(default_laminate) == pytest.approx(
            GOLDEN_D, rel=1e-12, abs=0)

    def test_two_layer_literal_golden(self, default_laminate):
        d_lit = flexural_rigidity_two_layer_literal(default_laminate)
        assert d_lit == pytest.approx(GOLDEN_D_LITERAL, rel=1e-12, abs=0)
        # The literal closed form drops part of the bottom layer's
        # contribution, so it must undercount the stiffness integral.
        assert d_lit < flexural_rigidity(default_laminate)

    def test_literal_single_layer_matches_canonical(self, pi_layer):
        lam = Laminate((pi_layer,))
        assert flexural_rigidity_two_layer_literal(lam) == pytest.approx(
            flexural_rigidity(lam), rel=1e-12, abs=0)


layer_st = st.builds(
    layer,
    st.floats(1e8, 500e9),
    st.floats(0.0, 0.49),
    st.floats(1e-7, 1e-3),
)


@given(layer_st, layer_st)
def test_neutral_plane_inside_stack(bottom, top):
    lam = Laminate((bottom, top))
    e = neutral_plane(lam)
    assert 0.0 < e < lam.total_thickness


@given(layer_st, st.floats(0.1, 10.0))
def test_cubic_thickness_scaling(single, k):
    base = flexural_rigidity(Laminate((single,)))
    scaled = flexural_rigidity(Laminate((
        layer(single.youngs_modulus, single.poisson_ratio,
              k * single.thickness),)))
    assert scaled == pytest.approx(k**3 * base, rel=1e-12, abs=0)


@given(layer_st)
def test_split_invariance(single):
    half = layer(single.youngs_modulus, single.poisson_ratio,
                 single.thickness / 2.0)
    assert flexural_rigidity(Laminate((half, half))) == pytest.approx(
        flexural_rigidity(Laminate((single,))), rel=1e-12, abs=0)


@given(layer_st, layer_st)
def test_layer_order_swap_preserves_rigidity(bottom, top):
    fwd = Laminate((bottom, top))
    rev = Laminate((top, bottom))
    assert flexural_rigidity(rev) == pytest.approx(
        flexural_rigidity(fwd), rel=1e-12, abs=0)
    # Mirroring the stack mirrors the neutral plane.
    assert neutral_plane(rev) == pytest.approx(
        fwd.total_thickness - neutral_plane(fwd), rel=1e-9, abs=0)


def test_line_fit_fields():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    fit = line_fit(x, 2.0 * x + 1.0)
    assert isinstance(fit, LineFit)
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # y with no spread about its mean is fitted exactly: R^2 is 1.
    assert line_fit(x, np.full(4, 5.0)).r_squared == 1.0
    # Also where the mean of equal samples rounds off their value (to
    # 1.7000000000000002e-12 here), leaving a TSS of rounding noise and an
    # R^2 of -8.44 from the ratio of rounding errors.
    assert line_fit(np.arange(9.0), np.full(9, 1.7e-12)).r_squared == 1.0


@given(st.integers(3, 40).flatmap(lambda n: st.lists(
           st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=n, max_size=n)),
       st.sampled_from([(0.0, 1.0), (2.2e-12, 1e-15), (0.0, 1e-12)]))
def test_r_squared_is_the_inline_formula(pairs, frame):
    # Samples with spread keep 1 - SSE/TSS, bit for bit, at unit and at
    # picofarad scale.
    offset, scale = frame
    y, fitted = (offset + scale * np.array(v) for v in zip(*pairs))
    tss = float(np.sum((y - y.mean()) ** 2))
    assume(np.ptp(y) > 0 and tss > 0)
    assert r_squared(y, fitted) == 1.0 - float(np.sum((y - fitted) ** 2)) / tss


@given(st.integers(3, 60), st.floats(1e-15, 1e6))
def test_r_squared_is_one_without_spread(n, value):
    y = np.full(n, value)
    assert r_squared(y, y * (1.0 + 1e-9)) == 1.0
    assert line_fit(np.arange(float(n)), y).r_squared == 1.0

