import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from touchcap import cli, mechanics, plate_fd
from touchcap.config import load_config
from touchcap.plate_fd import RadialGrid

CONFIG = load_config()


def exact_stencil(n: int) -> list[dict[int, Fraction]]:
    """The dr^4-scaled stencil in exact rationals, row i as {column: entry},
    its ghost nodes folded by index: w(-dr) = w(dr) at the center and
    w(R + dr) = w(R - dr) at the clamped edge."""
    rows = [{0: Fraction(16), 1: Fraction(-64, 3), 2: Fraction(16, 3)}]
    for i in range(1, n - 1):
        v = Fraction(1, i)  # dr / r
        row = {}
        for k, entry in zip(range(-2, 3), (1 - v, -4 + 2 * v - v**2 - v**3 / 2,
                                           6 + 2 * v**2, -4 - 2 * v - v**2 + v**3 / 2,
                                           1 + v)):
            j = {-1: 1, n: n - 2}.get(i + k, i + k)  # symmetry, clamped-edge ghosts
            row[j] = row.get(j, 0) + entry
        rows.append(row)
    rows.append({n - 1: Fraction(1)})  # w(R) = 0
    return rows


def exact_unit_solution(n: int) -> list[Fraction]:
    """The stencil's solution for a unit right-hand side (0 on the edge row),
    by banded Gaussian elimination in exact rationals."""
    rows = exact_stencil(n)
    y = [Fraction(1)] * (n - 1) + [Fraction(0)]
    for k in range(n):
        for r in range(k + 1, min(k + 3, n)):
            if m := rows[r].pop(k, 0) / rows[k][k]:
                for j, entry in rows[k].items():
                    if j > k:
                        rows[r][j] = rows[r].get(j, 0) - m * entry
                y[r] -= m * y[k]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        x[k] = (y[k] - sum(e * x[j] for j, e in rows[k].items() if j > k)) / rows[k][k]
    return x


class TestGrid:
    def test_spacing_spans_radius(self, scaled_geometry):
        # The grid is a node count; solve_plate spaces the nodes over the
        # geometry's radius, so the last node is the clamped edge.
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(101))
        assert len(sol.deflection) == len(sol.von_mises) == 101
        assert sol.max_von_mises[1] == scaled_geometry.radius

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            RadialGrid(4)
        with pytest.raises(ValueError):
            RadialGrid(15)

    @pytest.mark.parametrize("n", [plate_fd.MAX_NODE_COUNT + 1, 10**400])
    def test_rejects_fine_grid(self, n):
        with pytest.raises(ValueError, match="grid nodes must be in"):
            RadialGrid(n)

    def test_accepts_range_ends(self):
        assert RadialGrid(plate_fd.MIN_NODE_COUNT).node_count == 16
        assert RadialGrid(plate_fd.MAX_NODE_COUNT).node_count == 4001


class TestSolvePlate:
    def test_zero_load_zero_solution(self, scaled_geometry):
        sol = plate_fd.solve_plate(scaled_geometry, 0.0, RadialGrid(51))
        assert np.all(sol.deflection == 0.0)
        assert sol.max_von_mises[0] == 0.0

    def test_clamped_edge(self, scaled_geometry):
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(101))
        assert sol.deflection[-1] == 0.0
        # One-sided slope estimate at the edge vanishes vs. interior scale.
        dr = scaled_geometry.radius / (sol.grid.node_count - 1)
        slope = (sol.deflection[-1] - sol.deflection[-2]) / dr
        interior = np.max(np.abs(np.diff(sol.deflection))) / dr
        assert abs(slope) < 0.05 * interior

    def test_center_matches_analytic(self, scaled_geometry):
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(201))
        exact = mechanics.linear_center_deflection(scaled_geometry, 10e3)
        assert sol.center_deflection == pytest.approx(exact, rel=0.01, abs=0)

    def test_profile_shape(self, scaled_geometry):
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(201))
        r = np.linspace(0.0, scaled_geometry.radius, sol.grid.node_count)
        shape = (1.0 - (r / scaled_geometry.radius) ** 2) ** 2
        normalized = sol.deflection / sol.center_deflection
        assert np.max(np.abs(normalized - shape)) < 0.005

    def test_stress_and_deflection_locations(self, scaled_geometry):
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(201))
        assert sol.max_von_mises[1] >= 0.95 * scaled_geometry.radius
        assert int(np.argmax(np.abs(sol.deflection))) == 0

    def test_linear_scaling_with_pressure(self, scaled_geometry):
        grid = RadialGrid(101)
        w1 = plate_fd.solve_plate(scaled_geometry, 5e3, grid).deflection
        w2 = plate_fd.solve_plate(scaled_geometry, 10e3, grid).deflection
        assert np.allclose(w2, 2.0 * w1, rtol=1e-12, atol=0.0)

    def test_rejects_negative_pressure(self, scaled_geometry):
        with pytest.raises(ValueError):
            plate_fd.solve_plate(scaled_geometry, -1.0, RadialGrid(51))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_pressure(self, scaled_geometry, bad):
        with pytest.raises(ValueError, match=f"pressure must be finite, got {bad}"):
            plate_fd.solve_plate(scaled_geometry, bad, RadialGrid(51))

    @pytest.mark.parametrize("n", [16, 17, 31, 51, 100, 201, 401])
    def test_banded_matches_dense_oracle(self, scaled_geometry, n):
        # The oracle is the stencil's exact rational solve, so the check
        # needs no extended precision (7e-14 measured at 401 nodes).
        grid = RadialGrid(n)
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, grid)
        dr = scaled_geometry.radius / (n - 1)
        load = 10e3 / scaled_geometry.flexural_rigidity * dr**4
        expected = np.array([float(u) for u in exact_unit_solution(n)]) * load
        assert sol.deflection[:-1] == pytest.approx(expected[:-1], rel=1e-12, abs=0)
        assert sol.deflection[-1] == expected[-1] == 0.0

    @pytest.mark.parametrize("n", [16, 17, 40, 101])
    def test_quartic_residual_closed_form(self, n):
        # The closed form is 1 - A f / 64 for f_i = (N^2 - i^2)^2 on every
        # row, the center, fold and edge rows included, and the bands are
        # the stencil's entries rounded to doubles.
        stencil = exact_stencil(n)
        big_n = n - 1
        f = [(big_n**2 - i**2) ** 2 for i in range(n)]
        exact = [(i < big_n) - sum(e * f[j] for j, e in row.items()) / 64
                 for i, row in enumerate(stencil)]
        assert plate_fd._quartic_residual(n).tolist() == pytest.approx(
            [float(r) for r in exact], rel=1e-15, abs=0)
        dense = np.zeros((n, n))
        for i, row in enumerate(stencil):
            for j, e in row.items():
                dense[i, j] = e
        bands = plate_fd._biharmonic_bands(n)
        for k in range(5):  # column k of row i holds the entry of w_{i+k-2}
            i = np.arange(max(0, 2 - k), min(n, n + 2 - k))
            assert bands[i, k] == pytest.approx(dense[i, i + k - 2], rel=1e-15, abs=1e-15)

    def test_matches_exact_rational_solve(self, scaled_geometry):
        # Each node within 1e-11 of the center deflection of the stencil's
        # exact solution at 801 nodes (2.3e-13 measured), where the
        # discretization error is 6.9e-7.
        n = 801
        sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(n))
        load = mechanics.linear_center_deflection(scaled_geometry, 10e3) * 64 / (n - 1) ** 4
        expected = np.array([float(u) for u in exact_unit_solution(n)]) * load
        assert np.max(np.abs(sol.deflection - expected)) <= 1e-11 * expected[0]

    def test_memory_linear_in_nodes(self, scaled_geometry):
        grid = RadialGrid(3201)
        tracemalloc.start()
        try:
            plate_fd.solve_plate(scaled_geometry, 10e3, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One dense 3201 x 3201 matrix of doubles alone would take 82 MB.
        assert peak < 4e6


class TestConvergence:
    def test_errors_decrease_and_order(self, scaled_geometry):
        rows = plate_fd.convergence_study(scaled_geometry, 10e3, [51, 101, 201])
        errors = [r.relative_error for r in rows]
        assert errors[0] > errors[1] > errors[2]
        orders = plate_fd.observed_orders(rows)
        assert all(o >= 1.8 for o in orders)
        # Second-order scheme: error ratio per doubling close to 4.
        assert 3.0 < errors[0] / errors[1] < 6.0

    def test_single_count_no_slope(self, scaled_geometry):
        rows = plate_fd.convergence_study(scaled_geometry, 10e3, [51])
        assert len(rows) == 1
        assert plate_fd.observed_orders(rows) == []

    def test_single_layer_same_order(self, scaled_geometry):
        from dataclasses import replace
        from touchcap.materials import Laminate, MaterialLayer
        single = Laminate((MaterialLayer("PI", 2.5e9, 0.34, 25.2e-6),))
        geom = replace(scaled_geometry, laminate=single)
        orders = plate_fd.observed_orders(
            plate_fd.convergence_study(geom, 10e3, [51, 101, 201]))
        assert all(o >= 1.8 for o in orders)

    def test_rejects_unsorted_counts(self, scaled_geometry):
        with pytest.raises(ValueError):
            plate_fd.convergence_study(scaled_geometry, 10e3, [101, 51])

    @pytest.mark.parametrize("n", [101, 401, 1601, 3201, 4001])
    def test_center_error_law(self, scaled_geometry, n):
        # The error is O(h^2 ln h): e N^2 = 2.1121 - ln(N) / 4 for N = n - 1
        # (within 4.1e-4 at these counts), whose zero near n = 4675
        # lies beyond MAX_NODE_COUNT, where e is still positive.
        exact = mechanics.linear_center_deflection(scaled_geometry, 10e3)
        def error(nodes):
            sol = plate_fd.solve_plate(scaled_geometry, 10e3, RadialGrid(nodes))
            return (sol.center_deflection - exact) / exact
        assert error(n) * (n - 1) ** 2 == pytest.approx(
            2.1121 - math.log(n - 1) / 4, rel=0, abs=2e-3)
        assert error(plate_fd.MAX_NODE_COUNT) > 0

    def test_order_401_to_801(self, scaled_geometry):
        rows = plate_fd.convergence_study(scaled_geometry, 10e3, [401, 801])
        assert plate_fd.observed_orders(rows)[0] >= cli.VALIDATE_MIN_ORDER

    @settings(max_examples=40)
    @given(st.sampled_from(sorted(CONFIG.profiles)),
           st.floats(math.log(1e-3), math.log(1e6)).map(math.exp))
    def test_verdict_depends_on_nodes_alone(self, profile, pressure):
        # The solve is linear in P, and its error relative to P R^4 / (64 D)
        # depends on the grid alone, so validate's errors and orders are the
        # default run's (fem_scaled, 10 kPa) on every profile and pressure.
        def study(geom, p):
            rows = plate_fd.convergence_study(geom, p, list(cli.VALIDATE_NODES))
            return [r.relative_error for r in rows], plate_fd.observed_orders(rows)

        errors, orders = study(CONFIG.geometry(profile), pressure)
        want_errors, want_orders = study(CONFIG.geometry("fem_scaled"), 10e3)
        assert errors == pytest.approx(want_errors, rel=1e-9, abs=0)
        assert orders == pytest.approx(want_orders, rel=0, abs=1e-9)

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "pressure must be finite, got nan"),
        (math.inf, "pressure must be finite, got inf"),
        (0.0, "pressure must be > 0"),
        (-1.0, "pressure must be >= 0"),
        (1e-308, "deflection 0.0 m is below the smallest normal float"),
        (1e-300, "pressure 1e-300 Pa is too small"),
        (1e305, r"pressure 1e\+305 Pa is too large: the plate solution is beyond float range")])
    def test_rejects_bad_pressure(self, scaled_geometry, bad, message):
        with pytest.raises(ValueError, match=message):
            plate_fd.convergence_study(scaled_geometry, bad, [51, 101])


class TestHugeLoads:
    def test_stresses_finite_where_squares_overflow(self, scaled_geometry):
        # The von Mises squares overflow from about 7e151 Pa; the stresses
        # themselves scale with the load, without a RuntimeWarning.
        grid = RadialGrid(51)
        base = plate_fd.solve_plate(scaled_geometry, 1e4, grid)
        huge = plate_fd.solve_plate(scaled_geometry, 1e250, grid)
        assert huge.max_von_mises[0] == pytest.approx(base.max_von_mises[0] * 1e246,
                                                      rel=1e-12, abs=0)
        assert huge.max_von_mises[1] == base.max_von_mises[1]

    @pytest.mark.parametrize("profile", ["default", "fem_scaled"])
    def test_rejects_load_beyond_float_range(self, config, profile):
        with pytest.raises(ValueError, match=r"pressure 1e\+303 Pa is too large"):
            plate_fd.solve_plate(config.geometry(profile), 1e303, RadialGrid(51))


class TestLinearity:
    def test_high_r_squared(self, scaled_geometry):
        grid = RadialGrid(101)
        pressures = [2e3, 4e3, 6e3, 8e3, 10e3]
        lin = plate_fd.linearity_check(scaled_geometry, pressures, grid)
        assert lin.r_squared >= 1.0 - 1e-9

    def test_slope_equals_unit_response(self, scaled_geometry):
        grid = RadialGrid(101)
        lin = plate_fd.linearity_check(scaled_geometry,
                                       [2e3, 4e3, 6e3, 8e3, 10e3], grid)
        unit = plate_fd.solve_plate(scaled_geometry, 1.0, grid).center_deflection
        assert lin.slope == pytest.approx(unit, rel=1e-9, abs=0)

    def test_rejects_degenerate_pressures(self, scaled_geometry):
        grid = RadialGrid(51)
        with pytest.raises(ValueError):
            plate_fd.linearity_check(scaled_geometry, [1e3, 1e3, 1e3], grid)
        with pytest.raises(ValueError):
            plate_fd.linearity_check(scaled_geometry, [1e3, 2e3], grid)

    def test_rejects_pressures_beyond_sample_bound(self, scaled_geometry):
        # Each plate solve is finite here; the line fit through them once
        # overflowed and returned slope 0.0 and R^2 0.0.
        with pytest.raises(ValueError, match=r"x\[0\] must be at most 1e\+150 in magnitude"):
            plate_fd.linearity_check(scaled_geometry, [1e160, 2e160, 3e160], RadialGrid(51))
