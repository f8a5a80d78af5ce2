import ast
import json
import math
import os
import re
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import touchcap
from touchcap import calibration, capacitance, plate_fd
from touchcap.cli import MAX_SWEEP_STEPS, VALIDATE_NODES, main

FIXTURE = resources.files("touchcap.data").joinpath("synthetic_fit.csv")
FIXTURE_TRUE_GAP = 4.2e-4
# Sweep outputs frozen from the csv.writer / json.dumps exports; the
# cli_* files frozen from the other commands before their writers were
# shared.
GOLDEN = Path(__file__).parent / "golden"
# 5 pF stepping to 6 pF along a ramp from 1 s to 2 s: the 10% and 90%
# levels are crossed at 1.1 s and 1.9 s.
STEP_CSV = "time_s,capacitance_f\n" + "".join(
    f"{t!r},{5e-12 + 1e-12 * min(max(t - 1.0, 0.0), 1.0)!r}\n"
    for t in (i / 100 for i in range(401)))

# 20 samples of a convex curve on pressures 1e-300 Pa apart.
TINY_SPAN_CSV = "pressure_pa,capacitance_f\n" + "".join(
    f"{i * 1e-300!r},{5e-12 + 1e-16 * i * i!r}\n" for i in range(20))

@pytest.fixture
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestSweep:
    def test_default_sweep(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = run(runner, "sweep", "--steps", 61, "--output", out)
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 62
        modes = {line.split(",")[2] for line in lines[1:]}
        assert modes == {"normal", "transition", "touch", "saturation"}
        sidecar = json.loads((tmp_path / "sweep.json").read_text())
        assert len(sidecar["points"]) == 61

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "sweep.json"
        result = run(runner, "sweep", "--steps", 5, "--p-end", 5000,
                     "--format", "json", "--output", out)
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["geometry"]["radius_m"] == 0.01

    def test_single_step_usage_error(self, runner, tmp_path):
        result = run(runner, "sweep", "--steps", 1,
                     "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert "steps" in result.output

    @pytest.mark.parametrize("steps", [MAX_SWEEP_STEPS + 1, 10**400],
                             ids=["max_plus_one", "400_digits"])
    def test_too_many_steps_usage_error(self, runner, tmp_path, monkeypatch, steps):
        # The count is checked before the pressures are listed.
        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep_cp_curve called")
        monkeypatch.setattr(capacitance, "sweep_cp_curve", no_sweep)
        result = run(runner, "sweep", "--steps", steps, "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert f"{steps} is not in the range 2<=x<={MAX_SWEEP_STEPS}" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_most_steps_accepted(self, runner, tmp_path, monkeypatch):
        def counted(geom, pressures, **kwargs):
            raise AssertionError(f"sweep of {len(pressures)} points")
        monkeypatch.setattr(capacitance, "sweep_cp_curve", counted)
        result = run(runner, "sweep", "--steps", MAX_SWEEP_STEPS,
                     "--output", tmp_path / "x.csv")
        assert str(result.exception) == f"sweep of {MAX_SWEEP_STEPS} points"

    def test_unknown_profile_usage_error(self, runner, tmp_path):
        result = run(runner, "sweep", "--profile", "missing",
                     "--output", tmp_path / "x.csv")
        assert result.exit_code == 2

    def test_unwritable_output(self, runner, tmp_path):
        result = run(runner, "sweep", "--steps", 3, "--p-end", 2000,
                     "--output", tmp_path / "no" / "such" / "dir" / "x.csv")
        assert result.exit_code == 3

    def test_csv_output_colliding_with_sidecar_usage_error(self, runner, tmp_path):
        # CSV output named *.json would be overwritten by its own sidecar.
        out = tmp_path / "out.json"
        result = run(runner, "sweep", "--steps", 3, "--p-end", 2000, "--output", out)
        assert result.exit_code == 2
        assert str(out) in result.output
        assert list(tmp_path.iterdir()) == []

    def test_csv_output_upper_case_json_usage_error(self, runner, tmp_path):
        # On a case-insensitive filesystem the sidecar a.json is a.JSON.
        out = tmp_path / "a.JSON"
        result = run(runner, "sweep", "--steps", 3, "--p-end", 2000, "--output", out)
        assert result.exit_code == 2
        assert str(out) in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [("--p-end", "inf"),
                                            ("--p-start", "nan")])
    def test_non_finite_range_usage_error(self, runner, tmp_path, flag, value):
        result = run(runner, "sweep", flag, value, "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert f"{flag} must be finite, got {value}" in result.output

    def test_grid_overflow_usage_error(self, runner, tmp_path):
        # Finite inputs whose grid spacing times a step index overflows.
        result = run(runner, "sweep", "--p-end", "1e308", "--steps", 3,
                     "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert "(--p-end - --p-start) * (--steps - 1) is not finite" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_grid_finer_than_float_spacing_usage_error(self, runner, tmp_path):
        # 100 points between two adjacent floats repeat a pressure.
        result = run(runner, "sweep", "--p-start", 5, "--p-end", "5.000000000000001",
                     "--steps", 100, "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert all(flag in result.output for flag in ("--p-start", "--p-end", "--steps"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_outputs_take_umask_mode(self, runner, tmp_path, umask, mode):
        out = tmp_path / "sweep.csv"
        old = os.umask(umask)
        try:
            result = run(runner, "sweep", "--steps", 3, "--p-end", 2000,
                         "--output", out)
        finally:
            os.umask(old)
        assert result.exit_code == 0, result.output
        assert out.stat().st_mode & 0o777 == mode
        assert (tmp_path / "sweep.json").stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("args,message", [
        (["--p-start", 5, "--p-end", 5], "need --p-start < --p-end"),
        (["--p-start", -1], "--p-start must be >= 0"),
    ], ids=["empty_range", "negative_start"])
    def test_bad_range_usage_error(self, runner, tmp_path, args, message):
        result = run(runner, "sweep", *args, "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    def test_output_directory_io_error(self, runner, tmp_path):
        out = tmp_path / "out.csv"
        out.mkdir()
        result = run(runner, "sweep", "--steps", 3, "--p-end", 2000, "--output", out)
        assert result.exit_code == 3
        assert f"cannot write {out}" in result.output
        # The temp file is removed, and no sidecar is written.
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert list(out.iterdir()) == []

    def test_point_outside_model_fails_check(self, runner, tmp_path):
        # The airgap profile has no dielectric: contact has no capacitance.
        result = run(runner, "sweep", "--profile", "airgap",
                     "--output", tmp_path / "x.csv")
        assert result.exit_code == 1
        assert "point 2 (P = 2000.0 Pa)" in result.output
        assert "dielectric" in result.output
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(runner, "--quiet", "sweep", "--output", a).exit_code == 0
        assert run(runner, "--quiet", "sweep", "--output", b).exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("stem,args,count,modes", [
        ("default", [], 61, "normal, saturation, touch, transition"),
        ("dielectric_50um", ["--profile", "dielectric_50um", "--steps", 31], 31,
         "normal, saturation, touch, transition"),
        ("below_touch", ["--p-end", 5000, "--steps", 11], 11, "normal"),
    ])
    def test_golden_bytes(self, runner, tmp_path, stem, args, count, modes):
        out = tmp_path / "sweep.csv"
        result = run(runner, "sweep", *args, "--output", out)
        assert result.exit_code == 0, result.output
        assert result.output == (f"sidecar: {tmp_path / 'sweep.json'}\n"
                                 f"wrote {count} points to {out} (modes: {modes})\n")
        golden_json = (GOLDEN / f"{stem}.json").read_bytes()
        assert out.read_bytes() == (GOLDEN / f"{stem}.csv").read_bytes()
        assert (tmp_path / "sweep.json").read_bytes() == golden_json
        out = tmp_path / "only.json"
        result = run(runner, "sweep", *args, "--format", "json", "--output", out)
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == golden_json


class TestValidate:
    def test_passes_on_scaled_geometry(self, runner):
        result = run(runner, "validate")
        assert result.exit_code == 0, result.output
        assert "PASS" in result.output

    def test_coarse_grid_rejected(self, runner):
        result = run(runner, "validate", "--nodes", 4)
        assert result.exit_code == 2

    def test_repeated_grid_named(self, runner):
        result = run(runner, "validate", "--nodes", 101, "--nodes", 101)
        assert result.exit_code == 2
        assert "node_counts must be increasing, got [101, 101]" in result.output

    @pytest.mark.parametrize("nodes", [plate_fd.MAX_NODE_COUNT + 1, 10**400],
                             ids=["max_plus_one", "400_digits"])
    def test_fine_grid_rejected(self, runner, monkeypatch, nodes):
        # Every count is checked before the first solve allocates a grid.
        def no_solve(*args):
            raise AssertionError("solve_plate called")
        monkeypatch.setattr(plate_fd, "solve_plate", no_solve)
        result = run(runner, "validate", "--nodes", 51, "--nodes", nodes)
        assert result.exit_code == 2
        assert f"grid nodes must be in [16, 4001], got {nodes}" in result.output

    @pytest.mark.parametrize("value,message", [
        ("nan", "pressure must be finite, got nan"),
        ("inf", "pressure must be finite, got inf"),
        ("0", "pressure must be > 0"),
        ("1e-308", "pressure 1e-308 Pa is too small"),
        ("1e-300", "is below the smallest normal float")])
    def test_bad_pressure_usage_error(self, runner, value, message):
        result = run(runner, "validate", "--pressure", value)
        assert result.exit_code == 2
        assert message in result.output
        assert "PASS" not in result.output

    def test_ladder_reaching_4001_nodes_passes(self, runner):
        # The center error e follows e (n - 1)^2 = 2.112 - ln(n - 1) / 4,
        # so orders stay above 2 up to the range end and the finest error
        # keeps shrinking.  6401 nodes lies past the zero of e (near 4675),
        # where an order means nothing (4001 -> 6401 gave 0.510), and is
        # out of range.
        result = run(runner, "validate", "--nodes", 1001, "--nodes", 2001,
                     "--nodes", 4001)
        assert result.exit_code == 0, result.output
        orders = re.findall(r"\norder \d+->\d+: (\d+\.\d{3})", result.output)
        assert len(orders) == 2 and all(float(o) >= 2 for o in orders), result.output
        assert result.output.endswith("\nPASS\n")
        result = run(runner, "validate", "--nodes", 4001, "--nodes", 6401)
        assert result.exit_code == 2
        assert "grid nodes must be in [16, 4001], got 6401" in result.output

    def test_failing_study_exits_1(self, runner, monkeypatch):
        # No ladder in the node range fails on the shipped solver, so a
        # study with a 2% finest error that rises on refinement stands in.
        rows = [plate_fd.ConvergenceRow(51, 1e-9, 0.01),
                plate_fd.ConvergenceRow(101, 1e-9, 0.02)]
        monkeypatch.setattr(plate_fd, "convergence_study", lambda *args: rows)
        result = run(runner, "validate", "--nodes", 51, "--nodes", 101)
        assert result.exit_code == 1
        assert ("Error: validation failed: finest-grid error 2.000e-02 > 0.01; "
                "convergence order -1.000 < 1.8\n") in result.output
        assert "PASS" not in result.output

    def test_ladder_ignores_config_grid_nodes(self, runner, tmp_path):
        # A grid_nodes key in an older config does not set the ladder.
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        doc["solver"]["grid_nodes"] = 401
        config = tmp_path / "device.json"
        config.write_text(json.dumps(doc))
        result = run(runner, "--config", config, "validate")
        assert result.exit_code == 0, result.output
        nodes = [int(line.split()[0]) for line in result.output.splitlines()
                 if line.split() and line.split()[0].isdigit()]
        assert nodes == [51, 101, 201] == list(VALIDATE_NODES)
        assert result.output == run(runner, "validate").output


class TestFit:
    def test_bundled_fixture_recovers_gap(self, runner, tmp_path, monkeypatch):
        # fit fits and modes segments: fit never calls segment_modes.
        def no_segmentation(*args):
            raise AssertionError("segment_modes called")
        monkeypatch.setattr(calibration, "segment_modes", no_segmentation)
        out = tmp_path / "fit.json"
        result = run(runner, "fit", FIXTURE, "--free", "gap",
                     "--output", out)
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["converged"]
        assert abs(doc["params"]["gap"] - FIXTURE_TRUE_GAP) / FIXTURE_TRUE_GAP < 0.05
        residuals = (tmp_path / "fit.residuals.csv").read_text().strip().split("\n")
        assert residuals[0] == "pressure_pa,capacitance_f,model_f,residual_f"
        assert len(residuals) == 29

    def test_too_many_samples_skips_segmentation(self, runner, tmp_path, monkeypatch):
        def no_tables(*args):
            raise AssertionError("_knot_tables called")
        monkeypatch.setattr(calibration, "_knot_tables", no_tables)
        n = calibration.MAX_SEGMENT_SAMPLES + 1
        data = tmp_path / "sweep.csv"
        assert run(runner, "--quiet", "sweep", "--steps", n,
                   "--output", data).exit_code == 0
        out = tmp_path / "fit.json"
        result = run(runner, "fit", data, "--output", out)
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["converged"]
        assert len((tmp_path / "fit.residuals.csv").read_text().splitlines()) == n + 1

    def test_tiny_pressure_span_skips_segmentation(self, runner, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text(TINY_SPAN_CSV)
        out = tmp_path / "fit.json"
        result = run(runner, "fit", data, "--output", out)
        assert result.exit_code == 0, result.output
        assert out.exists()
        assert len((tmp_path / "fit.residuals.csv").read_text().splitlines()) == 21

    def test_malformed_csv_names_line(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pressure_pa,capacitance_f\n0.0,7e-12\nhello,1\n")
        result = run(runner, "fit", bad, "--output", tmp_path / "f.json")
        assert result.exit_code == 3
        assert "line 3" in result.output

    def test_unknown_free_param(self, runner):
        result = run(runner, "fit", FIXTURE, "--free", "radius")
        assert result.exit_code == 2
        assert "radius" in result.output

    def test_repeated_free_param(self, runner, tmp_path):
        # The first copy got a zero Jacobian column, and the fit spent 13
        # model evaluations instead of 9.
        out = tmp_path / "fit.json"
        result = run(runner, "fit", FIXTURE, "--free", "gap", "--free", "gap",
                     "--output", out)
        assert result.exit_code == 2
        assert "fit parameter 'gap' is given more than once" in result.output
        assert not out.exists()

    def test_missing_data_file(self, runner, tmp_path):
        result = run(runner, "fit", tmp_path / "nope.csv")
        assert result.exit_code == 3

    def test_start_without_model_value_usage_error(self, runner, tmp_path):
        # The airgap profile has no dielectric, so no touched sample has a
        # capacitance at its bundled gap.
        result = run(runner, "fit", FIXTURE, "--profile", "airgap",
                     "--output", tmp_path / "fit.json")
        assert result.exit_code == 2
        assert "no value at the starting point: P = 3000.0 Pa" in result.output
        assert "dielectric" in result.output
        assert not (tmp_path / "fit.json").exists()

    def test_iteration_cap_fails_check_after_writing(self, runner, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(calibration, "MAX_FIT_ITERATIONS", 1)
        out = tmp_path / "fit.json"
        result = run(runner, "fit", FIXTURE, "--output", out)
        assert result.exit_code == 1
        assert (f"fit did not converge after 1 iterations; best-so-far written "
                f"to {out}") in result.output
        assert json.loads(out.read_text())["converged"] is False
        assert len((tmp_path / "fit.residuals.csv").read_text().splitlines()) == 29

    def test_airgap_fits_dielectric_thickness(self, runner, tmp_path):
        out = tmp_path / "fit.json"
        result = run(runner, "fit", FIXTURE, "--profile", "airgap",
                     "--free", "dielectric_thickness", "--output", out)
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["converged"]


class TestServo:
    def test_endpoint_angles(self, runner, tmp_path):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", 10000, 25000, 40000, "--output", out)
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert [float(r[2]) for r in rows] == [0.0, 45.0, 90.0]

    def test_below_range_clamped(self, runner, tmp_path):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", 0, 2000, 5000, "--output", out)
        assert result.exit_code == 0, result.output
        rows = out.read_text().strip().split("\n")[1:]
        assert all(float(r.split(",")[2]) == 0.0 for r in rows)

    def test_sweep_file_row_counts_match(self, runner, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert run(runner, "--quiet", "sweep", "--steps", 13,
                   "--output", sweep_out).exit_code == 0
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", "--data", sweep_out, "--output", out)
        assert result.exit_code == 0, result.output
        assert len(out.read_text().strip().split("\n")) == \
            len(sweep_out.read_text().strip().split("\n"))

    def test_requires_some_input(self, runner):
        assert run(runner, "servo").exit_code == 2

    def test_pressures_and_data_usage_error(self, runner, tmp_path):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", 1000, "--data", GOLDEN / "default.csv",
                     "--output", out)
        assert result.exit_code == 2
        assert "give either pressures or --data, not both" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_argument_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", "--output", out, "--", 1000, value)
        assert result.exit_code == 2
        assert f"finite, got {value}" in result.output
        assert not out.exists()

    def test_negative_argument_usage_error(self, runner, tmp_path):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", "--output", out, "--", 1000, -5)
        assert result.exit_code == 2
        assert "pressure must be >= 0" in result.output
        assert not out.exists()

    def test_point_outside_model_fails_check(self, runner, tmp_path):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", "--profile", "airgap", "--output", out,
                     "--", 1000, 60000)
        assert result.exit_code == 1
        assert "P = 60000.0 Pa" in result.output
        assert "dielectric" in result.output
        assert not out.exists()

    def test_non_finite_data_row_parse_error(self, runner, tmp_path):
        data = tmp_path / "p.csv"
        data.write_text("pressure_pa\n1000.0\nnan\n")
        result = run(runner, "servo", "--data", data,
                     "--output", tmp_path / "servo.csv")
        assert result.exit_code == 3
        assert "line 3" in result.output and "finite" in result.output

    @staticmethod
    def default_profile_config(tmp_path, **fields) -> Path:
        doc = bundled_config()
        doc["profiles"]["default"].update(fields)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_subnormal_dielectric_config_error(self, runner, tmp_path):
        # The touched-disk prefactor eps0 eps_t pi R^2 / t1 is inf here; it
        # went unchecked, and servo exited 0 writing nan.
        cfg = self.default_profile_config(tmp_path, dielectric_thickness_m=5e-324)
        out = tmp_path / "servo.csv"
        result = run(runner, "--config", cfg, "servo", 0, 1000, "--output", out)
        assert result.exit_code == 3, result.output
        assert "touched-disk prefactor" in result.output
        assert "dielectric_thickness_m" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("pressure", [1e50, 1e90])
    def test_tiny_gap_after_contact(self, runner, tmp_path, pressure):
        # x = sqrt(W0 / (eps_r d_e)) overflows after contact, where u x is
        # kappa = 0.88 at every W0.  With x taken as inf, 1e90 Pa wrote nan
        # and 1e50 Pa failed as reaching the electrical gap.
        cfg = self.default_profile_config(tmp_path, gap_m=2e-300,
                                          dielectric_thickness_m=1e-300)
        out = tmp_path / "servo.csv"
        result = run(runner, "--config", cfg, "servo", pressure, "--output", out)
        assert result.exit_code == 0, result.output
        c = float(out.read_text().splitlines()[1].split(",")[1])
        # The free annulus is below 1e-150 of the touched disk.
        geom = touchcap.load_config(cfg).geometry()
        assert c == pytest.approx(geom.disk_prefactor, rel=1e-15)


class TestModes:
    def test_segments_sweep_output(self, runner, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        assert run(runner, "--quiet", "sweep", "--steps", 31,
                   "--output", sweep_out).exit_code == 0
        out = tmp_path / "modes.json"
        result = run(runner, "modes", sweep_out, "--output", out)
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert len(doc["boundaries"]) == 3
        assert len(doc["slopes"]) == 4

    def test_too_few_samples(self, runner, tmp_path):
        small = tmp_path / "small.csv"
        small.write_text("pressure_pa,capacitance_f\n"
                         + "".join(f"{i}.0,{7 + i}e-12\n" for i in range(5)))
        assert run(runner, "modes", small).exit_code == 2

    def test_too_many_samples_usage_error(self, runner, tmp_path, monkeypatch):
        def no_tables(*args):
            raise AssertionError("_knot_tables called")
        monkeypatch.setattr(calibration, "_knot_tables", no_tables)
        n = calibration.MAX_SEGMENT_SAMPLES + 1
        data = tmp_path / "long.csv"
        data.write_text("pressure_pa,capacitance_f\n"
                        + "".join(f"{i}.0,{7 + i / n!r}e-12\n" for i in range(n)))
        out = tmp_path / "modes.json"
        result = run(runner, "modes", data, "--output", out)
        assert result.exit_code == 2
        assert f"got {n}" in result.output
        assert not out.exists()

    def test_long_line_scores_one_first_knot(self, runner, tmp_path, monkeypatch):
        # Every first knot fits a straight line with an SSE in bin 0; the
        # search settles on the smallest without scoring the others.
        n = calibration.MAX_SEGMENT_SAMPLES
        data = tmp_path / "line.csv"
        data.write_text("pressure_pa,capacitance_f\n"
                        + "".join(f"{i}.0,{5e-12 + 2e-16 * i!r}\n" for i in range(n)))
        calls = []
        score = calibration._score_first_knot

        def counted(*args):
            calls.append(args[-1])
            return score(*args)

        monkeypatch.setattr(calibration, "_score_first_knot", counted)
        result = run(runner, "modes", data, "--output", tmp_path / "modes.json")
        assert result.exit_code == 0, result.output
        assert calls == [calibration.MIN_GAP]

    def test_tiny_pressure_span_usage_error(self, runner, tmp_path):
        # The knots of pressures 1e-300 apart cannot be re-solved unscaled.
        data = tmp_path / "tiny.csv"
        data.write_text(TINY_SPAN_CSV)
        out = tmp_path / "modes.json"
        result = run(runner, "modes", data, "--output", out)
        assert result.exit_code == 2
        assert "Usage: main modes " in result.output
        assert "re-solve has rank" in result.output
        assert not out.exists()

    def test_step_response_rise_time(self, runner, tmp_path):
        step = tmp_path / "step.csv"
        step.write_text(STEP_CSV)
        out = tmp_path / "rise.json"
        result = run(runner, "modes", step, "--output", out)
        assert result.exit_code == 0, result.output
        rise = json.loads(out.read_text())["rise_time_s"]
        assert list(json.loads(out.read_text())) == ["rise_time_s"]
        assert rise == pytest.approx(0.8, rel=1e-9)
        assert f"rise time (s): {rise!r}" in result.output

    def test_flat_time_series_usage_error(self, runner, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("time_s,capacitance_f\n"
                        + "".join(f"{i / 10!r},5e-12\n" for i in range(50)))
        out = tmp_path / "rise.json"
        result = run(runner, "modes", flat, "--output", out)
        assert result.exit_code == 2
        assert "no detectable step" in result.output
        assert not out.exists()


class TestConfigHandling:
    def test_missing_config_file(self, runner):
        result = run(runner, "--config", "/no/such/config.json", "validate")
        assert result.exit_code == 3

    def test_invalid_config(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"profiles": {}}))
        result = run(runner, "--config", bad, "validate")
        assert result.exit_code == 3
        assert "default" in result.output

    def test_malformed_config_value_parse_error(self, runner, tmp_path):
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        doc["profiles"]["default"]["radius_m"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(runner, "--config", bad, "validate")
        assert result.exit_code == 3
        assert "radius_m must be a number" in result.output

    def test_config_integer_too_large_parse_error(self, runner, tmp_path):
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        doc["profiles"]["default"]["radius_m"] = 10**400
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(runner, "--config", bad, "validate")
        assert result.exit_code == 3
        assert "radius_m is too large for a float" in result.output

    def test_non_utf8_config_parse_error(self, runner, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + json.dumps({"profiles": {}}).encode("utf-16-le"))
        result = run(runner, "--config", bad, "sweep")
        assert result.exit_code == 3
        assert f"invalid config: {bad} is not UTF-8 text" in result.output

    def test_misspelt_key_parse_error(self, runner, tmp_path):
        # Read as an unknown key, builtin_stress swept a device without
        # built-in stress at exit 0.
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        profile = doc["profiles"]["default"]
        profile["builtin_stress"] = profile.pop("builtin_stress_pa")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "sweep.csv"
        result = run(runner, "--config", bad, "sweep", "--output", out)
        assert result.exit_code == 3
        assert ("invalid config: profiles.default: unknown key 'builtin_stress' "
                "(builtin_stress is builtin_stress_pa)") in result.output
        assert not out.exists()

    @pytest.mark.parametrize("drop,key", [
        (None, "transition_fraction"),
        ("touch_onset_fraction", "touch_onset_fraction"),
    ], ids=["no_block", "no_onset"])
    def test_missing_threshold_parse_error(self, runner, tmp_path, drop, key):
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        if drop is None:
            del doc["thresholds"]
        else:
            del doc["thresholds"][drop]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(runner, "--config", bad, "sweep")
        assert result.exit_code == 3
        assert f"invalid config: thresholds: missing field '{key}'" in result.output

    @pytest.mark.parametrize("section,key,value,message", [
        ("solver", "fit_bounds", {"gap": [math.nan, 1e-3]},
         "solver.fit_bounds.gap must be finite with lo < hi, got [nan, 0.001]"),
        ("servo", "pressure_min_pa", math.nan, "servo: p_min must be finite, got nan"),
        ("servo", "angle_max_deg", math.inf, "servo: angle_max must be finite, got inf"),
    ], ids=["nan_gap_bound", "nan_servo_pressure", "inf_servo_angle"])
    def test_bad_config_value_stops_sweep(self, runner, tmp_path, section, key,
                                          value, message):
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        doc[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        result = run(runner, "--config", bad, "sweep", "--output", out / "x.csv")
        assert result.exit_code == 3
        assert message in result.output
        assert list(out.iterdir()) == []


# Each numeric field of the bundled default profile, as its path in the
# profile object, and one invocation of each command on that profile.
PROFILE_NUMBERS = [(key,) for key in (
    "radius_m", "gap_m", "builtin_stress_pa", "dielectric_thickness_m",
    "dielectric_rel_permittivity", "medium_rel_permittivity")] + [
    ("layers", i, key) for i in range(2)
    for key in ("youngs_modulus_pa", "poisson_ratio", "thickness_m")]
PROFILE_COMMANDS = {
    "sweep": ["sweep", "--output", "out.csv"],
    "validate": ["validate", "--profile", "default"],
    "servo": ["servo", 12000, 30000, "--output", "servo.csv"],
    "fit": ["fit", FIXTURE, "--output", "fit.json"],
    "modes": ["modes", FIXTURE, "--output", "modes.json"],
}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.mark.parametrize("command", list(PROFILE_COMMANDS))
@pytest.mark.parametrize("value", [1e-300, 1e300])
@pytest.mark.parametrize("path", PROFILE_NUMBERS,
                         ids=lambda path: ".".join(map(str, path)))
def test_extreme_profile_number(runner, tmp_path, monkeypatch, path, value, command):
    """A default-profile number at 1e-300 or 1e300 ends in a documented
    exit code, never in a traceback, and a run that succeeds writes no NaN
    or infinity.  A radius or layer thickness of 1e300 puts a quantity
    derived from it out of float range, so the config is a parse error
    naming the field."""
    doc = json.loads(resources.files("touchcap.data")
                     .joinpath("default_device.json").read_text())
    target = doc["profiles"]["default"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    result = run(runner, "--config", "cfg.json", *PROFILE_COMMANDS[command])
    assert isinstance(result.exception, (SystemExit, type(None))), result.exc_info
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code == 0:
        for out in tmp_path.iterdir():
            assert not NON_FINITE.search(out.read_text()), out.name
    if value == 1e300 and path[-1] in ("radius_m", "thickness_m"):
        assert result.exit_code == 3
        assert "invalid config: profiles.default: the " in result.output
        assert path[-1] in result.output


# Per command, one library call it lets raise, and an invocation that
# reaches it.
LIBRARY_CALLS = {
    "sweep": (capacitance, "sweep_cp_curve", ["sweep", "--output", "x.csv"]),
    "validate": (plate_fd, "convergence_study", ["validate"]),
    "fit": (calibration, "fit_model", ["fit", FIXTURE, "--output", "fit.json"]),
    "servo": (capacitance, "capacitances", ["servo", 1000, "--output", "servo.csv"]),
    "modes": (calibration, "segment_modes", ["modes", FIXTURE, "--output", "modes.json"]),
}


@pytest.mark.parametrize("command", list(LIBRARY_CALLS))
@pytest.mark.parametrize("error,code", [
    (capacitance.SweepPointError(3, 4000.0, ValueError("no value")), 1),
    (ValueError("bad input"), 2),
], ids=["point_error", "value_error"])
def test_library_error_exit_code(runner, tmp_path, monkeypatch, command, error, code):
    # A point without a model value is a failure; any other ValueError is
    # a usage error with the command's usage line.
    module, name, args = LIBRARY_CALLS[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(module, name, fail)
    monkeypatch.chdir(tmp_path)
    result = run(runner, *args)
    assert result.exit_code == code
    assert f"Error: {error}\n" in result.output
    assert (f"Usage: main {command} " in result.output) == (code == 2)
    assert list(tmp_path.iterdir()) == []


# Cells and headers that have broken CSV readers: non-finite and extreme
# numbers, subnormals, empty cells, NUL, Arabic-Indic digits (which
# float() reads), text, wrong or missing columns and a byte-order mark.
CSV_TOKENS = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e-300", "-1", "0",
              "", " ", "\x00", "\u0661\u0662\u0663", "abc", "1,2"]
CSV_HEADERS = ["pressure_pa,capacitance_f", "time_s,capacitance_f",
               "capacitance_f,pressure_pa", "pressure_pa", "volts,amps",
               "\ufeffpressure_pa,capacitance_f", ""]
CSV_COMMANDS = {
    "modes": ["modes", "in.csv", "--output", "modes.json"],
    "fit": ["fit", "in.csv", "--output", "fit.json"],
    "servo": ["servo", "--data", "in.csv", "--output", "servo.csv"],
}


@st.composite
def measured_csvs(draw) -> str:
    """A headed two-column CSV of a smooth or flat curve on an evenly
    spaced abscissa, with up to three cells replaced by tokens."""
    n = draw(st.integers(0, 30))
    step = draw(st.sampled_from([1e3, 1e-3, 1e-300, 1e300, 5e-324]))
    curve = draw(st.sampled_from([1e-16, 0.0]))
    rows = [[repr(step * i), repr(5e-12 + curve * i * i)] for i in range(n)]
    for i, j, token in draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 2),
                                               st.sampled_from(CSV_TOKENS)), max_size=3)):
        if i < n:
            rows[i][j:j + 1] = [token]
    header = draw(st.sampled_from(CSV_HEADERS))
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def csv_values(text: str) -> tuple[list[float], int]:
    """The numbers in a CSV's cells and the count of its non-blank rows
    below the header: what a usage error about it may name."""
    rows = [line for line in text.removeprefix("\ufeff").splitlines() if line.strip()][1:]
    values = []
    for cell in ",".join(rows).split(","):
        try:
            values.append(float(cell))
        except ValueError:
            pass
    return values, len(rows)


def names_cause(output: str, values=(), samples=None) -> bool:
    """Whether the error line of a usage error (exit 2) names its cause as
    a whole token: the repr of one of the float ``values``, a CSV line
    ("line 7"), or the number of ``samples`` read ("got 7", "7 samples")."""
    tokens = [rf"(?<![\w.+-]){re.escape(repr(float(v)))}(?![\w.])" for v in values]
    tokens.append(r"\bline \d+\b")
    if samples is not None:
        tokens += [rf"\bgot {samples}\b", rf"\b{samples} samples\b"]
    message = output.strip().splitlines()[-1]
    return message.startswith("Error: ") and re.search("|".join(tokens), message) is not None


@pytest.mark.parametrize("message,named", [
    ("Error: need at least 12 samples, got 7", True),
    ("Error: need at least 12 samples", False),
    ("Error: no detectable step in 7 samples: the amplitude 0.0 F", True),
    ("Error: degenerate data: capacitance is constant at 5e-12 F", True),
    ("Error: degenerate data: capacitance is constant", False),
    ("Error: degenerate data: capacitance is constant at 5e-120 F", False),
    ("Error: degenerate data: capacitance is constant at 15e-12 F", False),
    ("Error: in.csv line 3: could not convert 'abc'", True),
    ("Error: the amplitude is not above the baseline noise", False),
    ("Error: pressure must be >= 0, got -1.0", True),
    ("Error: pressure must be >= 0", False),
    ("no Error: prefix got 7", False),
])
def test_names_cause(message, named):
    # The exit-2 check of the generated tests below: a message stripped of
    # its value, count or line, or naming another value, does not pass.
    assert names_cause(message, [5e-12, -1.0, 2.0, 1000.0], samples=7) == named


@pytest.mark.parametrize("command", list(CSV_COMMANDS))
@settings(max_examples=40, deadline=None)
@given(text=measured_csvs())
def test_generated_csv_exit_code(command, text):
    """Any drawn CSV ends in a documented exit code, never in a traceback,
    and a run that succeeds writes no NaN or infinity.  A usage error
    names a line, the sample count or a value of the CSV."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("in.csv").write_bytes(text.encode())
        result = run(runner, *CSV_COMMANDS[command])
        assert isinstance(result.exception, (SystemExit, type(None))), result.exc_info
        assert result.exit_code in (0, 1, 2, 3), result.output
        if result.exit_code == 0:
            assert not NON_FINITE.search(result.output)
            for out in Path().iterdir():
                if out.name != "in.csv":
                    assert not NON_FINITE.search(out.read_text()), out.name
        elif result.exit_code == 2:
            values, samples = csv_values(text)
            assert names_cause(result.output, values, samples), result.output


def bundled_config() -> dict:
    return json.loads(resources.files("touchcap.data")
                      .joinpath("default_device.json").read_text())


def config_leaves(doc: dict) -> list[tuple]:
    """Paths of the config's numeric leaves: each number of a profile and
    of its layers, each threshold and servo endpoint, and each
    solver.fit_bounds entry and either of its bounds."""
    def numbers(path, node):
        return [(*path, key) for key, value in node.items()
                if isinstance(value, (int, float))]

    paths = []
    for name, profile in doc["profiles"].items():
        paths += numbers(("profiles", name), profile)
        for i, layer in enumerate(profile["layers"]):
            paths += numbers(("profiles", name, "layers", i), layer)
    paths += numbers(("thresholds",), doc["thresholds"]) + numbers(("servo",), doc["servo"])
    for name in doc["solver"]["fit_bounds"]:
        paths += [("solver", "fit_bounds", name, *end) for end in ((), (0,), (1,))]
    return paths


CONFIG_LEAVES = config_leaves(bundled_config())
LEAF_VALUES = [5e-324, 1e-300, 1e300, 0, -1, True, "x", None, [], {}]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONFIG_LEAVES), st.sampled_from(LEAF_VALUES))
@example(("profiles", "fem_scaled", "medium_rel_permittivity"), 1e300)
@example(("servo", "pressure_min_pa"), 1e300)
@example(("servo", "angle_max_deg"), 0)
def test_config_leaf_exit_code(path, value):
    """Each command, run on the bundled config with one leaf set to an
    extreme, zero, negative or non-number value, ends in a documented
    exit code, never in a traceback: 0 with no NaN or infinity written,
    2 naming a number of the command, the leaf or the data it read, or 3
    naming the leaf's key or its profile.  The examples once ended
    otherwise: a fit whose model capacitance (6.95e284 F) overflowed its
    sum of squares, and servo messages that named the dataclass fields
    and not the JSON keys."""
    doc = bundled_config()
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    profile = ("--profile", path[1]) if path[0] == "profiles" else ()
    names = [step for step in path if isinstance(step, str)][-1:]
    if profile:
        names.append(f"profiles.{path[1]}")
    commands = [("sweep", "--steps", 21, "--output", "sweep.csv", *profile),
                ("validate", "--nodes", 21, "--nodes", 41, *profile),
                ("servo", 0, 5e3, 25e3, 60e3, "--output", "servo.csv", *profile),
                ("modes", FIXTURE, "--output", "modes.json"),
                ("fit", FIXTURE, "--output", "fit.json", *profile)]
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("config.json").write_text(json.dumps(doc))
        for command in commands:
            result = run(runner, "--config", "config.json", *command)
            assert isinstance(result.exception, (SystemExit, type(None))), result.exc_info
            assert result.exit_code in (0, 1, 2, 3), result.output
            if result.exit_code == 0:
                assert not NON_FINITE.search(result.output), result.output
                for out in Path().iterdir():
                    if out.name != "config.json":
                        assert not NON_FINITE.search(out.read_text()), out.name
            elif result.exit_code == 2:
                floats = [a for a in (value, *command) if type(a) is float]
                assert names_cause(result.output, [*floats, *FIXTURE_VALUES]), result.output
            elif result.exit_code == 3:
                assert any(name in result.output for name in names), result.output


FIXTURE_VALUES, _ = csv_values(FIXTURE.read_text())
PRESSURE_COMMANDS = {
    "sweep": lambda p: ("sweep", "--steps", 2, "--p-end", p, "--output", "sweep.csv"),
    "servo": lambda p: ("servo", p, "--output", "servo.csv"),
    "validate": lambda p: ("validate", "--pressure", p),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(bundled_config()["profiles"])),
       st.floats(math.log(5e-324), math.log(1.79e308)).map(math.exp))
@example("airgap", 1e308)
@example("fem_scaled", 1e200)
@example("fem_scaled", 1e305)
def test_extreme_pressure_exit_code(profile, pressure):
    """A bundled profile at a pressure drawn log-uniformly over the
    positive floats, through sweep, servo and validate: a documented exit
    code, never a traceback or a RuntimeWarning, no NaN or infinity
    written on exit 0, and a usage error names the pressure.
    The examples once wrote nan (airgap: the deflection's asinh argument
    overflowed), warned and passed (the von Mises squares overflowed), and
    failed validation with a nan error (the load P / D overflowed)."""
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, command in PRESSURE_COMMANDS.items():
            args = (*command(pressure), "--profile", profile)
            result = run(runner, *args)
            assert isinstance(result.exception, (SystemExit, type(None))), result.exc_info
            assert result.exit_code in (0, 1, 2, 3), result.output
            if result.exit_code == 0:
                assert not NON_FINITE.search(result.output), result.output
                for out in Path().iterdir():
                    assert not NON_FINITE.search(out.read_text()), out.name
            elif result.exit_code == 2:
                assert names_cause(result.output, [pressure]), result.output


@pytest.mark.parametrize("args,stdout,files", [
    (["validate"], "cli_validate.txt", []),
    (["validate", "--nodes", 101, "--nodes", 201, "--nodes", 401, "--nodes", 801,
      "--nodes", 1601], "cli_validate_101_1601.txt", []),
    (["fit", FIXTURE, "--output", "cli_fit.json"], "cli_fit.txt",
     ["cli_fit.json", "cli_fit.residuals.csv"]),
    (["servo", "--data", GOLDEN / "default.csv", "--output", "cli_servo_data.csv"],
     "cli_servo_data.txt", ["cli_servo_data.csv"]),
    (["servo", 0, 5000, 12000, 25000, 40000, 60000, "--output", "cli_servo_args.csv"],
     "cli_servo_args.txt", ["cli_servo_args.csv"]),
    (["modes", GOLDEN / "default.csv", "--output", "cli_modes.json"], "cli_modes.txt",
     ["cli_modes.json"]),
    (["modes", "step.csv", "--output", "cli_rise.json"], "cli_rise.txt",
     ["cli_rise.json"]),
], ids=["validate", "validate_101_1601", "fit", "servo_data", "servo_args",
        "modes", "rise_time"])
def test_golden_outputs(runner, tmp_path, monkeypatch, args, stdout, files):
    # Relative output paths keep the echoed paths, and so stdout, fixed.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "step.csv").write_text(STEP_CSV)
    result = run(runner, *args)
    assert result.exit_code == 0, result.output
    assert result.output == (GOLDEN / stdout).read_bytes().decode()
    for name in files:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("data,args", [
    (GOLDEN / "default.csv", ["servo", "--data", "in.csv", "--output", "out.csv"]),
    (GOLDEN / "default.csv", ["modes", "in.csv", "--output", "out.json"]),
    (FIXTURE, ["fit", "in.csv", "--output", "out.json"]),
], ids=["servo", "modes", "fit"])
def test_utf8_bom_before_header(runner, tmp_path, monkeypatch, data, args):
    # Spreadsheets save "CSV UTF-8" with a byte-order mark before the header.
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        work = tmp_path / ("bom" if bom else "plain")
        work.mkdir()
        monkeypatch.chdir(work)
        (work / "in.csv").write_bytes(bom + data.read_bytes())
        result = run(runner, *args)
        assert result.exit_code == 0, result.output
        outputs.append((result.output, {p.name: p.read_bytes()
                                        for p in work.iterdir() if p.name != "in.csv"}))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == (2 if args[0] == "fit" else 1)


# Runs each command through the CLI with scipy made unimportable and
# prints their exit codes.
SCIPY_BLOCKED_COMMANDS = """
import json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
from touchcap.cli import main

codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps(codes))
"""


def _intra_package_imports() -> dict[str, set[str]]:
    """Module -> the touchcap modules it imports, read from the source."""
    package = Path(touchcap.__file__).resolve().parent
    graph = {}
    for path in package.glob("*.py"):
        edges = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:  # from .x import ...
                    edges.add(node.module.partition(".")[0])
                else:  # from . import x
                    edges.update(alias.name for alias in node.names)
        graph[path.stem] = edges
    return graph


def test_package_imports_have_no_cycle():
    # The modules import in one direction (touchcap/__init__.py docstring).
    graph = _intra_package_imports()
    assert "mechanics" in graph["config"]  # the parser sees real edges
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(reversed(exc.args[1])))


def test_root_exports_load_config_only():
    # Every other name is imported from its module, so `import touchcap`
    # loads only the config chain.
    assert touchcap.__all__ == ["load_config"]
    src = str(Path(touchcap.__file__).resolve().parents[1])
    code = ("import sys, touchcap; print([m for m in ('capacitance', 'calibration', "
            "'plate_fd', 'cli') if 'touchcap.' + m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module", ["config", "plate_fd", "calibration",
                                    "capacitance", "cli"])
def test_module_imports_first(module):
    # Each module must import first in a fresh interpreter.  An import cycle
    # can break that for some entry points (test_package_imports_have_no_cycle).
    src = str(Path(touchcap.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", f"import touchcap.{module}"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_scipy_unloaded(tmp_path):
    # scipy is needed only by the test oracles.
    src = str(Path(touchcap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, touchcap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert proc.stdout.strip() == "[]"

    commands = [
        ["--quiet", "fit", str(FIXTURE), "--free", "gap", "--free", "builtin_stress"],
        ["--quiet", "sweep", "--steps", "31"],
        ["--quiet", "servo", "12000", "30000"],
        ["--quiet", "modes", str(FIXTURE)],
        ["--quiet", "validate"],
    ]
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED_COMMANDS,
                           json.dumps(commands)], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0] * len(commands), proc.stderr
