import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

import touchcap
from touchcap.cli import main

FIXTURE = resources.files("touchcap.data").joinpath("synthetic_fit.csv")
FIXTURE_TRUE_GAP = 4.2e-4
# Sweep outputs frozen from the csv.writer / json.dumps exports.
GOLDEN = Path(__file__).parent / "golden"


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

    @pytest.mark.parametrize("flag,value", [("--p-end", "inf"),
                                            ("--p-start", "nan")])
    def test_non_finite_range_usage_error(self, runner, tmp_path, flag, value):
        result = run(runner, "sweep", flag, value, "--output", tmp_path / "x.csv")
        assert result.exit_code == 2
        assert f"{flag} must be finite, got {value}" in result.output

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

    @pytest.mark.parametrize("value,message", [
        ("nan", "pressure must be finite, got nan"),
        ("inf", "pressure must be finite, got inf"),
        ("0", "pressure must be > 0")])
    def test_bad_pressure_usage_error(self, runner, value, message):
        result = run(runner, "validate", "--pressure", value)
        assert result.exit_code == 2
        assert message in result.output
        assert "PASS" not in result.output

    def test_ladder_ends_at_config_grid_nodes(self, runner, tmp_path):
        doc = json.loads(resources.files("touchcap.data")
                         .joinpath("default_device.json").read_text())
        doc["solver"]["grid_nodes"] = 401
        config = tmp_path / "device.json"
        config.write_text(json.dumps(doc))
        result = run(runner, "--config", config, "validate")
        assert result.exit_code == 0, result.output
        nodes = [int(line.split()[0]) for line in result.output.splitlines()
                 if line.split() and line.split()[0].isdigit()]
        assert nodes == [101, 201, 401]


class TestFit:
    def test_bundled_fixture_recovers_gap(self, runner, tmp_path):
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
        assert "mode boundaries" in result.output

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_argument_usage_error(self, runner, tmp_path, value):
        out = tmp_path / "servo.csv"
        result = run(runner, "servo", "--output", out, "--", 1000, value)
        assert result.exit_code == 2
        assert f"finite, got {value}" in result.output
        assert not out.exists()

    def test_non_finite_data_row_parse_error(self, runner, tmp_path):
        data = tmp_path / "p.csv"
        data.write_text("pressure_pa\n1000.0\nnan\n")
        result = run(runner, "servo", "--data", data,
                     "--output", tmp_path / "servo.csv")
        assert result.exit_code == 3
        assert "line 3" in result.output and "finite" in result.output


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
