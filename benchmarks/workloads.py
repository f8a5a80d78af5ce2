"""The three closed-loop workloads: one client, next job after the last ends.

Each workload turns job k into an input (untimed), runs the operation
(timed), and checks its output against the benchmark's own reference
(untimed).  ``traced`` is what the traced run times with the tracer
installed; for ``cli`` that is an in-process replay through click, since
the wrappers cannot see into a child process.
"""

from __future__ import annotations

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import reference as ref


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


class Workload:
    """Base: ``batch`` jobs make the fixed amount of work timed by total_s."""

    name = ""
    batch = 0
    rss_who = "self"

    def __init__(self, seed: int, env) -> None:
        self.seed = seed
        self.env = env

    def job(self, k: int):
        raise NotImplementedError

    def run(self, job):
        raise NotImplementedError

    def check(self, job, out) -> str | None:
        """Return a description of what is wrong with ``out``, or None."""
        raise NotImplementedError

    def traced(self, job):
        return self.run(job)

    def check_traced(self, job, out) -> str | None:
        return self.check(job, out)

    def untraced_inproc_s(self, durations: list[float]) -> float:
        """Untraced time of the same in-process calls the traced batch makes."""
        return sum(durations[:self.batch])

    def run_checks(self) -> list[str | None]:
        """Outcome of each check made once per run, each counted as an operation."""
        return []

    def close(self) -> None:
        pass


class SweepWorkload(Workload):
    """C-P sweeps exported to CSV and JSON; capacitance and mechanics do the work."""

    name = "sweep"
    batch = 300

    def __init__(self, seed: int, env) -> None:
        super().__init__(seed, env)
        self.cfg = env.touchcap.load_config()

    def job(self, k: int) -> inputs.SweepJob:
        return inputs.sweep_job(self.seed, k)

    def run(self, job: inputs.SweepJob):
        cap = self.env.capacitance
        geom = self.cfg.geometry(job.profile)
        curve = cap.sweep_cp_curve(geom, list(job.pressures),
                                   thresholds=self.cfg.thresholds,
                                   geometry_id=job.profile)
        return curve, curve.to_csv(), curve.to_json(geom, self.cfg.thresholds)

    def check(self, job: inputs.SweepJob, out) -> str | None:
        curve, text, doc = out
        dev = ref.PROFILES[job.profile]
        p = curve.pressures()
        c = curve.capacitances()
        modes = [pt.mode for pt in curve.points]
        if p != list(job.pressures):
            return "pressures differ from the input"
        if any(b <= a for a, b in zip(c, c[1:])):
            return "capacitance is not increasing with pressure"
        if any(b < a for a, b in zip(modes, modes[1:])):
            return "mode labels decrease"
        for i in job.check_indices:
            want = ref.capacitance(dev, p[i])
            if _rel(c[i], want) > 1e-8:
                return f"C({p[i]} Pa) = {c[i]!r}, reference {want!r}"
        rows = list(csv.reader(io.StringIO(text)))
        labels = [m.name.lower() for m in modes]
        if rows[0] != ["pressure_pa", "capacitance_f", "mode"] or rows[1:] != [
                [repr(a), repr(b), m] for a, b, m in zip(p, c, labels)]:
            return "CSV export does not match the curve"
        points = json.loads(doc)["points"]
        if [(q["pressure_pa"], q["capacitance_f"], q["mode"]) for q in points] != list(
                zip(p, c, labels)):
            return "JSON export does not match the curve"
        return None


class CalibrateWorkload(Workload):
    """Fit plus segmentation of synthetic measured series from perturbed devices."""

    name = "calibrate"
    batch = 8

    def __init__(self, seed: int, env) -> None:
        super().__init__(seed, env)
        cfg = env.touchcap.load_config()
        self.geom0 = cfg.geometry("default")

    def job(self, k: int) -> inputs.CalibrateJob:
        return inputs.calibrate_job(self.seed, k)

    def run(self, job: inputs.CalibrateJob):
        cal = self.env.calibration
        fit_data = cal.MeasuredSeries.from_csv(job.fit_csv)
        fit = cal.fit_model(fit_data, self.geom0, list(job.free), inputs.FIT_BOUNDS)
        seg_data = cal.MeasuredSeries.from_csv(job.segment_csv)
        seg = cal.segment_modes(seg_data)
        sens = cal.sensitivity_linearity(seg_data, inputs.LINEAR_RANGE)
        return fit_data, fit, seg_data, seg, sens

    def check(self, job: inputs.CalibrateJob, out) -> str | None:
        fit_data, fit, seg_data, seg, sens = out
        if not fit.converged:
            return "fit did not converge"
        err = self._check_fit(job, fit_data.abscissa, fit)
        return err or self._check_segmentation(job, seg_data, seg) or \
            self._check_linearity(seg_data, sens)

    @staticmethod
    def _check_fit(job: inputs.CalibrateJob, p: np.ndarray, fit) -> str | None:
        """Each parameter within 6 standard errors of the truth.

        The standard errors come from the reference model's Jacobian at the
        truth and the known noise level (linearized least squares).
        """
        cols = []
        base = np.array([ref.capacitance(job.device, float(x)) for x in p])
        for name in job.free:
            if name == "parasitic_offset":
                cols.append(np.ones_like(p))
                continue
            step = 1e-6 * job.truth[name]
            moved = job.device.replace(**{name: job.truth[name] + step})
            cols.append((np.array([ref.capacitance(moved, float(x)) for x in p]) - base)
                        / step)
        jac = np.column_stack(cols)
        stderr = inputs.NOISE_F * np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
        for name, se in zip(job.free, stderr):
            got, want = fit.params[name], job.truth[name]
            if abs(got - want) > 6.0 * se:
                return f"fitted {name} = {got!r}, truth {want!r} (standard error {se:.3g})"
        if fit.residual_norm > 2.0 * inputs.NOISE_F:
            return f"fit residual {fit.residual_norm:.3g} F exceeds twice the noise"
        return None

    @staticmethod
    def _check_segmentation(job: inputs.CalibrateJob, data, seg) -> str | None:
        """The knots are sample points and beat every probed alternative triple."""
        p, c = data.abscissa, data.capacitance
        idx = [int(np.searchsorted(p, b)) for b in seg.boundaries]
        if any(i >= len(p) or p[i] != b for i, b in zip(idx, seg.boundaries)):
            return "segment boundaries are not sample pressures"
        if not ref.admissible(len(p), idx):
            return f"segment knots {idx} are not an admissible triple"
        ps, cs, scale = ref.normalized(p, c)
        best = ref.hinge_sse(ps, cs, idx)
        if _rel(seg.sse, best * scale**2) > 1e-6:
            return f"reported SSE {seg.sse!r}, reference {best * scale**2!r}"
        for triple in job.probe_triples:
            if ref.hinge_sse(ps, cs, triple) < best * (1.0 - 1e-9):
                return f"knots {triple} fit better than the chosen {idx}"
        return None

    @staticmethod
    def _check_linearity(data, sens) -> str | None:
        lo, hi = inputs.LINEAR_RANGE
        mask = (data.abscissa >= lo) & (data.abscissa <= hi)
        slope, r2 = ref.ols(data.abscissa[mask], data.capacitance[mask])
        if _rel(sens[0], slope) > 1e-9 or abs(sens[1] - r2) > 1e-9:
            return f"sensitivity/linearity {sens}, reference {(slope, r2)}"
        return None

    def run_checks(self) -> list[str | None]:
        cal = self.env.calibration
        data = cal.MeasuredSeries.from_csv(inputs.oracle_series(self.seed))
        seg = cal.segment_modes(data)
        ps, cs, _ = ref.normalized(data.abscissa, data.capacitance)
        best = min(ref.hinge_sse(ps, cs, t) for t in ref.knot_triples(len(ps)))
        knots = [int(np.searchsorted(data.abscissa, b)) for b in seg.boundaries]
        got = ref.hinge_sse(ps, cs, knots)
        if got > best * (1.0 + 1e-9) + 1e-15:
            return [f"segmentation SSE {got!r} above the brute-force optimum {best!r}"]
        return [None]


class CliRun:
    """A finished cold CLI process."""

    def __init__(self, directory: Path, returncode: int, stdout: str, stderr: str):
        self.directory = directory
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr


class CliWorkload(Workload):
    """Cold ``python -m touchcap.cli`` processes, one at a time."""

    name = "cli"
    batch = 20
    rss_who = "children"

    def __init__(self, seed: int, env) -> None:
        super().__init__(seed, env)
        self.fit_csv = (env.src / "touchcap" / "data" / "synthetic_fit.csv").read_text()
        self.work = env.workdir / "cli"
        self.cold_runs: dict[int, CliRun] = {}

    def job(self, k: int):
        """(k, spec, argv); writes the input files for the cold and in-process runs."""
        spec = inputs.cli_job(self.seed, k, self.fit_csv)
        for where in ("cold", "inproc", "traced"):
            directory = self.work / where / str(k)
            directory.mkdir(parents=True, exist_ok=True)
            for name, text in spec.data:
                (directory / name).write_text(text)
        args = list(spec.args)
        if spec.outputs:
            args += ["--output", spec.outputs[0]]
        return k, spec, args

    def _fresh(self, where: str, k: int, spec: inputs.CliJob) -> Path:
        """The job directory, without outputs left from an earlier call."""
        directory = self.work / where / str(k)
        for name in spec.outputs:
            (directory / name).unlink(missing_ok=True)
        return directory

    def run(self, job):
        k, spec, args = job
        directory = self._fresh("cold", k, spec)
        proc = subprocess.run([sys.executable, "-m", "touchcap.cli", *args],
                              cwd=directory, env=self.env.child_env,
                              capture_output=True, text=True, timeout=170)
        return CliRun(directory, proc.returncode, proc.stdout, proc.stderr)

    def _replay(self, job, where: str) -> CliRun:
        """Run the same command in this process through click."""
        from click.testing import CliRunner
        k, spec, args = job
        directory = self._fresh(where, k, spec)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            result = CliRunner().invoke(self.env.cli.main, args)
        finally:
            os.chdir(cwd)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        return CliRun(directory, result.exit_code, result.stdout, "")

    def _compare(self, spec: inputs.CliJob, cold: CliRun, warm: CliRun) -> str | None:
        if warm.returncode != 0:
            return f"in-process {spec.kind} exited {warm.returncode}: {warm.stdout[-300:]}"
        for name in spec.outputs:
            if (cold.directory / name).read_bytes() != (warm.directory / name).read_bytes():
                return f"{spec.kind} {name} differs from the in-process call"
        if spec.kind == "validate" and cold.stdout != warm.stdout:
            return "validate report differs from the in-process call"
        return None

    def check(self, job, out: CliRun) -> str | None:
        k, spec, _ = job
        self.cold_runs[k] = out
        if out.returncode != 0:
            return f"{' '.join(spec.args)} exited {out.returncode}: {out.stderr[-300:]}"
        if spec.kind == "validate" and "PASS" not in out.stdout.split():
            return "validate did not print PASS"
        return self._compare(spec, out, self._replay(job, "inproc"))

    def traced(self, job):
        return self._replay(job, "traced")

    def check_traced(self, job, out: CliRun) -> str | None:
        return self._compare(job[1], self.cold_runs[job[0]], out)

    def untraced_inproc_s(self, durations: list[float]) -> float:
        """A fresh untraced pass of the replays, timed just before the traced one."""
        total = 0.0
        for k in range(self.batch):
            job = self.job(k)
            t0 = time.perf_counter()
            self._replay(job, "inproc")
            total += time.perf_counter() - t0
        return total

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepWorkload, CalibrateWorkload, CliWorkload)}
