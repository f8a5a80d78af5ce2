"""The closed job loop, statistics and per-layer metrics.

A run measures set-up in fresh interpreters, runs one warm-up job on an
input of its own (job -1, outside the timed set, so no timed job repeats
it), then the timed phase: whole batches of fresh jobs 0, 1, 2, ... one
after another, at least one batch, until the summed job time reaches the
requested seconds.  Whole batches keep the mix of job classes the same in
every run.  Checks run between jobs, outside the job timers.  The traced
run instead times one batch untraced and once more with the tracer
installed.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import inputs
import reference as ref
from tracing import NO_PARENT, Tracer

SETUP_RUNS = 11
WARMUP_JOB = -1
SETUP_CODE = ("import json, time\n"
              "t0 = time.perf_counter()\n"
              "import touchcap.cli as cli\n"
              "t1 = time.perf_counter()\n"
              "cli.load_config()\n"
              "t2 = time.perf_counter()\n"
              "print(json.dumps([cli.__file__, t1 - t0, t2 - t1]))\n")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0)
CLASSES = ("normal", "transition", "touch")


@dataclass
class Outcome:
    """What one run measured."""

    durations: list[float] = field(default_factory=list)  # timed jobs, in order
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    setup: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def record(self, error: str | None, what: str) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")


class SetupSampler:
    """Fresh interpreters that import the CLI and load the config.

    The samples alternate with the jobs of the first batch, one before
    every batch/SETUP_RUNS jobs, so that a slow spell of the machine
    touches few of them; their median is set-up time.
    """

    def __init__(self, env) -> None:
        self.env = env
        self.walls: list[float] = []
        self.imports: list[float] = []
        self.loads: list[float] = []

    def _sample(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=self.env.child_env,
                              capture_output=True, text=True, timeout=120)
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr[-500:]}")
        path, t_import, t_load = json.loads(proc.stdout.splitlines()[-1])
        if not path.startswith(str(self.env.src)):
            raise RuntimeError(f"set-up imported touchcap from {path}, not {self.env.src}")
        self.imports.append(t_import)
        self.loads.append(t_load)

    def due(self, k: int, batch: int) -> None:
        """Take the samples due before job ``k`` of a ``batch``-job batch."""
        while len(self.walls) < SETUP_RUNS and k * SETUP_RUNS >= len(self.walls) * batch:
            self._sample()

    def result(self) -> dict:
        while len(self.walls) < SETUP_RUNS:
            self._sample()
        return {"setup_s": statistics.median(self.walls),
                "cli.import_s": statistics.median(self.imports),
                "config.load_ms": 1e3 * statistics.median(self.loads)}


def _attempt(fn, *args):
    """(result, error) of fn(*args); an exception becomes the error text."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _check(fn, *args) -> str | None:
    """What the check found wrong, or the exception it raised, or None."""
    found, raised = _attempt(fn, *args)
    return found or raised


def _run_job(wl, k: int, outcome: Outcome) -> float:
    job = wl.job(k)
    t0 = time.perf_counter()
    out, error = _attempt(wl.run, job)
    elapsed = time.perf_counter() - t0
    outcome.record(error or _check(wl.check, job, out), f"{wl.name} job {k}")
    return elapsed


def _run_checks(wl, outcome: Outcome) -> None:
    results, raised = _attempt(wl.run_checks)
    for error in results if raised is None else [raised]:
        outcome.record(error, f"{wl.name} per-run check")


def timed_run(wl, setup: SetupSampler, seconds: float, outcome: Outcome) -> None:
    """Warm up, then run whole batches of jobs until ``seconds`` of job time."""
    _run_job(wl, WARMUP_JOB, outcome)
    k = 0
    while k < wl.batch or k % wl.batch or sum(outcome.durations) < seconds:
        setup.due(k, wl.batch)
        outcome.durations.append(_run_job(wl, k, outcome))
        k += 1
    _run_checks(wl, outcome)
    outcome.setup = setup.result()


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least 10 of ``n`` samples beyond it.

    When none qualifies (fewer than 25 samples) it is the median.  Runs
    take it from the batch size, so every run of a workload reports the
    same percentile however many batches a fast program fits in.
    """
    return next((q for q in TAIL_PERCENTILES if n * (100.0 - q) >= 1000.0 - 1e-6), 50.0)


def peak_rss_mb(who: str) -> float:
    scope = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(scope).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def batch_times(batch: int, durations: list[float]) -> list[float]:
    """Summed job time of each whole batch."""
    return [sum(durations[i:i + batch]) for i in range(0, len(durations), batch)]


def end_to_end(wl, outcome: Outcome) -> dict:
    q = tail_percentile(wl.batch)
    return {
        "setup_s": outcome.setup["setup_s"],
        "op_p50_s": float(np.percentile(outcome.durations, 50)),
        "op_tail_s": float(np.percentile(outcome.durations, q)),
        "total_s": statistics.median(batch_times(wl.batch, outcome.durations)),
        "peak_rss_mb": peak_rss_mb(wl.rss_who),
    }


# -- traced run ---------------------------------------------------------------

def _reference_device(geom) -> ref.Device:
    return ref.Device(
        radius=geom.radius, gap=geom.gap, builtin_stress=geom.builtin_stress,
        dielectric_thickness=geom.dielectric_thickness,
        dielectric_eps=geom.dielectric_rel_permittivity,
        medium_eps=geom.medium_rel_permittivity,
        layers=tuple((l.youngs_modulus, l.poisson_ratio, l.thickness)
                     for l in geom.laminate.layers))


def instrument(env, tracer: Tracer) -> dict:
    """Wrap each public entry point at the binding its caller looks up.

    Returns a dict that will hold the largest series segment_modes sees.
    """
    cap, cal, mech, fd, cli = (env.capacitance, env.calibration, env.mechanics,
                               env.plate_fd, env.cli)
    devices: dict = {}
    seen: dict = {}

    def segment_tag(args, _result) -> int:
        if len(args[0]) > len(seen.get("segment_series", ())):
            seen["segment_series"] = args[0]
        return len(args[0])

    def point_tag(args, _result) -> int:
        geom, pressure = args[0], args[1]
        if geom not in devices:
            devices[geom] = _reference_device(geom)
        return CLASSES.index(ref.point_class(devices[geom], pressure))

    spans = [
        (cap, "sweep_cp_curve", "capacitance.sweep_cp_curve", None),
        (cap, "capacitance_at", "capacitance.capacitance_at", point_tag),
        (cap, "normal_mode_capacitance", "capacitance.normal_mode_capacitance", None),
        (cap, "touch_mode_capacitance", "capacitance.touch_mode_capacitance", None),
        (cap.CPCurve, "to_csv", "capacitance.CPCurve.to_csv", None),
        (cap.CPCurve, "to_json", "capacitance.CPCurve.to_json", None),
        (mech, "solve_state", "mechanics.solve_state", None),
        (mech, "contact_radius", "mechanics.contact_radius", None),
        (mech, "classify_mode", "mechanics.classify_mode", lambda a, r: int(r)),
        (cal, "fit_model", "calibration.fit_model", lambda a, r: r.iterations),
        (cal, "model_capacitances", "calibration.model_capacitances", None),
        (cal, "segment_modes", "calibration.segment_modes", segment_tag),
        (cal, "sensitivity_linearity", "calibration.sensitivity_linearity", None),
        (cal.MeasuredSeries, "from_csv", "calibration.MeasuredSeries.from_csv", None),
        (fd, "convergence_study", "plate_fd.convergence_study", None),
        (fd, "solve_plate", "plate_fd.solve_plate", lambda a, r: a[2].node_count),
        (fd, "linearity_check", "plate_fd.linearity_check", None),
        (cli, "load_config", "config.load_config", None),
    ]
    counted = [(mech, "large_deflection_center", "deflection_solves"),
               (mech, "flexural_rigidity", "rigidity_evals")]
    tracer.install(spans, counted)
    return seen


def traced_run(wl, env, outcome: Outcome) -> Tracer:
    """Warm up, time the batch untraced, then time it again traced."""
    outcome.setup = SetupSampler(env).result()
    _run_job(wl, WARMUP_JOB, outcome)
    for k in range(wl.batch):
        outcome.durations.append(_run_job(wl, k, outcome))
    _run_checks(wl, outcome)
    untraced = wl.untraced_inproc_s(outcome.durations)

    tracer = Tracer(("deflection_solves", "rigidity_evals"))
    traced_s, results = 0.0, []
    seen = instrument(env, tracer)
    try:
        for k in range(wl.batch):
            job = wl.job(k)
            tracer.current_job = k
            t0 = time.perf_counter()
            out, error = _attempt(wl.traced, job)
            traced_s += time.perf_counter() - t0
            results.append((k, job, out, error))
    finally:
        tracer.uninstall()
    for k, job, out, error in results:
        outcome.record(error or _check(wl.check_traced, job, out),
                       f"{wl.name} traced job {k}")
    outcome.layers = layer_metrics(tracer, wl, outcome)
    if "segment_series" in seen:
        outcome.layers["calibration.segment_peak_mb"] = segment_peak_mb(
            env, seen["segment_series"])
    outcome.layers["tracing.overhead_s"] = traced_s - untraced
    return tracer


def _p50(values) -> float:
    values = list(values)
    return float(np.percentile(values, 50)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(np.mean(values)) if values else 0.0


def points(tracer: Tracer, kids: list[list[int]]) -> list[tuple[int, int, int, float]]:
    """(class, deflection solves, rigidity evals, seconds) per evaluated point.

    A point is one capacitance_at call plus, inside a sweep, the
    classify_mode call that follows it for the same pressure.
    """
    roots = [i for i in range(len(tracer)) if tracer.parent[i] == NO_PARENT]
    solves = tracer.span_counts["deflection_solves"]
    rigid = tracer.span_counts["rigidity_evals"]
    out = []
    for siblings in [roots, *kids]:
        for pos, idx in enumerate(siblings):
            if tracer.name(idx) != "capacitance.capacitance_at":
                continue
            n_solve, n_rigid = solves[idx], rigid[idx]
            if pos + 1 < len(siblings) and \
                    tracer.name(siblings[pos + 1]) == "mechanics.classify_mode":
                n_solve += solves[siblings[pos + 1]]
                n_rigid += rigid[siblings[pos + 1]]
            out.append((tracer.tag[idx], n_solve, n_rigid, tracer.duration(idx)))
    return out


def layer_metrics(tracer: Tracer, wl, outcome: Outcome) -> dict:
    """Per-layer numbers from the spans.

    Points, mechanics, capacitance and set-up are measured on every
    workload; the other layers only on the workloads that call them.
    """
    by_name = defaultdict(list)
    for i in range(len(tracer)):
        by_name[tracer.name(i)].append(i)
    kids = tracer.children()
    m: dict[str, float] = {}

    pts = points(tracer, kids)
    for c, cls in enumerate(CLASSES):
        mine = [p for p in pts if p[0] == c]
        m[f"mechanics.deflection_solves_per_point.{cls}"] = _p50(p[1] for p in mine)
        m[f"materials.rigidity_evals_per_point.{cls}"] = _p50(p[2] for p in mine)
    m["capacitance.normal_point_us"] = 1e6 * _p50(p[3] for p in pts if p[0] == 0)
    m["capacitance.touch_point_us"] = 1e6 * _p50(p[3] for p in pts if p[0] == 2)

    self_s = tracer.self_times()
    for layer in ("mechanics", "capacitance"):
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    m["config.load_ms"] = outcome.setup["config.load_ms"]
    m["cli.import_s"] = outcome.setup["cli.import_s"]

    export = defaultdict(float)
    for name in ("capacitance.CPCurve.to_csv", "capacitance.CPCurve.to_json"):
        for i in by_name.get(name, ()):
            export[tracer.job[i]] += tracer.duration(i)
    if export:
        m["capacitance.export_ms"] = 1e3 * _p50(export.values())

    fits = by_name.get("calibration.fit_model")
    if fits:
        m["calibration.fit_s"] = _p50(tracer.duration(i) for i in fits)
        m["calibration.fit_iterations"] = _p50(tracer.tag[i] for i in fits)
        evals = [[c for c in kids[i] if tracer.name(c) == "calibration.model_capacitances"]
                 for i in fits]
        m["calibration.fit_model_evals"] = _p50(len(e) for e in evals)
        m["calibration.fit_model_errors"] = float(
            sum(tracer.failed[c] for e in evals for c in e))
    if "calibration.segment_modes" in by_name:
        m["calibration.segment_s"] = _p50(
            tracer.duration(i) for i in by_name["calibration.segment_modes"])
    if "calibration.MeasuredSeries.from_csv" in by_name:
        m["calibration.read_csv_ms"] = 1e3 * _p50(
            tracer.duration(i) for i in by_name["calibration.MeasuredSeries.from_csv"])

    solves = by_name.get("plate_fd.solve_plate")
    if solves:
        m["plate_fd.solve_ms"] = 1e3 * _p50(
            tracer.duration(i) for i in solves if tracer.tag[i] == inputs.FINEST_NODES)
        per_validate = defaultdict(int)
        for i in solves:
            per_validate[tracer.job[i]] += 1
        m["plate_fd.solves_per_validate"] = _mean(per_validate.values())

    if wl.name == "cli":
        for kind in inputs.CLI_KINDS:
            m[f"cli.{kind}_s"] = _p50(
                d for k, d in enumerate(outcome.durations)
                if inputs.CLI_KINDS[k % len(inputs.CLI_KINDS)] == kind)
    return m


def segment_peak_mb(env, series) -> float:
    """tracemalloc peak of segment_modes on the largest series the batch segmented.

    Measured in a separate call after the traced batch, so tracemalloc's
    cost stays out of the span timings.
    """
    tracemalloc.start()
    try:
        env.calibration.segment_modes(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
