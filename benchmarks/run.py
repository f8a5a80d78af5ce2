"""touchcap benchmark: sweep, calibrate and cli workloads.

    python3 benchmarks/run.py [--workload sweep|calibrate|cli|all] [--seed N]
                              [--seconds S] [--trace 0|1]

Run from the repository root.  The program is imported from ./src.  Each
workload is one closed-loop client in one process.  With --trace 0 it
times whole batches of jobs until --seconds of job time have passed (at
least one batch) and prints the end-to-end metrics.  With --trace 1 it
times one batch untraced and once more with spans around every public
entry point, prints the per-layer metrics and writes the spans to
benchmarks/.out/.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics; its metrics are END_TO_END, or with
--trace 1 PER_LAYER.  ``--workload all`` runs each workload in its own
child process.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 10
END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "total_s": "s",
              "peak_rss_mb": "MB"}
# Per-layer metrics every workload measures, each of them nonzero; the
# traced run reports these in its JSON line and prints the others.
PER_LAYER = (
    "mechanics.deflection_solves_per_point.normal",
    "mechanics.deflection_solves_per_point.transition",
    "mechanics.deflection_solves_per_point.touch",
    "materials.rigidity_evals_per_point.normal",
    "materials.rigidity_evals_per_point.transition",
    "materials.rigidity_evals_per_point.touch",
    "mechanics.self_s",
    "capacitance.normal_point_us",
    "capacitance.touch_point_us",
    "capacitance.self_s",
    "config.load_ms",
    "cli.import_s",
)
# Each per-layer metric and the end-to-end metric it should move.
LAYER_TARGETS = {
    "mechanics.deflection_solves_per_point.normal": "sweep total_s",
    "mechanics.deflection_solves_per_point.transition": "sweep total_s",
    "mechanics.deflection_solves_per_point.touch": "sweep total_s",
    "materials.rigidity_evals_per_point.normal": "sweep total_s",
    "materials.rigidity_evals_per_point.transition": "sweep total_s",
    "materials.rigidity_evals_per_point.touch": "sweep total_s",
    "mechanics.self_s": "sweep total_s",
    "capacitance.normal_point_us": "sweep total_s, calibrate op_p50_s",
    "capacitance.touch_point_us": "sweep total_s, calibrate op_p50_s",
    "capacitance.self_s": "sweep total_s, calibrate op_p50_s",
    "capacitance.export_ms": "sweep op_p50_s",
    "calibration.fit_s": "calibrate op_p50_s",
    "calibration.fit_iterations": "calibrate op_p50_s",
    "calibration.fit_model_evals": "calibrate op_p50_s",
    "calibration.fit_model_errors": "none (keeps swallowed model errors visible)",
    "calibration.segment_s": "calibrate total_s",
    "calibration.segment_peak_mb": "calibrate peak_rss_mb",
    "calibration.read_csv_ms": "cli op_p50_s",
    "plate_fd.solve_ms": "cli total_s",
    "plate_fd.solves_per_validate": "cli total_s",
    "config.load_ms": "setup_s, cli op_p50_s",
    "cli.import_s": "setup_s, cli op_p50_s",
    "cli.sweep_s": "cli op_p50_s",
    "cli.validate_s": "cli op_p50_s",
    "cli.servo_s": "cli op_p50_s",
    "cli.modes_s": "cli op_p50_s",
    "cli.fit_s": "cli op_p50_s",
    "tracing.overhead_s": "none (traced minus untraced time of the batch)",
}
LAYER_UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_mb": "MB"}


class Env:
    """The program under test, imported from the checkout's src directory."""

    def __init__(self) -> None:
        if not (SRC / "touchcap" / "__init__.py").is_file():
            raise SystemExit(f"benchmark: no program at {SRC / 'touchcap'}; "
                             "run from a checkout of the repository")
        sys.path.insert(0, str(SRC))
        self.src = SRC
        self.workdir = HERE / ".work"
        self.outdir = HERE / ".out"
        self.child_env = dict(os.environ)
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for name in ("touchcap", "capacitance", "calibration", "mechanics",
                     "plate_fd", "cli"):
            module = importlib.import_module(
                "touchcap" if name == "touchcap" else f"touchcap.{name}")
            setattr(self, name, module)
        if not str(Path(self.touchcap.__file__).resolve()).startswith(str(SRC)):
            raise SystemExit(f"benchmark: imported touchcap from {self.touchcap.__file__}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def run_one(args) -> dict:
    env = Env()
    import harness
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, env)
    outcome = harness.Outcome()
    try:
        if args.trace:
            tracer = harness.traced_run(wl, env, outcome)
        else:
            harness.timed_run(wl, harness.SetupSampler(env), args.seconds, outcome)
    finally:
        wl.close()

    info = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  one closed-loop client")
    print("environment " + "  ".join(f"{k} {v}" for k, v in info.items()))
    n = len(outcome.durations)
    failed = len(outcome.failures)
    if args.trace:
        outdir = env.outdir
        outdir.mkdir(exist_ok=True)
        path = outdir / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracer.write(path)
        print(f"spans: {len(tracer)} written to {path.relative_to(ROOT)}")
        metrics = {}
        for name, value in outcome.layers.items():
            unit = layer_unit(name)
            if name in PER_LAYER:
                metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<50} {value:>14.6g} {unit:<5}  -> {LAYER_TARGETS[name]}")
    else:
        e2e = harness.end_to_end(wl, outcome)
        notes = {
            "setup_s": f"median of {harness.SETUP_RUNS} fresh interpreters over the run",
            "op_p50_s": f"n={n} jobs",
            "op_tail_s": f"p{harness.tail_percentile(wl.batch):g}, n={n} jobs; "
                         f"percentile set by the {wl.batch}-job batch",
            "total_s": f"median over {n // wl.batch} batch(es) of {wl.batch} jobs",
            "peak_rss_mb": "children" if wl.rss_who == "children" else "this process",
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": e2e[name], "unit": unit}
            print(f"  {name:<12} {e2e[name]:>12.6g} {unit:<3}  ({notes[name]})")
        print(f"  {'failed_frac':<12} {failed / outcome.attempted:>12.6g}      "
              f"({failed} of {outcome.attempted} operations)")
    for message in outcome.failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": outcome.attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"benchmark: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "sweep", "calibrate", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
