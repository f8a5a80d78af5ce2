"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 [--workloads sweep,calibrate,cli]
                                  [--trace 0] [--out FILE]

Each run gets --seconds from run_seconds in BENCHMARK.json.  For each
workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread, the interquartile distance
as a share of the median.  With --out it writes the summary, the
environment and the per-layer -> end-to-end mapping as JSON; the seed
commit's summary is kept in benchmarks/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default="sweep,calibrate,cli")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", args.trace],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr)
        summary[workload] = {name: summarise(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"{workload:<10} {name:<50} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}")

    if args.out:
        doc = {"default_seed": run.DEFAULT_SEED, "seeds": args.seeds,
               "seconds": RUN_SECONDS, "trace": int(args.trace),
               "environment": run.environment(),
               "layer_targets": run.LAYER_TARGETS, "workloads": summary}
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
