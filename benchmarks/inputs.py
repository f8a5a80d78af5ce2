"""Seeded inputs for the three workloads.

Job k of a workload is drawn from its own generator, seeded by the
workload name, the run seed and k, so the same seed always gives the same
jobs however many of them a run gets through.  The job classes cycle with
k (profile and end pressure for sweeps, free-parameter set and series
lengths for fits, command kind for the CLI) and the seed varies the values
inside each class: every run then holds the same mix, which keeps medians
comparable from seed to seed.  Nothing here imports the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import reference as ref

SWEEP_POINTS = (61, 121, 241, 501, 1001)
# Calibrate job classes, cycled A, B, B, C: (free set, fit samples,
# segmentation samples).  Fewer fit samples for more free parameters keeps
# the jobs within about 30% of each other, so the median job is one of
# several alike jobs rather than a single job between two classes.
CALIBRATE_CLASSES = (
    (("gap",), 41, 161),
    (("gap", "builtin_stress"), 34, 121),
    (("gap", "builtin_stress"), 34, 121),
    (("gap", "builtin_stress", "parasitic_offset"), 28, 101),
)
FIT_BOUNDS = {"gap": (5e-5, 1e-3), "builtin_stress": (0.0, 1e8),
              "parasitic_offset": (-1e-10, 1e-10)}
NOISE_F = 2e-15  # Gaussian measurement noise, F (about 1e-4 of the signal)
LINEAR_RANGE = (10e3, 40e3)  # Pa, the servo map's touch-mode range
ORACLE_SAMPLES = 20
CLI_KINDS = ("sweep", "validate", "servo", "modes", "fit")
CLI_FREE_SETS = ((("gap",), ("builtin_stress",), ("dielectric_rel_permittivity",)),
                 (("gap", "builtin_stress"), ("gap", "parasitic_offset"),
                  ("gap", "dielectric_thickness"), ("gap", "dielectric_rel_permittivity")))
FINEST_NODES = 1601
# Convergence ladders stop at 401 nodes: past that, roundoff in the dense
# FD solve breaks the observed convergence order and `validate` exits 1.
LADDER_MAX_NODES = 401


def job_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


def pressures(p_start: float, p_end: float, steps: int) -> list[float]:
    """Evenly spaced pressures, computed as the CLI computes them."""
    return [p_start + (p_end - p_start) * i / (steps - 1) for i in range(steps)]


def _sweep_range(rng: random.Random, cls: int) -> tuple[str, float, float]:
    """(profile, p_start, p_end); class 0 stays below touch onset."""
    if cls == 0:
        profile = rng.choice(sorted(ref.PROFILES))
        p_end = rng.uniform(0.3, 0.95) * ref.onset_pressure(ref.PROFILES[profile])
    else:
        profile = "default" if cls == 1 else "dielectric_50um"
        p_end = rng.uniform(20e3, 60e3)
    p_start = rng.choice([0.0, rng.uniform(0.0, 0.1 * p_end)])
    return profile, p_start, p_end


@dataclass(frozen=True)
class SweepJob:
    profile: str
    pressures: tuple[float, ...]
    check_indices: tuple[int, ...]


def sweep_job(seed: int, k: int) -> SweepJob:
    rng = job_rng("sweep", seed, k)
    profile, p_start, p_end = _sweep_range(rng, k % 3)
    base = SWEEP_POINTS[(k // 3) % len(SWEEP_POINTS)]
    steps = min(1001, max(61, round(base * rng.uniform(0.9, 1.1))))
    picks = rng.sample(range(1, steps - 1), 4)
    return SweepJob(profile, tuple(pressures(p_start, p_end, steps)),
                    tuple(sorted([0, steps - 1, *picks])))


def series_csv(p: np.ndarray, c: np.ndarray) -> str:
    rows = ["pressure_pa,capacitance_f"]
    rows += [f"{float(x)!r},{float(y)!r}" for x, y in zip(p, c)]
    return "\n".join(rows) + "\n"


def measured(dev: ref.Device, offset: float, p: np.ndarray,
             rng: random.Random) -> np.ndarray:
    return np.array([ref.capacitance(dev, float(x)) + offset + rng.gauss(0.0, NOISE_F)
                     for x in p])


@dataclass(frozen=True)
class CalibrateJob:
    free: tuple[str, ...]
    truth: dict  # fit parameter -> true value
    device: ref.Device  # the perturbed device the data came from
    fit_csv: str
    segment_csv: str
    probe_triples: tuple[tuple[int, int, int], ...]


def calibrate_job(seed: int, k: int) -> CalibrateJob:
    rng = job_rng("calibrate", seed, k)
    nominal = ref.PROFILES["default"]
    free, n_fit, n_seg = CALIBRATE_CLASSES[k % len(CALIBRATE_CLASSES)]
    truth = {"gap": nominal.gap * (1.0 + rng.uniform(-0.05, 0.05)),
             "builtin_stress": nominal.builtin_stress * (1.0 + rng.uniform(-0.2, 0.2)),
             "parasitic_offset": rng.choice([-1.0, 1.0]) * rng.uniform(0.5e-13, 2e-13)}
    truth = {name: truth[name] for name in free}
    dev = nominal.replace(gap=truth.get("gap", nominal.gap),
                          builtin_stress=truth.get("builtin_stress",
                                                   nominal.builtin_stress))
    offset = truth.get("parasitic_offset", 0.0)
    p_fit = np.linspace(rng.uniform(500.0, 2000.0), rng.uniform(40e3, 60e3), n_fit)
    p_seg = np.linspace(0.0, rng.uniform(50e3, 60e3), n_seg)
    fit_csv = series_csv(p_fit, measured(dev, offset, p_fit, rng))
    segment_csv = series_csv(p_seg, measured(dev, offset, p_seg, rng))
    probes = []
    for _ in range(16):
        i = rng.randint(2, n_seg - 7)
        j = rng.randint(i + 2, n_seg - 5)
        probes.append((i, j, rng.randint(j + 2, n_seg - 3)))
    return CalibrateJob(free, truth, dev, fit_csv, segment_csv, tuple(probes))


def oracle_series(seed: int) -> str:
    """The short series checked against brute-force segmentation once a run."""
    rng = job_rng("oracle", seed, 0)
    dev = ref.PROFILES["default"].replace(
        gap=ref.PROFILES["default"].gap * (1.0 + rng.uniform(-0.05, 0.05)))
    p = np.linspace(0.0, rng.uniform(40e3, 60e3), ORACLE_SAMPLES)
    return series_csv(p, measured(dev, 0.0, p, rng))


@dataclass(frozen=True)
class CliJob:
    kind: str
    args: tuple[str, ...]  # command arguments, without the output option
    outputs: tuple[str, ...]  # file names the command writes, first one named by --output
    data: tuple[tuple[str, str], ...] = ()  # (file name, text) written before the run


def _sweep_rows(rng: random.Random, cls: int, lo: int, hi: int) -> str:
    """Sweep CSV (pressure_pa,capacitance_f,mode) from the reference model."""
    profile, p_start, p_end = _sweep_range(rng, cls)
    dev = ref.PROFILES[profile]
    rows = ["pressure_pa,capacitance_f,mode"]
    for p in pressures(p_start, p_end, rng.randint(lo, hi)):
        rows.append(f"{p!r},{ref.capacitance(dev, p)!r},{ref.point_class(dev, p)}")
    return "\n".join(rows) + "\n"


def cli_job(seed: int, k: int, fit_csv: str) -> CliJob:
    """Command k of the mix; ``fit_csv`` is the bundled measured series.

    Successive commands of one kind alternate between a light and a heavy
    variant (fewer or more points, a ladder or the finest grid, one or two
    free parameters), so every two cycles hold one of each.
    """
    rng = job_rng("cli", seed, k)
    kind = CLI_KINDS[k % len(CLI_KINDS)]
    cycle = k // len(CLI_KINDS)
    heavy = cycle % 2
    if kind == "sweep":
        profile, p_start, p_end = _sweep_range(rng, cycle % 3)
        steps = rng.randint(600, 1001) if heavy else rng.randint(61, 400)
        fmt = rng.choice(["csv", "json"])
        args = ("sweep", "--profile", profile, "--p-start", repr(p_start),
                "--p-end", repr(p_end), "--steps", str(steps), "--format", fmt)
        outputs = ("out.csv", "out.json") if fmt == "csv" else ("out.json",)
        return CliJob(kind, args, outputs)
    if kind == "validate":
        pressure = repr(rng.uniform(2e3, 20e3))
        if heavy:
            nodes = [FINEST_NODES]
        else:
            start = rng.choice([41, 51, 61, 81, 101])
            nodes = [(start - 1) * 2**i + 1 for i in range(4)]
            nodes = [n for n in nodes if n <= LADDER_MAX_NODES]
        args = ("validate", "--pressure", pressure)
        for n in nodes:
            args += ("--nodes", str(n))
        return CliJob(kind, args, ())
    if kind == "servo":
        if not heavy:
            values = sorted(rng.uniform(0.0, 60e3) for _ in range(rng.randint(3, 20)))
            return CliJob(kind, ("servo", *map(repr, values)), ("out.csv",))
        data = _sweep_rows(rng, 1, 41, 101)
        return CliJob(kind, ("servo", "--data", "in.csv"), ("out.csv",),
                      (("in.csv", data),))
    if kind == "modes":
        # The heavy series has a fixed length: its segmentation sets the
        # children's peak RSS, which would otherwise vary with the seed.
        data = _sweep_rows(rng, 1 + cycle % 2, *((101, 101) if heavy else (41, 70)))
        return CliJob(kind, ("modes", "in.csv"), ("out.json",), (("in.csv", data),))
    free = rng.choice(CLI_FREE_SETS[heavy])
    args = ("fit", "in.csv")
    for name in free:
        args += ("--free", name)
    return CliJob(kind, args, ("out.json", "out.residuals.csv"),
                  (("in.csv", fit_csv),))
