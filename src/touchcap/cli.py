"""Command-line front end: sweeps, solver validation, fitting, servo export.

All outputs are written atomically (temp file + rename) with deterministic
formatting: floats are rendered with their shortest round-trip decimal, so
identical inputs give byte-identical files.

Exit codes: 0 success, 1 validation/convergence/fit failure, 2 usage
error, 3 IO or parse error.  Commands let library errors propagate, and
``_Command`` maps them in one place: a point where the model has no value
(``capacitance.SweepPointError``) is a failure, any other ValueError a
usage error.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

import click

from . import calibration, capacitance, plate_fd
from .config import ConfigError, load_config
from .servo import servo_angle

# cmd_validate pass thresholds, matched to the solver's design targets,
# and the grid ladder it runs without --nodes.
VALIDATE_NODES = (51, 101, 201)
VALIDATE_MAX_REL_ERROR = 0.01
VALIDATE_MIN_ORDER = 1.8
# Most points a sweep may take.  A sweep with both exports peaks at about
# 620 bytes per point (tracemalloc), so this cap keeps the largest near
# 60 MB, checked before the pressures are listed.  A point every 0.6 Pa
# over the default 60 kPa is finer than any plot needs.
MAX_SWEEP_STEPS = 100_001


class IOFailure(click.ClickException):
    """A file that cannot be read, written or parsed."""

    exit_code = 3


class CheckFailure(click.ClickException):
    exit_code = 1


class _Command(click.Command):
    """A command whose library errors end in their exit code: a point
    where the model has no value is a failure (1), any other ValueError a
    usage error (2)."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except capacitance.SweepPointError as exc:
            raise CheckFailure(str(exc)) from exc
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


def _atomic_write(path: str | Path, text: str) -> None:
    """Write text to path via a temp file and atomic rename.

    The file gets the mode a plain write would (0o666 less the umask),
    not the owner-only mode of the temp file.
    """
    path = Path(path)
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                os.fchmod(fd, 0o666 & ~umask)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise IOFailure(f"cannot write {path}: {exc}") from exc


def _read(path: str | Path, parse):
    """``parse`` applied to the text of ``path``; IOFailure naming the path
    if it cannot be read or ``parse`` raises ValueError."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise IOFailure(f"{path}: {exc}") from exc


def _write_rows(path: str | Path, header: str, rows) -> None:
    """A headed CSV with each value written as the repr of its float."""
    lines = [header, *(",".join(repr(float(v)) for v in row) for row in rows)]
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str | Path, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def _echo(ctx: click.Context, message: str) -> None:
    if not ctx.obj["quiet"]:
        click.echo(message)


@click.group(cls=_Group)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Device configuration JSON (bundled default if omitted).")
@click.option("--quiet", is_flag=True, help="Suppress informational output.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None, quiet: bool) -> None:
    """Touch-mode capacitive pressure sensor toolkit."""
    # Config is validated up front so no command starts work on a bad one.
    try:
        cfg = load_config(config_path)
    except OSError as exc:
        raise IOFailure(f"cannot read config: {exc}") from exc
    except ConfigError as exc:
        raise IOFailure(f"invalid config: {exc}") from exc
    ctx.obj = {"config": cfg, "quiet": quiet}


@main.command()
@click.option("--p-start", type=float, default=0.0, show_default=True,
              help="Sweep start pressure, Pa.")
@click.option("--p-end", type=float, default=60e3, show_default=True,
              help="Sweep end pressure, Pa.")
@click.option("--steps", type=click.IntRange(2, MAX_SWEEP_STEPS), default=61,
              show_default=True, help="Number of sample points.")
@click.option("--profile", default="default", show_default=True)
@click.option("--output", type=click.Path(), default="cp_sweep.csv",
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_context
def sweep(ctx: click.Context, p_start: float, p_end: float, steps: int,
          profile: str, output: str, fmt: str) -> None:
    """Sample the capacitance-pressure curve and export plot-ready data.

    CSV output also writes a JSON sidecar (same stem, .json suffix) with
    the geometry and thresholds embedded, so a CSV output path may not
    itself end in .json, in any letter case.
    """
    for flag, value in (("--p-start", p_start), ("--p-end", p_end)):
        if not math.isfinite(value):
            raise click.UsageError(f"{flag} must be finite, got {value}")
    if not p_start < p_end:
        raise click.UsageError("need --p-start < --p-end")
    if p_start < 0:
        raise click.UsageError("--p-start must be >= 0")
    if not math.isfinite((p_end - p_start) * (steps - 1)):
        raise click.UsageError("the pressure grid overflows: (--p-end - --p-start)"
                               " * (--steps - 1) is not finite")
    pressures = [p_start + (p_end - p_start) * i / (steps - 1)
                 for i in range(steps)]
    if any(b <= a for a, b in zip(pressures, pressures[1:])):
        raise click.UsageError("the pressure grid is finer than float spacing: "
                               "--steps points from --p-start to --p-end repeat "
                               "a pressure")
    if fmt == "csv" and Path(output).suffix.lower() == ".json":
        raise click.UsageError(
            f"--output {output} is also the path of the JSON sidecar; "
            "use --format json or an output name not ending in .json")
    cfg = ctx.obj["config"]
    geom = cfg.geometry(profile)
    curve = capacitance.sweep_cp_curve(
        geom, pressures, thresholds=cfg.thresholds, geometry_id=profile)

    if fmt == "json":
        _atomic_write(output, curve.to_json(geom, cfg.thresholds))
    else:
        _atomic_write(output, curve.to_csv())
        sidecar = Path(output).with_suffix(".json")
        _atomic_write(sidecar, curve.to_json(geom, cfg.thresholds))
        _echo(ctx, f"sidecar: {sidecar}")
    modes = sorted({capacitance.MODE_LABELS[m] for m in curve.mode})
    _echo(ctx, f"wrote {len(curve.mode)} points to {output} "
               f"(modes: {', '.join(modes)})")


@main.command()
@click.option("--nodes", "node_counts", type=int, multiple=True,
              help="Grid node counts for the convergence study (default: "
                   f"{' '.join(map(str, VALIDATE_NODES))}).")
@click.option("--profile", default="fem_scaled", show_default=True)
@click.option("--pressure", type=float, default=10e3, show_default=True,
              help="Load pressure for the convergence study, Pa.")
@click.pass_context
def validate(ctx: click.Context, node_counts: tuple[int, ...], profile: str,
             pressure: float) -> None:
    """Check the plate discretization against P R^4 / (64 D).

    Runs a grid convergence study of the linear plate solve and exits
    nonzero if the finest-grid error or an observed order misses its
    threshold.  The errors and orders depend on the node counts alone:
    --profile and --pressure change only the printed deflection column.
    """
    cfg = ctx.obj["config"]
    counts = sorted(node_counts or VALIDATE_NODES)
    geom = cfg.geometry(profile)
    rows = plate_fd.convergence_study(geom, pressure, counts)
    orders = plate_fd.observed_orders(rows)

    _echo(ctx, f"{'nodes':>6}  {'center deflection (m)':>22}  {'rel error':>10}")
    for row in rows:
        _echo(ctx, f"{row.node_count:>6}  {row.center_deflection:>22.15e}  "
                   f"{row.relative_error:>10.3e}")
    for (a, b), order in zip(zip(counts, counts[1:]), orders):
        _echo(ctx, f"order {a}->{b}: {order:.3f}")

    # Each check is written so that NaN fails it.
    failures = []
    if not rows[-1].relative_error <= VALIDATE_MAX_REL_ERROR:
        failures.append(
            f"finest-grid error {rows[-1].relative_error:.3e} "
            f"> {VALIDATE_MAX_REL_ERROR}")
    for order in orders:
        if not order >= VALIDATE_MIN_ORDER:
            failures.append(f"convergence order {order:.3f} < {VALIDATE_MIN_ORDER}")
    if failures:
        raise CheckFailure("validation failed: " + "; ".join(failures))
    _echo(ctx, "PASS")


@main.command()
@click.argument("data", type=click.Path())
@click.option("--free", "free_params", multiple=True, default=("gap",),
              type=click.Choice(calibration.FIT_PARAM_NAMES), show_default=True,
              help="Parameters to fit (repeatable).")
@click.option("--profile", default="default", show_default=True)
@click.option("--output", type=click.Path(), default="fit.json",
              show_default=True)
@click.pass_context
def fit(ctx: click.Context, data: str, free_params: tuple[str, ...],
        profile: str, output: str) -> None:
    """Fit model parameters to a measured pressure-capacitance CSV.

    Writes the fit result JSON plus a residual CSV sidecar and echoes the
    fitted parameters.  A non-converged fit still writes its best point
    but exits nonzero.
    """
    cfg = ctx.obj["config"]
    geom = cfg.geometry(profile)
    series = _read(data, calibration.MeasuredSeries.from_csv)
    result = calibration.fit_model(series, geom, list(free_params), cfg.fit_bounds)

    _write_json(output, dataclasses.asdict(result))
    model = calibration.fitted_capacitances(geom, result.params, series.abscissa)
    residual_path = Path(output).with_suffix(".residuals.csv")
    _write_rows(residual_path, "pressure_pa,capacitance_f,model_f,residual_f",
                zip(series.abscissa, series.capacitance, model,
                    model - series.capacitance))

    for name, value in result.params.items():
        _echo(ctx, f"{name} = {value!r}")
    _echo(ctx, f"residual RMS = {result.residual_norm:.6e} F "
               f"after {result.iterations} iterations")
    if not result.converged:
        raise CheckFailure(
            f"fit did not converge after {result.iterations} iterations; "
            f"best-so-far written to {output}")
    _echo(ctx, f"wrote {output} and {residual_path}")


@main.command()
@click.argument("pressures", type=float, nargs=-1)
@click.option("--data", "data_path", type=click.Path(), default=None,
              help="CSV with a pressure_pa column (e.g. sweep output).")
@click.option("--profile", default="default", show_default=True)
@click.option("--output", type=click.Path(), default="servo.csv",
              show_default=True)
@click.pass_context
def servo(ctx: click.Context, pressures: tuple[float, ...],
          data_path: str | None, profile: str, output: str) -> None:
    """Map pressures to servo angles through the calibrated model.

    Takes pressures (Pa) as arguments or a CSV via --data and emits a
    (pressure, capacitance, angle) CSV.
    """
    if data_path is None and not pressures:
        raise click.UsageError("give pressures as arguments or --data CSV")
    if data_path is not None and pressures:
        raise click.UsageError("give either pressures or --data, not both")
    cfg = ctx.obj["config"]
    geom = cfg.geometry(profile)

    if data_path is not None:
        _, (column,) = _read(data_path, lambda text: calibration.csv_columns(
            text, ("pressure_pa",)))
        p_list = column.tolist()
    else:
        p_list = list(pressures)

    caps = capacitance.capacitances(geom, p_list)
    _write_rows(output, "pressure_pa,capacitance_f,angle_deg",
                ((p, c, servo_angle(cfg.servo, p))
                 for p, c in zip(p_list, caps.tolist())))
    _echo(ctx, f"wrote {len(p_list)} rows to {output}")


@main.command()
@click.argument("data", type=click.Path())
@click.option("--output", type=click.Path(), default="modes.json",
              show_default=True)
@click.pass_context
def modes(ctx: click.Context, data: str, output: str) -> None:
    """Segment a pressure-capacitance CSV, or time a step response.

    A pressure_pa,capacitance_f CSV gets a continuous 4-piece linear fit,
    reported by its SSE-optimal knots; they match mode boundaries only
    where the curve changes slope there.  A time_s,capacitance_f CSV gets
    its 10-90% rise time, written as {"rise_time_s": ...}.
    """
    series = _read(data, calibration.MeasuredSeries.from_csv)
    if series.kind == "time":
        rise = calibration.rise_time(series)
        _write_json(output, {"rise_time_s": rise})
        _echo(ctx, f"rise time (s): {rise!r}")
        _echo(ctx, f"wrote {output}")
        return
    seg = calibration.segment_modes(series)
    _write_json(output, dataclasses.asdict(seg))
    bounds = ", ".join(f"{b!r}" for b in seg.boundaries)
    _echo(ctx, f"boundaries (Pa): {bounds}")
    _echo(ctx, "segment R^2: " + ", ".join(f"{r:.4f}" for r in seg.r_squared))
    if seg.low_confidence:
        _echo(ctx, "warning: boundary pinned to the search edge; "
                   "data may contain fewer than four regimes")
    _echo(ctx, f"wrote {output}")


if __name__ == "__main__":
    main()
