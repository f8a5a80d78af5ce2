"""The benchmark's contract with the program: every name it instruments.

``benchmarks/harness.py`` wraps the program's public entry points at the
bindings their callers look up.  A deleted or renamed entry point fails
``instrument``; a binding left wrapped after ``Tracer.uninstall`` would
skew every later run in the process.  The benchmark modules import each
other by bare name, so their directory goes on the path for the test.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from touchcap import calibration, capacitance, cli, mechanics, plate_fd

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = (capacitance, calibration, mechanics, plate_fd, cli)


@pytest.fixture
def bench(monkeypatch):
    """``harness`` and ``tracing`` imported from the benchmark directory,
    dropped from ``sys.modules`` afterwards with the modules they import."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    before = set(sys.modules)
    yield importlib.import_module("harness"), importlib.import_module("tracing")
    for name in set(sys.modules) - before:
        if (getattr(sys.modules[name], "__file__", None) or "").startswith(str(BENCHMARKS)):
            del sys.modules[name]


def bindings():
    """Every attribute of the touchcap modules and of the classes they define."""
    owners = list(MODULES)
    owners += [v for m in MODULES for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("touchcap")]
    return {(id(owner), attr): value
            for owner in owners for attr, value in list(vars(owner).items())}


def test_instrument_patches_and_uninstall_restores(bench):
    harness, tracing = bench
    env = SimpleNamespace(capacitance=capacitance, calibration=calibration,
                          mechanics=mechanics, plate_fd=plate_fd, cli=cli)
    before = bindings()
    tracer = tracing.Tracer(("deflection_solves", "rigidity_evals"))
    try:
        harness.instrument(env, tracer)
        patched = {key for key, value in bindings().items() if before.get(key) is not value}
    finally:
        tracer.uninstall()
    assert {(id(calibration), "model_capacitances"), (id(calibration), "fit_model"),
            (id(mechanics), "large_deflection_center"), (id(cli), "load_config"),
            (id(capacitance.CPCurve), "to_csv")} <= patched
    after = bindings()
    assert [key for key in before if after.get(key) is not before[key]] == []
    assert calibration.model_capacitances is capacitance.capacitances
