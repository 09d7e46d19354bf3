"""Smoke test of the benchmark's contract with the package.

perfbench/ drives the package through its public API (function names,
positional arguments, JSON formats, CLI exit codes and error texts). This
builds the `verify-quick`, `pipeline` and `cli` workloads against the package
under test and runs their set-up and checker self-tests, so an API break
fails here instead of in a benchmark run. Nothing under perfbench/ is modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dephaser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("workload", ["VerifyQuick", "Pipeline", "Cli"])
def test_workload_setup_and_selftest(tmp_path, workload):
    layers = _load("tracing").LAYERS
    mods = {"package": dephaser,
            **{layer: importlib.import_module(f"dephaser.{layer}") for layer in layers}}
    wl = getattr(_load("workloads"), workload)(mods, 3, str(tmp_path / "work"))
    wl.setup()
    assert wl.selftest() == []
