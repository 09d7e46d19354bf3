"""Smoke test of the benchmark's contract with the package.

perfbench/ drives the package through its public API (function names,
positional arguments, JSON formats, CLI exit codes and error texts). This
builds the `verify-quick`, `pipeline` and `cli` workloads against the package
under test and runs their set-up and checker self-tests, so an API break
fails here instead of in a benchmark run. It also checks that every function
a per-layer metric of BENCHMARK.json names still exists. Nothing under
perfbench/ is modified.
"""

import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

import dephaser

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_per_layer_metrics_name_public_functions():
    # a per-layer metric on a deleted or renamed function would read 0
    # instead of failing, so every function a metric names must exist
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pattern = re.compile(r"(linalg|channels|superchannels|coherence)\.(\w+)\."
                         r"(s|calls|iters|rejected|per_item|d\d+\.us)")
    matches = [pattern.fullmatch(metric["name"]) for metric in metrics]
    named = [match.group(1, 2) for match in matches if match]
    assert len(named) >= 20
    for layer, func in named:
        mod = importlib.import_module(f"dephaser.{layer}")
        fn = getattr(mod, func, None)
        assert not func.startswith("_") and inspect.isfunction(fn), f"{layer}.{func}"
        assert fn.__module__ == mod.__name__, f"{layer}.{func}"


def test_seesaw_iteration_metric_counts_one_record_per_restart_and_iteration():
    # coherence.discrimination_seesaw.iters sums what tracing reads of each
    # call: the dimension in the low byte, len(iteration_log) above it
    from dephaser import channels as chn, coherence as coh, serialization as ser
    from dephaser import superchannels as sup
    from dephaser.sampling import Rng

    tracing = _load("tracing")
    mods = {layer: importlib.import_module(f"dephaser.{layer}") for layer in tracing.LAYERS}
    hook = tracing._aux_hook("coherence.discrimination_seesaw", mods)
    rng = Rng(31)
    gate = chn.random_channel(rng.derive(0), 3, 2)
    scs = [sup.sample(rng.derive(1 + k), 3) for k in range(2)]
    res = coh.discrimination_seesaw(gate, scs, restarts=8, rng=rng.derive(9))
    rows = ser._log_summary(res.iteration_log)
    assert [row["restart"] for row in rows] == list(range(8))
    for row in rows:
        iters = [rec["iter"] for rec in res.iteration_log if rec["restart"] == row["restart"]]
        assert iters == list(range(row["iterations"] + 1))
    aux = hook((gate, scs), res)
    assert aux & 0xFF == 3
    assert aux >> 8 == len(res.iteration_log) == sum(row["iterations"] + 1 for row in rows)
