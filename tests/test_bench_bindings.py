"""The names that the benchmark's tracer looks up in visage stay bound.

``bench/tracer.py`` wraps each function of its ``LAYERS`` table by module
and name, and its peak probe calls a few more. pytest does not collect
``bench/``, so a rename in visage would otherwise break only a benchmark
run. The tracer imports only the standard library at module level, so
loading it by path here runs no benchmark code.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import visage.cli  # noqa: F401  (registers every visage module the tracer looks in)

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", sorted(_tracer().LAYERS))
def test_layer_bound(layer):
    module_name, func_name = layer.split(".")
    module = sys.modules[f"visage.{module_name}"]
    owner = module.Cohort if func_name == "embedding_matrix" else module
    assert callable(getattr(owner, func_name))


def test_cli_import_registers_every_layer_module():
    """``install`` finds each layer's module in ``sys.modules`` right after
    ``import visage.cli``; the command line registers them there lazily."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, visage.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    layer_modules = {f"visage.{layer.split('.')[0]}" for layer in _tracer().LAYERS}
    assert layer_modules <= set(proc.stdout.split())


def test_peak_probe_names_bound():
    from visage import cohort, trainer

    for owner, name in [
        (cohort.Cohort, "times"), (cohort.Cohort, "events"), (cohort.Cohort, "embedding_matrix"),
        (trainer, "load_model"), (trainer.RiskModel, "predict"),
    ]:
        assert callable(getattr(owner, name)), name
    assert "train_indices" in {f.name for f in dataclasses.fields(trainer.TrainResult)}


def test_traced_train_nests_loss_and_concordance(tmp_path):
    """The tracer rebinds module attributes, so the trainer must look up
    ``pairwise_rank_loss`` and ``harrell_c`` by name when it calls them:
    a reference taken at import time (a default argument, a partial) would
    drop their spans from a traced run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    sim = [sys.executable, "-m", "visage.cli", "simulate", "--out", tmp_path / "sim",
           "--seed", "3", "--n", "60", "--beta", "0.1", "--covariates", "fad:normal:0:6",
           "--censor", "uniform:1500", "--embedding-dim", "2", "--embedding-weights", "0.5,-0.5"]
    subprocess.run(list(map(str, sim)), env=env, check=True, capture_output=True)
    spans_file = tmp_path / "spans.json"
    traced = [sys.executable, ROOT / "bench" / "tracer.py", "spans", spans_file, "--",
              "train", "--cohort", tmp_path / "sim" / "cohort.csv", "--out", tmp_path / "train",
              "--epochs", "2", "--batch-size", "8"]
    subprocess.run(list(map(str, traced)), env=env, check=True, capture_output=True)
    spans = json.loads(spans_file.read_text())
    (train,) = [s for s in spans if s["name"] == "trainer.train_risk_model"]
    inside = [s["name"] for s in spans if s["parent"] == train["id"]]
    batches = train["counts"]["batches"]
    # One loss per batch plus two per epoch end; two concordances per epoch end.
    assert inside.count("trainer.pairwise_rank_loss") == batches + 2 * 2
    assert inside.count("metrics.harrell_c") == 2 * 2
