"""Traced child process: one visage CLI command with a span around each layer.

    python3 bench/tracer.py spans OUT.json -- <visage cli arguments>
    python3 bench/tracer.py peak OUT.json <workload> <pass dir> <seed>

``spans`` imports ``visage.cli`` inside a ``cli.import`` span (nothing else
is imported before it, so the span holds numpy and scipy too), replaces each
function in ``LAYERS`` wherever a visage module binds it by a wrapper that
records a span, and runs ``visage.cli.main`` inside a ``cli.main`` span, so
the command calls the same public functions in the same order as
``python -m visage.cli``. Nested calls (``univariate_screen`` calling
``fit_cox``, the trainer calling ``harrell_c``) nest their spans. Spans stay
in memory and are written to OUT.json as the process ends. The exit code is
the command's.

``peak`` calls the workload's memory-heavy layers once each under
``tracemalloc`` and writes each layer's peak traced allocation in MB. It is
a separate process so that tracemalloc's overhead stays out of the timings.

Nothing here changes the program: the wrappers only observe.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path


def _batches(args, kwargs, result) -> int:
    from visage.trainer import TrainConfig

    config = args[3] if len(args) > 3 else kwargs.get("config") or TrainConfig()
    return len(result.trace) * math.ceil(len(result.train_indices) / config.batch_size)


# Layer span name -> (counter names, counters from (args, kwargs, result)).
# Counters are summed over the calls of a pass.
LAYERS = {
    "cohort.load_cohort": (("rows",), lambda a, k, r: {"rows": len(r.cohort)}),
    "cohort.save_cohort": (("bytes",), lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    "cohort.embedding_matrix": ((), None),
    "synth.simulate": ((), None),
    "cox.univariate_screen": ((), None),
    "cox.build_design": ((), None),
    "cox.fit_cox": (("iterations",), lambda a, k, r: {"iterations": r.iterations}),
    "biomarkers.fad_for_cohort": ((), None),
    "biomarkers.stratify": ((), None),
    "survival.kaplan_meier": ((), None),
    "survival.log_rank": ((), None),
    "survival.reverse_km_median_followup": ((), None),
    "metrics.harrell_c": (
        ("comparable_pairs",), lambda a, k, r: {"comparable_pairs": r.comparable_pairs}
    ),
    "metrics.time_dependent_auc": (
        ("case_control_pairs",),
        lambda a, k, r: {"case_control_pairs": r.n_cases * r.n_controls},
    ),
    "trainer.train_risk_model": (
        ("epochs", "batches", "skipped_batches"),
        lambda a, k, r: {
            "epochs": len(r.trace),
            "batches": _batches(a, k, r),
            "skipped_batches": sum(s.skipped_batches for s in r.trace),
        },
    ),
    "trainer.pairwise_rank_loss": (("pairs",), lambda a, k, r: {"pairs": r.n_pairs}),
    "trainer.save_model": (("files",), lambda a, k, r: {"files": 1}),
    "attention.load_mesh": ((), None),
    "attention.subdivide_once": (
        ("triangles",), lambda a, k, r: {"triangles": r.n_triangles}
    ),
    "attention.load_grid": ((), None),
    "attention.upsample_bilinear": ((), None),
    "attention.triangle_attention": ((), None),
    "attention.average_over_dataset": ((), None),
    "attention.export_obj": (("bytes",), lambda a, k, r: {"bytes": len(r)}),
}

# Layers whose tracemalloc peak the peak probe reports.
PEAK_LAYERS = (
    "cohort.load_cohort",
    "metrics.harrell_c",
    "metrics.time_dependent_auc",
    "trainer.pairwise_rank_loss",
)


class Recorder:
    """Spans of one process: name, start, end, parent, counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def enter(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def leave(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, func, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.leave(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Swap every binding of each layer function in visage for a wrapper."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "visage"]
    for name, (_, counter) in LAYERS.items():
        module_name, func_name = name.split(".")
        module = sys.modules[f"visage.{module_name}"]
        if func_name == "embedding_matrix":
            owner = module.Cohort
            owner.embedding_matrix = recorder.wrap(name, owner.embedding_matrix, counter)
            continue
        original = getattr(module, func_name)
        traced = recorder.wrap(name, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)


def run_spans(out: Path, argv: list[str]) -> int:
    recorder = Recorder()
    span = recorder.enter("cli.import")
    import visage.cli

    recorder.leave(span)
    install(recorder)
    span = recorder.enter("cli.main")
    try:
        code = visage.cli.main(argv)
    finally:
        recorder.leave(span)
        out.write_text(json.dumps(recorder.spans), encoding="utf-8")
    return code


def run_peak(out: Path, workload: str, pass_dir: Path, seed: int) -> int:
    import tracemalloc

    import numpy as np

    from visage import biomarkers, cohort, metrics, trainer
    from workloads import INPUTS, RANK_HORIZONS

    peaks: dict[str, float] = {}

    def measure(name, func, *args):
        tracemalloc.start()
        try:
            result = func(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks[name] = max(peaks.get(name, 0.0), peak / 2**20)
        return result

    if workload == "cohort-ingest":
        measure("cohort.load_cohort", cohort.load_cohort, pass_dir / "sim" / "cohort.csv")
    elif workload == "rank-attention":
        loaded = measure("cohort.load_cohort", cohort.load_cohort,
                         pass_dir.parent / INPUTS / "cohort.csv")
        subjects = loaded.cohort
        fad = biomarkers.fad_for_cohort(subjects).values
        t, e = subjects.times(), subjects.events()
        measure("metrics.harrell_c", metrics.harrell_c, fad, t, e)
        for horizon in RANK_HORIZONS:
            measure("metrics.time_dependent_auc", metrics.time_dependent_auc, fad, t, e, horizon)
        # One epoch-end evaluation: the full training split, trained model.
        config = trainer.TrainConfig(seed=seed)
        X = subjects.embedding_matrix()
        split = trainer.train_risk_model(X, t, e, trainer.TrainConfig(seed=seed, epochs=0))
        idx = np.asarray(split.train_indices)
        model, _ = trainer.load_model(pass_dir / "train" / "model.bin")
        measure("trainer.pairwise_rank_loss", trainer.pairwise_rank_loss,
                model.predict(X[idx]), t[idx], e[idx], config.smooth_lambda, config.pair_loss)
    out.write_text(json.dumps(peaks), encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    mode, out = argv[0], Path(argv[1])
    if mode == "spans" and argv[2] == "--":
        return run_spans(out, argv[3:])
    if mode == "peak":
        return run_peak(out, argv[2], Path(argv[3]), int(argv[4]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
