"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q      # from the checkout root

Each workload runs once per trace mode and must emit exactly the metrics
BENCHMARK.json names, with their units. Corrupted outputs must be counted
as failures, which shows the output checks are not vacuous.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = ["--seed", "3", "--seconds", "1", "--size", "tiny"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--trace", str(trace), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == 0 else "per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_cohort(pass_dir: Path) -> None:
    with open(pass_dir / "sim" / "cohort.csv", "a", encoding="utf-8") as fh:
        fh.write("extra,1.0,1,50.0,,,,,,,,\n")


def _corrupt_metrics(pass_dir: Path) -> None:
    path = pass_dir / "metrics" / "metrics.json"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["c_index"]["concordant"] += 1
    path.write_text(json.dumps(data), encoding="utf-8")


def _corrupt_obj(pass_dir: Path) -> None:
    path = pass_dir / "att" / "attention.obj"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _run_with(monkeypatch, capsys, workload, corrupt) -> dict:
    """Run the benchmark in-process, applying ``corrupt(pass_dir, pass_no)``
    to every pass's outputs before they are checked."""
    real = run.run_pass

    def corrupted(runner, commands, pass_dir, span_dir):
        result = real(runner, commands, pass_dir, span_dir)
        corrupt(pass_dir, int(pass_dir.name[len("pass"):]))
        return result

    monkeypatch.setattr(run, "run_pass", corrupted)
    monkeypatch.chdir(ROOT)
    assert run.main(["--workload", workload, "--trace", "0", *TINY]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("cohort-ingest", _corrupt_cohort),
        ("rank-attention", _corrupt_metrics),
        ("rank-attention", _corrupt_obj),
    ],
)
def test_corrupted_output_counts_as_failed(monkeypatch, capsys, workload, corrupt):
    # Every pass is corrupted alike, so only the content checks can notice.
    result = _run_with(monkeypatch, capsys, workload, lambda d, _: corrupt(d))
    assert not result["correct"]
    assert result["failed"] >= 2  # at least one command in each of two passes


def test_nondeterministic_output_counts_as_failed(monkeypatch, capsys):
    def extra_file(pass_dir, pass_no):
        if pass_no == 2:
            (pass_dir / "att" / "extra.txt").write_text("x", encoding="utf-8")

    result = _run_with(monkeypatch, capsys, "rank-attention", extra_file)
    assert not result["correct"]
    assert result["failed"] == 1
