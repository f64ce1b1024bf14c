"""visage benchmark: CLI wall time and peak RSS per workload, layer times when traced.

Run from the root of a visage checkout (``src/visage`` must be there):

    python3 bench/run.py --workload rank-attention --seed 1 --seconds 50 --trace 0

Each workload is a sequence of ``python -m visage.cli <cmd>`` subprocesses
run one at a time against ``src/``; see ``workloads.py`` for the sequences,
input generators and output checks, and ``README.md`` for what each metric
should move.

``--trace 0`` measures interpreter start-up (``setup_s``), then repeats
passes through the sequence for about ``--seconds`` (at least three, each
checked for determinism against the first) and reports medians.
``--trace 1`` runs one plain pass, one pass of the same commands under
``tracer.py`` (a span around each public layer call) and one tracemalloc
probe, and reports per-layer self time, calls, counters and peak memory;
it takes about as long as two passes whatever ``--seconds`` says.

Every command's outputs are checked; a command that exits non-zero, fails
a check, or writes a tree that differs from the first pass counts as
failed. The last line of stdout is the JSON result; the same result, with
the environment and every sample, goes to
``.bench_runs/<workload>-seed<seed>-trace<t>/result.json`` beside the
spans as JSONL.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_PASSES = 3  # so that one slow pass cannot move the median
RUN_LIMIT_S = 170.0  # every child is killed by then; the run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"  # one BLAS thread: steadier on a shared two-core box
COMMANDS = ("simulate", "cox", "km", "train", "metrics", "attention")

# The host's speed drifts by tens of percent over minutes. While a child
# runs, this process times a fixed chunk of interpreter work (the pace) on
# the other vCPU every PACE_EVERY_S, about 2 % of that vCPU. End-to-end
# times are scaled by PACE_REF_S / (median pace during that child).
PACE_EVERY_S = 0.05
PACE_REF_S = 1e-3
PACE_WORDS = [repr(i * 0.37) for i in range(4000)]


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    units = {"cli.import_s": "s", "cli.main_s": "s"}
    units.update({f"cmd_s.{c}": "s" for c in COMMANDS})
    for layer, (counters, _) in tracer.LAYERS.items():
        units[f"{layer}.s"] = "s"
        units[f"{layer}.calls"] = "count"
        units.update({f"{layer}.{c}": "bytes" if c == "bytes" else "count" for c in counters})
    units.update({f"{layer}.peak_mb": "MB" for layer in tracer.PEAK_LAYERS})
    units["trace.overhead_s"] = "s"
    return units


# ----------------------------------------------------------- processes


class Runner:
    """Starts the benchmark's children, one at a time, and measures each."""

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.env.update({var: BLAS_THREADS for var in BLAS_VARS})
        self.logs = logs
        self.deadline = deadline
        self.started = 0

    def run(self, argv: list[str], cwd: Path) -> dict:
        """Run one child to completion and measure it.

        Returns its wall time, the wall time scaled to the reference pace,
        the median pace, its max RSS in MB (``os.wait4`` gives this child's
        alone) and its exit code. A child still running at the
        deadline is killed and reported as failed.
        """
        self.started += 1
        log = self.logs / f"{self.started:04d}.stderr"
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            exited = os.pidfd_open(proc.pid)
            paces = []
            try:
                while not select.select([exited], [], [], PACE_EVERY_S)[0]:
                    if time.monotonic() > self.deadline:
                        proc.kill()
                    paces.append(pace())
                wall = time.perf_counter() - t0
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(exited)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        pace_s = statistics.median(paces or [pace()])
        return {
            "wall_s": wall, "adjusted_s": wall * PACE_REF_S / pace_s, "pace_s": pace_s,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": code,
        }


def pace() -> float:
    """Seconds taken by a fixed chunk of interpreter work."""
    t0 = time.perf_counter()
    table = {}
    for word in PACE_WORDS:
        table[word] = float(word)
    return time.perf_counter() - t0


# ------------------------------------------------------------- passes


def run_pass(runner, commands, pass_dir: Path, span_dir: Path | None) -> dict:
    """One pass through the command sequence; traced when ``span_dir`` is set."""
    pass_dir.mkdir(parents=True)
    result = {"commands": [], "start": time.perf_counter()}
    for i, cmd in enumerate(commands):
        if span_dir is None:
            argv = [sys.executable, "-m", "visage.cli", *cmd.argv]
        else:
            spans = span_dir / f"{pass_dir.name}-{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), "spans", str(spans), "--", *cmd.argv]
        start = time.perf_counter()
        result["commands"].append({
            "name": cmd.name, "start": start, **runner.run(argv, pass_dir),
            "spans": str(spans) if span_dir is not None else None,
        })
    result["end"] = time.perf_counter()
    result["wall_s"] = result["end"] - result["start"]
    result["adjusted_s"] = sum(c["adjusted_s"] for c in result["commands"])
    result["peak_rss_mb"] = max(c["rss_mb"] for c in result["commands"])
    return result


def pass_failures(workload, size, info, commands, result, pass_dir, reference):
    """Problems per command (exit code, output checks, bytes that differ
    from the ``reference`` digest) and this pass's digest."""
    problems = {c["name"]: [f"exit code {c['exit']}"] if c["exit"] else [] for c in result["commands"]}
    try:
        for cmd, found in workload.check(pass_dir, size, info).items():
            problems[cmd] += found
    except Exception:  # a malformed output must count as a failure, not end the run
        for cmd in problems:
            problems[cmd].append("output check raised:\n" + traceback.format_exc())
    digest = wl.tree_digest(pass_dir)
    if reference is not None:
        owner = {c.out: c.name for c in commands}
        for path in sorted(set(digest) | set(reference)):
            if digest.get(path) != reference.get(path):
                cmd = owner.get(Path(path).parts[0], commands[0].name)
                problems[cmd].append(f"{path} differs from the first pass")
    return problems, digest


# ------------------------------------------------------------- spans


def collect_spans(passes: list[dict], workload: str) -> list[dict]:
    """Pass and command spans from here, layer spans from traced children."""
    spans: list[dict] = []

    def add(name, start, end, parent, pass_no, counts=None):
        spans.append({
            "id": len(spans), "name": name, "start": start, "end": end, "parent": parent,
            "workload": workload, "pass": pass_no, **({"counts": counts} if counts else {}),
        })
        return len(spans) - 1

    for pass_no, result in enumerate(passes, start=1):
        pass_id = add("pass", result["start"], result["end"], None, pass_no)
        for c in result["commands"]:
            cmd_id = add(f"cmd.{c['name']}", c["start"], c["start"] + c["wall_s"], pass_id, pass_no)
            if not (c["spans"] and Path(c["spans"]).is_file()):
                continue
            offset = len(spans)
            for s in json.loads(Path(c["spans"]).read_text(encoding="utf-8")):
                parent = cmd_id if s["parent"] is None else offset + s["parent"]
                add(s["name"], s["start"], s["end"], parent, pass_no, s.get("counts"))
    return spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(spans: list[dict], traced_pass: int) -> tuple[dict, dict]:
    """Per-layer sums over the traced pass, and each command's top layers."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    metrics: dict[str, float] = {}
    shares: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        if s["pass"] != traced_pass or s["name"] == "pass" or s["name"].startswith("cmd."):
            continue
        name = {"cli.import": "cli.import_s", "cli.main": "cli.main_s"}.get(s["name"], f"{s['name']}.s")
        metrics[name] = metrics.get(name, 0.0) + own
        if s["name"] in tracer.LAYERS:
            metrics[f"{s['name']}.calls"] = metrics.get(f"{s['name']}.calls", 0) + 1
        for key, value in s.get("counts", {}).items():
            metrics[f"{s['name']}.{key}"] = metrics.get(f"{s['name']}.{key}", 0) + value
        top = s
        while not top["name"].startswith("cmd."):
            top = by_id[top["parent"]]
        cmd = top["name"][4:]
        shares.setdefault(cmd, {})
        shares[cmd][s["name"]] = shares[cmd].get(s["name"], 0.0) + own
    return metrics, shares


# ------------------------------------------------------------ summary


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest of p90/p99/p99.9 that has
    at least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = float(np.percentile(values, pct))
            break
    return out


def environment(root: Path, args) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_rev": git_rev(root),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_rev(root: Path) -> str:
    """HEAD of the checkout's own .git, read directly so nothing outside
    the checkout is consulted; "unknown" when it is not a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# --------------------------------------------------------------- main


class Run:
    """One benchmark run: its directory, children, inputs and passes."""

    def __init__(self, args, root: Path):
        self.args = args
        self.workload = wl.WORKLOADS[args.workload]
        self.size = wl.SIZES[args.workload][args.size]
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.dir = root / ".bench_runs" / (name if args.size == "full" else f"{name}-{args.size}")
        shutil.rmtree(self.dir, ignore_errors=True)
        self.spans_dir = self.dir / "spans"
        for d in (self.dir / "logs", self.spans_dir, self.dir / wl.INPUTS):
            d.mkdir(parents=True)
        self.started = time.monotonic()
        self.runner = Runner(root, self.dir / "logs", self.started + RUN_LIMIT_S)
        self.passes: list[dict] = []
        self.problems: list[dict] = []
        self.reference = None
        self.info: dict = {}
        self.commands: list = []

    def version(self) -> dict:
        return self.runner.run([sys.executable, "-m", "visage.cli", "--version"], self.dir)

    def prepare(self) -> None:
        """Make the inputs; untimed."""
        self.info = self.workload.make_inputs(self.args.seed, self.size, self.dir / wl.INPUTS)
        self.commands = self.workload.commands(self.args.seed, self.size, self.info)

    def one_pass(self, traced: bool) -> dict:
        pass_dir = self.dir / f"pass{len(self.passes) + 1}"
        result = run_pass(self.runner, self.commands, pass_dir, self.spans_dir if traced else None)
        found, digest = pass_failures(
            self.workload, self.size, self.info, self.commands, result, pass_dir, self.reference
        )
        self.passes.append(result)
        self.problems.append(found)
        if self.reference is None:
            self.reference = digest
        return result

    def cleanup(self) -> None:
        """Drop inputs and pass outputs; keep the record, logs and spans."""
        for i in range(len(self.passes)):
            shutil.rmtree(self.dir / f"pass{i + 1}", ignore_errors=True)
        shutil.rmtree(self.dir / wl.INPUTS, ignore_errors=True)


def measure_plain(run: Run) -> tuple[dict, dict, dict]:
    """Start-up samples, then passes for about --seconds: end-to-end medians."""
    run.version()  # warm-up: compiles bytecode and fills the file cache
    setup = [run.version() for _ in range(SETUP_SAMPLES)]
    run.prepare()
    t0 = time.monotonic()
    while True:
        run.one_pass(traced=False)
        typical = statistics.median(p["wall_s"] for p in run.passes)
        if len(run.passes) >= MIN_PASSES and time.monotonic() - t0 + typical > run.args.seconds:
            break
        if time.monotonic() + 1.5 * typical > run.started + RUN_LIMIT_S:
            break
    def pass_time(key: str) -> dict:
        """The sum over the commands of each one's median over the passes,
        so that one slow command does not move a pass's time."""
        total = sum(
            statistics.median(p["commands"][i][key] for p in run.passes)
            for i in range(len(run.commands))
        )
        return {"median": total, "n": len(run.passes)}

    stats = {
        "setup_s": summary([v["adjusted_s"] for v in setup]),
        "wall_s": pass_time("adjusted_s"),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in run.passes]),
    }
    unadjusted = {
        "setup_s": summary([v["wall_s"] for v in setup]),
        "wall_s": pass_time("wall_s"),
    }
    metrics = {k: s["median"] for k, s in stats.items()}
    extra = {"summaries": stats, "unadjusted": unadjusted, "setup_samples": setup}
    return metrics, END_TO_END_UNITS, extra


def measure_traced(run: Run) -> tuple[dict, dict, dict]:
    """A plain pass, a traced pass and the peak probe: per-layer numbers."""
    run.version()
    run.prepare()
    plain, traced = run.one_pass(traced=False), run.one_pass(traced=True)
    peak_out = run.dir / "peak.json"
    peak_argv = [sys.executable, str(BENCH / "tracer.py"), "peak", str(peak_out),
                 run.args.workload, str(run.dir / "pass2"), str(run.args.seed)]
    code = run.runner.run(peak_argv, run.dir)["exit"]
    peaks = json.loads(peak_out.read_text(encoding="utf-8")) if code == 0 else {}

    spans = collect_spans(run.passes, run.args.workload)
    layers, shares = layer_metrics(spans, traced_pass=2)
    units = per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics.update({k: v for k, v in layers.items() if k in units})
    metrics.update({f"cmd_s.{c['name']}": c["wall_s"] for c in plain["commands"]})
    metrics.update({f"{k}.peak_mb": v for k, v in peaks.items()})
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    extra = {
        "peak_probe_exit": code,
        "layer_shares": {
            c["name"]: {
                k: v / c["wall_s"]
                for k, v in sorted(shares.get(c["name"], {}).items(), key=lambda kv: -kv[1])
            }
            for c in traced["commands"]
        },
    }
    return metrics, units, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same paths in seconds (smoke test)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    root = Path.cwd()
    if not (root / "src" / "visage" / "cli.py").is_file():
        print("error: run from the root of a visage checkout (src/visage/cli.py not found)",
              file=sys.stderr)
        return 2

    run = Run(args, root)
    metrics, units, extra = (measure_traced if args.trace else measure_plain)(run)
    attempted = sum(len(found) for found in run.problems)
    failed = sum(bool(msgs) for found in run.problems for msgs in found.values())
    if args.trace:
        attempted += 1  # the peak probe
        failed += extra["peak_probe_exit"] != 0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    plain = [p for i, p in enumerate(run.passes) if not (args.trace and i == 1)]
    record = {
        "result": result,
        "fail_ratio": failed / attempted,
        "environment": environment(root, args),
        "cmd_s": {
            c.name: summary([p["commands"][i]["wall_s"] for p in plain])
            for i, c in enumerate(run.commands)
        },
        "passes": run.passes,
        "problems": [{k: v for k, v in found.items() if v} for found in run.problems],
        **extra,
    }
    (run.dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    with open(run.dir / "spans.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(s) + "\n" for s in collect_spans(run.passes, args.workload))
    run.cleanup()
    report(record, run.dir / "result.json")
    return 0


def report(record: dict, path: Path) -> None:
    """Human-readable lines, then the result as the last line."""
    env, result = record["environment"], record["result"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']} size={env['size']} "
          f"rev={env['git_rev'][:12]} nproc={env['nproc']} mem={env['mem_total_mb']:.0f}MB "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    for name, s in record.get("summaries", {}).items():
        tail = "".join(f" {k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
        if name in record["unadjusted"]:
            tail += f"; unadjusted {record['unadjusted'][name]['median']:.6g}"
        how = "sum of command medians over" if name == "wall_s" else "median of"
        print(f"{name:<14} {s['median']:.6g} {result['metrics'][name]['unit']} "
              f"({how} {s['n']}{tail})")
    for name, s in record["cmd_s"].items():
        print(f"cmd_s.{name:<9} {s['median']:.6g} s (median of {s['n']})")
    for cmd, shares in record.get("layer_shares", {}).items():
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(shares.items())[:4])
        print(f"traced {cmd}: {top}")
    for i, found in enumerate(record["problems"], start=1):
        for cmd, msgs in found.items():
            for msg in msgs:
                print(f"FAIL pass {i} {cmd}: {msg.splitlines()[0]}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({result['failed']}/{result['attempted']}); "
          f"record in {path}")
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
