"""The benchmark's workloads: input generators, command sequences, output checks.

Every workload is a fixed sequence of ``python -m visage.cli <cmd>`` runs.
Inputs are generated here from the workload seed, outside the timed
region, and the program only ever sees the files. Each pass runs in its
own directory with the shared inputs at ``../inputs``, so manifests (which
record input paths as given) are identical across passes.

Checks return ``{command: [problem, ...]}``; any problem counts the
command as a failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

INPUTS = "inputs"  # sibling of the pass directories

# Sizes: "full" is the measured configuration; "tiny" runs the same code
# paths in seconds, for the smoke test.
# A full pass takes 10-16 s, so that a 50 s run holds at least three.
SIZES = {
    "cohort-ingest": {
        "full": {"n": 25_000, "dim": 64},
        "tiny": {"n": 2_000, "dim": 8},
    },
    "rank-attention": {
        "full": {"n": 5_000, "dim": 64, "epochs": 3,
                 "small_grids": 2, "large_grids": 1, "subdivide": 2},
        "tiny": {"n": 400, "dim": 8, "epochs": 2,
                 "small_grids": 2, "large_grids": 1, "subdivide": 1},
    },
}


@dataclass
class Command:
    name: str  # the visage subcommand
    argv: list[str]  # arguments after ``python -m visage.cli``
    out: str  # its --out directory, relative to the pass directory


@dataclass
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, dict, Path], dict]
    commands: Callable[[int, dict, dict], list[Command]]
    check: Callable[[Path, dict, dict], dict[str, list[str]]]


# ---------------------------------------------------------------- helpers


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path) -> dict[str, str]:
    """Relative path -> sha256 for every file under ``root``."""
    return {
        str(p.relative_to(root)): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _manifest_problems(pass_dir: Path, out: str) -> list[str]:
    """The command's manifest exists and each recorded input hash matches."""
    path = pass_dir / out / "manifest.json"
    if not path.is_file():
        return [f"{out}/manifest.json missing"]
    manifest = json.loads(path.read_text(encoding="utf-8"))
    problems = []
    for name, digest in manifest.get("inputs", {}).items():
        target = pass_dir / name
        if not target.is_file():
            problems.append(f"{out}: manifest input {name} missing")
        elif sha256_file(target) != digest:
            problems.append(f"{out}: manifest hash of {name} does not match the file")
    return problems


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: Path, header: list[str] | None, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


# ---------------------------------------------------------- cohort-ingest

# True per-year log hazard ratios of the simulated covariates.
_INGEST_COVARIATES = "fad:normal:0:6;sex:bernoulli:0.5;chrono_age:uniform:40:80"
_INGEST_BETA = (0.05, 0.3, 0.02)


def _ingest_inputs(seed: int, size: dict, inputs: Path) -> dict:
    # simulate generates the cohort itself from --seed; nothing to write.
    return {"n": size["n"]}


def _ingest_commands(seed: int, size: dict, info: dict) -> list[Command]:
    # Zero embedding weights keep the Cox model correctly specified, so the
    # fad estimate can be held to the simulated truth.
    weights = ",".join(["0"] * size["dim"])
    return [
        Command("simulate", [
            "simulate", "--out", "sim", "--seed", str(seed), "--n", str(size["n"]),
            "--beta", ",".join(map(str, _INGEST_BETA)),
            "--covariates", _INGEST_COVARIATES, "--censor", "uniform:1500",
            "--embedding-dim", str(size["dim"]), "--embedding-weights", weights,
        ], "sim"),
        Command("cox", [
            "cox", "--cohort", "sim/cohort.csv", "--out", "cox",
            "--biomarker", "fad:per:10",
            "--adjusters", "sex:cat:female,chrono_age:per:10", "--screen",
        ], "cox"),
        Command("km", [
            "km", "--cohort", "sim/cohort.csv", "--out", "km", "--group-by", "fad_ge5",
        ], "km"),
    ]


def _ingest_check(pass_dir: Path, size: dict, info: dict) -> dict[str, list[str]]:
    n = info["n"]
    problems: dict[str, list[str]] = {"simulate": [], "cox": [], "km": []}

    cohort_csv = pass_dir / "sim" / "cohort.csv"
    if cohort_csv.is_file():
        with open(cohort_csv, "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != n:
            problems["simulate"].append(f"cohort.csv has {rows} rows, expected {n}")
    else:
        problems["simulate"].append("sim/cohort.csv missing")
    for cmd, out in (("simulate", "sim"), ("cox", "cox"), ("km", "km")):
        problems[cmd] += _manifest_problems(pass_dir, out)

    fit_path = pass_dir / "cox" / "fit.json"
    if fit_path.is_file():
        adjusted = json.loads(fit_path.read_text(encoding="utf-8"))["adjusted"]
        row = next((c for c in adjusted["covariates"] if c["name"] == "fad_per_10"), None)
        truth = 10.0 * _INGEST_BETA[0]
        if not adjusted["converged"]:
            problems["cox"].append("adjusted fit did not converge")
        if row is None:
            problems["cox"].append("no fad_per_10 coefficient")
        elif not (row["se"] > 0 and abs(row["beta"] - truth) <= 4.0 * row["se"]):
            problems["cox"].append(
                f"fad_per_10 beta {row['beta']} is not within 4 SE ({row['se']}) of {truth}"
            )
    else:
        problems["cox"].append("cox/fit.json missing")

    results_path = pass_dir / "km" / "results.json"
    if results_path.is_file():
        results = json.loads(results_path.read_text(encoding="utf-8"))
        total = sum(s["n"] for s in results["strata"].values())
        if total != n:
            problems["km"].append(f"strata sum to {total}, expected {n}")
        curves = sorted((pass_dir / "km").glob("km_*.csv"))
        if len(curves) != len(results["strata"]):
            problems["km"].append(f"{len(curves)} curves for {len(results['strata'])} strata")
        for curve in curves:
            surv = np.loadtxt(curve, delimiter=",", skiprows=1, usecols=1, ndmin=1)
            if not (np.all((surv >= 0) & (surv <= 1)) and np.all(np.diff(surv) <= 0)):
                problems["km"].append(f"{curve.name} is not non-increasing in [0, 1]")
    else:
        problems["km"].append("km/results.json missing")
    return problems


# ---------------------------------------------------- rank-attention: rank

RANK_HORIZONS = (91.0, 182.0, 365.0, 730.0)  # the metrics command's default horizons


def _rank_inputs(seed: int, size: dict, inputs: Path) -> dict:
    """A cohort with day-rounded (hence tied) times and a fad marker."""
    n, dim = size["n"], size["dim"]
    rng = _rng(seed, 1)
    chrono = rng.uniform(40.0, 80.0, n)
    predicted = chrono + rng.normal(0.0, 6.0, n)
    emb = rng.standard_normal((n, dim))
    weights = rng.normal(0.0, 0.15, dim)
    eta = 0.05 * (predicted - chrono) + emb @ weights
    death = rng.exponential(1.0 / (0.002 * np.exp(eta)))
    censor = rng.uniform(0.0, 1500.0, n)
    time = np.maximum(1.0, np.ceil(np.minimum(death, censor)))
    event = death <= censor
    sex = np.where(rng.random(n) < 0.5, "male", "female")

    header = ["id", "time", "event", "chrono_age", "sex", "predicted_age"]
    header += [f"e{j}" for j in range(dim)]
    _write_csv(inputs / "cohort.csv", header, (
        [f"s{i:05d}", _fmt(time[i]), "1" if event[i] else "0", _fmt(chrono[i]),
         sex[i], _fmt(predicted[i]), *map(_fmt, emb[i])]
        for i in range(n)
    ))
    # The CLI's fad marker is predicted_age - chrono_age of the parsed
    # floats; repr round-trips, so the same subtraction here is exact.
    return {"n": n, "counts": concordance_counts(predicted - chrono, time, event)}


def concordance_counts(risk, time, event, block: int = 512) -> dict[str, int]:
    """Harrell pair counts by direct enumeration of ordered pairs.

    Pair (i, j) is comparable when i died and either t_i < t_j, or
    t_i == t_j and j did not die; concordant when r_i > r_j.
    """
    risk, time, event = map(np.asarray, (risk, time, event))
    counts = dict(concordant=0, discordant=0, tied_risk=0, comparable_pairs=0)
    deaths = np.nonzero(event)[0]
    for start in range(0, deaths.size, block):
        i = deaths[start : start + block, None]
        comparable = (time[i] < time[None, :]) | ((time[i] == time[None, :]) & ~event[None, :])
        ri, rj = risk[i], risk[None, :]
        counts["comparable_pairs"] += int(comparable.sum())
        counts["concordant"] += int((comparable & (ri > rj)).sum())
        counts["discordant"] += int((comparable & (ri < rj)).sum())
        counts["tied_risk"] += int((comparable & (ri == rj)).sum())
    return counts


def _rank_commands(seed: int, size: dict, info: dict) -> list[Command]:
    cohort = f"../{INPUTS}/cohort.csv"
    return [
        Command("train", [
            "train", "--cohort", cohort, "--out", "train", "--seed", str(seed),
            "--epochs", str(size["epochs"]),
        ], "train"),
        Command("metrics", [
            "metrics", "--cohort", cohort, "--out", "metrics", "--marker", "fad",
        ], "metrics"),
    ]


def _rank_check(pass_dir: Path, size: dict, info: dict) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {"train": [], "metrics": []}
    for cmd in problems:
        problems[cmd] += _manifest_problems(pass_dir, cmd)

    trace = pass_dir / "train" / "trace.csv"
    if trace.is_file():
        with open(trace, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["epoch"]) for r in rows] != list(range(1, size["epochs"] + 1)):
            problems["train"].append(f"trace.csv has {len(rows)} rows, expected one per epoch")
        if not all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k != "epoch"):
            problems["train"].append("trace.csv has a non-finite value")
    else:
        problems["train"].append("train/trace.csv missing")

    metrics = pass_dir / "metrics" / "metrics.json"
    if metrics.is_file():
        c = json.loads(metrics.read_text(encoding="utf-8"))["c_index"]
        if c["concordant"] + c["discordant"] + c["tied_risk"] != c["comparable_pairs"]:
            problems["metrics"].append("concordant + discordant + tied_risk != comparable_pairs")
        got = {k: c[k] for k in info["counts"]}
        if got != info["counts"]:
            problems["metrics"].append(f"pair counts {got} != direct count {info['counts']}")
    else:
        problems["metrics"].append("metrics/metrics.json missing")
    return problems


# ----------------------------------------------- rank-attention: attention

_LATTICE = 21  # quads per side: 2 * 21 * 21 = 882 triangles
_FRAME = 112  # visage's image frame in pixels


def _attention_inputs(seed: int, size: dict, inputs: Path) -> dict:
    """A jittered lattice face mesh, its landmarks and attention grids.

    Jitter keeps pixel centres off triangle edges, so coverage does not
    hinge on the last bit of an edge function.
    """
    rng = _rng(seed, 2)
    k = _LATTICE
    step = 96.0 / k
    jj, ii = np.meshgrid(np.arange(k + 1), np.arange(k + 1))
    x = 8.0 + step * jj + rng.uniform(-0.3, 0.3, jj.shape) * step
    y = 8.0 + step * ii + rng.uniform(-0.3, 0.3, ii.shape) * step
    lm = np.column_stack([x.ravel(), y.ravel()])
    u, v = (lm[:, 0] - 56.0) / 48.0, (56.0 - lm[:, 1]) / 48.0
    z = 0.4 * np.exp(-(u**2 + v**2))

    tris = []
    for i in range(k):
        for j in range(k):
            a, b = i * (k + 1) + j, i * (k + 1) + j + 1
            c, d = a + k + 1, b + k + 1
            tris += [(a, b, d), (a, d, c)]
    with open(inputs / "mesh.obj", "w", encoding="utf-8") as fh:
        fh.write("# lattice face mesh\n")
        fh.writelines(f"v {a:.6f} {b:.6f} {c:.6f}\n" for a, b, c in zip(u, v, z))
        fh.writelines(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in tris)
    _write_csv(inputs / "landmarks.csv", ["vertex_index", "x", "y"],
               ([i, _fmt(px), _fmt(py)] for i, (px, py) in enumerate(lm)))

    names = []
    for g in range(size["small_grids"] + size["large_grids"]):
        if g < size["small_grids"]:
            grid = rng.uniform(0.0, 1.0, (7, 7))
        else:
            cy, cx = rng.uniform(20.0, 92.0, 2)
            r, c = np.mgrid[0:_FRAME, 0:_FRAME] + 0.5
            grid = np.exp(-((r - cy) ** 2 + (c - cx) ** 2) / 800.0)
            grid += 0.05 * rng.random((_FRAME, _FRAME))
        name = f"grid{g}.csv"
        _write_csv(inputs / name, None, ([_fmt(val) for val in row] for row in grid))
        names.append(name)
    return {
        "grids": names,
        "triangles": len(tris) * 4 ** size["subdivide"],
        "landmarks": lm.tolist(),
        "base_triangles": tris,
    }


def _attention_commands(seed: int, size: dict, info: dict) -> list[Command]:
    grids = ",".join(f"../{INPUTS}/{g}" for g in info["grids"])
    return [
        Command("attention", [
            "attention", "--out", "att", "--grid", grids,
            "--mesh", f"../{INPUTS}/mesh.obj", "--landmarks", f"../{INPUTS}/landmarks.csv",
            "--subdivide", str(size["subdivide"]),
        ], "att"),
    ]


def _sample(grid: np.ndarray, x: float, y: float) -> float:
    """Cell-centred bilinear interpolation, clamped outside the centres.

    Computed as two passes of ``np.interp`` so that it shares no code
    with visage's own sampler.
    """
    centres = (np.arange(grid.shape[0]) + 0.5) * _FRAME / grid.shape[0]
    along_x = [np.interp(x, centres, row) for row in grid]
    return float(np.interp(y, centres, along_x))


def _upsample(grid: np.ndarray) -> np.ndarray:
    """The map at every pixel centre of the frame, as ``_sample`` defines it."""
    if grid.shape[0] == _FRAME:
        return grid
    centres = (np.arange(grid.shape[0]) + 0.5) * _FRAME / grid.shape[0]
    pixels = np.arange(_FRAME) + 0.5
    rows = np.array([np.interp(pixels, centres, row) for row in grid])
    return np.array([np.interp(pixels, centres, col) for col in rows.T]).T


def _subtriangle(lm: np.ndarray, base: list, k: int, levels: int) -> np.ndarray:
    """Landmark corners of triangle ``k`` after ``levels`` midpoint splits.

    Child order per split is (a, ab, ca), (ab, b, bc), (ca, bc, c),
    (ab, bc, ca), as visage's subdivision documents.
    """
    a, b, c = (lm[v] for v in base[k >> (2 * levels)])
    for level in range(levels - 1, -1, -1):
        ab, bc, ca = (a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0
        a, b, c = ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))[(k >> (2 * level)) & 3]
    return np.array([a, b, c])


def _direct_score(maps: list[np.ndarray], pts: np.ndarray) -> float:
    """Mean over maps of the mean value at pixel centres inside the triangle;
    a triangle covering no centre takes the map at its centroid."""
    cy, cx = np.mgrid[0:_FRAME, 0:_FRAME] + 0.5
    e0, e1, e2 = (
        (q[0] - p[0]) * (cy - p[1]) - (q[1] - p[1]) * (cx - p[0])
        for p, q in ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[0]))
    )
    inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
    if inside.any():
        return float(np.mean([m[inside].mean() for m in maps]))
    x, y = pts.mean(axis=0)
    return float(np.mean([_sample(m, x, y) for m in maps]))


def _attention_check(pass_dir: Path, size: dict, info: dict) -> dict[str, list[str]]:
    problems = _manifest_problems(pass_dir, "att")
    n_tri = info["triangles"]
    obj = pass_dir / "att" / "attention.obj"
    scores_csv = pass_dir / "att" / "triangle_scores.csv"
    if not (obj.is_file() and scores_csv.is_file()):
        return {"attention": problems + ["attention outputs missing"]}

    with open(obj, encoding="utf-8") as fh:
        kinds = [line[:2] for line in fh]
    if kinds.count("v ") != 3 * n_tri or kinds.count("f ") != n_tri:
        problems.append(
            f"OBJ has {kinds.count('v ')} v and {kinds.count('f ')} f lines for {n_tri} triangles"
        )

    table = np.loadtxt(scores_csv, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (n_tri, 2) or not np.array_equal(table[:, 0], np.arange(n_tri)):
        return {"attention": problems + [f"triangle_scores.csv shape {table.shape}"]}
    scores = table[:, 1]
    maps = [
        _upsample(np.loadtxt(pass_dir.parent / INPUTS / g, delimiter=",", ndmin=2))
        for g in info["grids"]
    ]
    lo = np.mean([m.min() for m in maps])
    hi = np.mean([m.max() for m in maps])
    if not (np.all(np.isfinite(scores)) and np.all((scores >= lo - 1e-12) & (scores <= hi + 1e-12))):
        problems.append("scores are not finite or leave the maps' range")

    lm = np.asarray(info["landmarks"])
    sample = _rng(n_tri, 3).choice(n_tri, size=min(48, n_tri), replace=False)
    for k in sample:
        pts = _subtriangle(lm, info["base_triangles"], int(k), size["subdivide"])
        expected = _direct_score(maps, pts)
        if not math.isclose(scores[k], expected, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"triangle {k}: score {float(scores[k])!r}, direct {expected!r}")
            break
    return {"attention": problems}


# -------------------------------------------------------- rank-attention


def _rank_attention_inputs(seed: int, size: dict, inputs: Path) -> dict:
    return {**_rank_inputs(seed, size, inputs), **_attention_inputs(seed, size, inputs)}


def _rank_attention_commands(seed: int, size: dict, info: dict) -> list[Command]:
    return _rank_commands(seed, size, info) + _attention_commands(seed, size, info)


def _rank_attention_check(pass_dir: Path, size: dict, info: dict) -> dict[str, list[str]]:
    return {**_rank_check(pass_dir, size, info), **_attention_check(pass_dir, size, info)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cohort-ingest",
            "O(n) row-object ingestion: simulate, save and load 25k x 64, Cox design, KM and log-rank; no rank statistic, no attention",
            _ingest_inputs, _ingest_commands, _ingest_check,
        ),
        Workload(
            "rank-attention",
            "O(n^2) rank layers (ranking-loss training, Harrell C, AUC; 5k tied times), then the per-triangle attention loop (14k triangles)",
            _rank_attention_inputs, _rank_attention_commands, _rank_attention_check,
        ),
    )
}
