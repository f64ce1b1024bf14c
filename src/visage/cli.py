"""Command line interface.

Subcommands cover the full pipeline: ``simulate`` a cohort, ``train``
a risk or age head, compute ``metrics``, fit ``cox`` models, draw
``km`` curves per stratum, ``balance`` an age distribution, and
project ``attention`` maps onto a mesh. Every run writes a
``manifest.json`` recording the effective configuration, seed, input
digests, and tool version; outputs contain no timestamps, so a rerun
on identical inputs is byte-identical.

Each option is declared, defaulted, typed and checked once, in
``build_parser``. ``--config`` entries are parsed as flags placed
before the command line's: flags beat config, config beats defaults.

Exit codes: 0 success, 1 analysis failure (e.g. a fit that does not
converge), 2 input/usage error with no partial outputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import sys
from pathlib import Path

from . import SCHEMES, __version__
from .errors import AnalysisError, DataError, VisageError, reading


def _lazy(name: str):
    """Module ``name``, registered in ``sys.modules`` now and executed the
    first time one of its attributes is read (Scientific Python SPEC 1)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    if parent:  # as an import binds a submodule on its package
        setattr(sys.modules[parent], child, module)
    return module


# A command executes only the modules it reaches, so library functions are
# looked up through these module objects when they are called.
dataclasses = _lazy("dataclasses")
hashlib = _lazy("hashlib")
np = _lazy("numpy")
attention_mod = _lazy("visage.attention")
biomarkers = _lazy("visage.biomarkers")
cohort_mod = _lazy("visage.cohort")
cox_mod = _lazy("visage.cox")
inputs_mod = _lazy("visage._inputs")
metrics_mod = _lazy("visage.metrics")
survival = _lazy("visage.survival")
synth_mod = _lazy("visage.synth")
trainer_mod = _lazy("visage.trainer")


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _safe_label(label: str) -> str:
    table = {"≥": "ge", "≤": "le", "<": "lt", ">": "gt", " ": "_", "/": "-", "+": "plus"}
    out = []
    for ch in label:
        out.append(table.get(ch, ch))
    return "".join(out)


def _option_type(parse):
    """An argparse ``type=`` that reports ``parse``'s DataError or
    ValueError as a usage error naming the option."""

    def convert(text: str):
        try:
            return parse(text)
        except (DataError, ValueError) as err:
            raise argparse.ArgumentTypeError(str(err)) from None

    return convert


def _checked(parse):
    """An argparse ``type=`` that keeps the text as given once ``parse`` accepts it."""
    return _option_type(lambda text: (parse(text), text)[1])


@_option_type
def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of numbers."""
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


@_option_type
def _censor(text: str) -> tuple:
    """``none`` or ``kind:parameter``."""
    if text in ("", "none"):
        return ("none",)
    kind, _, param = text.partition(":")
    if not param:
        raise DataError(f"censor model {text!r} needs a parameter, e.g. uniform:730")
    return (kind, float(param))


@_option_type
def _sim_covariates(text: str) -> tuple[synth_mod.SimCovariate, ...]:
    """Semicolon-separated ``field:dist:params``."""
    covs = []
    for token in filter(None, (t.strip() for t in text.split(";"))):
        field, *dist = token.split(":")
        if len(dist) < 2:
            raise DataError(
                f"covariate {token!r} must be field:dist:params, e.g. sex:bernoulli:0.5"
            )
        covs.append(synth_mod.SimCovariate(field, (dist[0], *map(float, dist[1:]))))
    return tuple(covs)


def parse_covariate(spec: str) -> cox_mod.Covariate:
    """Parse the compact covariate syntax.

    Forms: ``field`` (continuous), ``field:per:10`` (continuous per 10
    units), ``field:cat:reference`` (categorical against a reference
    level), ``field:ge:5`` / ``field:le:-5`` (threshold indicator).
    """
    parts = spec.split(":")
    field = parts[0].strip()
    if not field:
        raise DataError(f"empty covariate spec {spec!r}")
    if len(parts) == 1:
        return cox_mod.Covariate(field)
    if len(parts) != 3:
        raise DataError(f"covariate spec {spec!r} must be field[:kind:value]")
    kind, value = parts[1].strip(), parts[2].strip()
    if kind == "cat":
        return cox_mod.Covariate(field, kind="categorical", reference=value)
    if kind not in ("per", "ge", "le"):
        raise DataError(f"unknown covariate kind {kind!r} in {spec!r}")
    try:
        number = float(value)
    except ValueError:
        raise DataError(f"covariate spec {spec!r}: {value!r} is not a number") from None
    if kind == "per":
        return cox_mod.Covariate(field, per=number)
    return cox_mod.Covariate(
        field, kind="threshold", threshold=number, op=">=" if kind == "ge" else "<="
    )


def _covariate_list(text: str) -> list[cox_mod.Covariate]:
    return [parse_covariate(s) for s in text.split(",") if s.strip()]


def _load(args, with_embedding: bool = False) -> tuple:
    """The cohort of ``--cohort`` and its LoadResult; the embedding
    matrix is built only when ``with_embedding`` (``train``), though
    every e* cell passes the drop rule either way."""
    if not args.cohort:
        raise DataError("--cohort is required")
    schema = cohort_mod.read_schema(args.schema) if args.schema else None
    result = cohort_mod.load_cohort(args.cohort, schema, with_embedding=with_embedding)
    return result.cohort, result


def _marker_values(cohort, marker: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (values, included mask) for a marker name."""
    n = len(cohort)
    if marker == "risk":
        scaled = cohort.risk_scaled
        if np.all(np.isfinite(scaled)):
            return scaled, np.ones(n, dtype=bool)
        raw = cohort.risk_raw
        mask = np.isfinite(raw)
        if not mask.any():
            raise DataError("no risk values in cohort")
        values = np.full(n, np.nan)
        values[mask] = biomarkers.minmax_scale(raw[mask])
        return values, mask
    if marker == "fad":
        col = biomarkers.fad_for_cohort(cohort)
        return col.values, np.isfinite(col.values)
    if marker in ("predicted_age", "chrono_age"):
        vals = getattr(cohort, marker)
        return vals, np.isfinite(vals)
    raise DataError(f"unknown marker {marker!r}")


def _scheme_marker(scheme: str) -> str:
    return "fad" if scheme.startswith("fad") else "risk"


def cmd_km(args, outputs: dict) -> dict:
    cohort, load = _load(args)
    times = cohort.times()
    events = cohort.events()

    results: dict = {"strata": {}, "dropped_rows": load.n_dropped}
    try:
        results["median_followup_days"] = survival.reverse_km_median_followup(times, events)
    except VisageError as err:
        results["median_followup_days"] = None
        results["median_followup_note"] = str(err)

    if args.group_by != "none":
        values, mask = _marker_values(cohort, _scheme_marker(args.group_by))
        assignment = biomarkers.stratify(values[mask], args.group_by)
        sub_times, sub_events = times[mask], events[mask]
        groups = biomarkers.group_indices(assignment)
        results["scheme"] = args.group_by
        results["excluded_missing_marker"] = int(np.sum(~mask))
        outputs["strata.csv"] = biomarkers.strata_to_csv(cohort.ids[mask].tolist(), assignment)
    else:
        groups = {"all": np.arange(times.size)}
        sub_times, sub_events = times, events
        results["scheme"] = None

    for label, idx in groups.items():
        curve = survival.kaplan_meier(sub_times[idx], sub_events[idx])
        outputs[f"km_{_safe_label(label)}.csv"] = survival.curve_to_csv(curve)
        est = {}
        for h in args.horizons:
            e = survival.km_estimate_at(curve, h)
            est[f"{h:g}"] = {
                "survival": e.estimate,
                "ci95": [e.ci_low, e.ci_high],
                "truncated": e.truncated,
            }
        results["strata"][label] = {
            "n": int(idx.size),
            "events": int(sub_events[idx].sum()),
            "estimates": est,
        }

    labels = list(groups)
    if len(labels) >= 2:
        pairs = [(sub_times[i], sub_events[i]) for i in groups.values()]
        results["log_rank"] = dataclasses.asdict(survival.log_rank(pairs))
        results["log_rank_pairwise"] = {
            f"{labels[a]} vs {labels[b]}": dataclasses.asdict(
                survival.log_rank([pairs[a], pairs[b]])
            )
            for a, b in itertools.combinations(range(len(labels)), 2)
        }
    else:
        results["log_rank"] = None
        results["log_rank_note"] = "single stratum; log-rank skipped"

    outputs["results.json"] = results
    return {"group_by": args.group_by, "horizons": list(args.horizons)}


def cmd_cox(args, outputs: dict) -> dict:
    cohort, load = _load(args)
    if not args.biomarker:
        raise DataError("--biomarker is required")
    times = cohort.times()
    events = cohort.events()
    biomarker = parse_covariate(args.biomarker)
    adjusters = _covariate_list(args.adjusters)

    report: dict = {"dropped_rows": load.n_dropped, "ties": args.ties}
    if args.screen and adjusters:
        screen = cox_mod.univariate_screen(cohort, adjusters, alpha=args.alpha, ties=args.ties)
        report["screen"] = [
            {
                "covariate": entry.covariate.base_name(),
                "p": None if np.isnan(entry.p) else entry.p,
                "retained": entry.retained,
                "error": entry.error,
            }
            for entry in screen.entries
        ]
        adjusters = list(screen.retained)

    uni_design = cox_mod.build_design(cohort, [biomarker])
    uni_fit = cox_mod.fit_cox(uni_design, times, events, args.ties)
    report["univariate"] = cox_mod.fit_to_dict(uni_fit)

    rows = [("univariate", row) for row in uni_fit.rows()]
    adjusted = cox_mod.fit_adjusted(cohort, biomarker, adjusters, args.ties)
    report["adjusted"] = cox_mod.fit_to_dict(adjusted.fit)
    report["headline"] = [
        {"name": r.name, "hr": r.hr, "ci95": [r.ci_low, r.ci_high], "p": r.p}
        for r in adjusted.headline
    ]
    rows.extend(("adjusted", row) for row in adjusted.fit.rows())

    lines = ["model,covariate,hr,ci_low,ci_high,p,beta,se"]
    for model, row in rows:
        lines.append(
            f"{model},{row.name},{row.hr!r},{row.ci_low!r},{row.ci_high!r},"
            f"{row.p!r},{row.beta!r},{row.se!r}"
        )
    outputs["table.csv"] = "\n".join(lines) + "\n"
    outputs["fit.json"] = report

    failed = not uni_fit.converged or not adjusted.fit.converged
    return {
        "biomarker": args.biomarker,
        "adjusters": args.adjusters,
        "screen": args.screen,
        "alpha": args.alpha,
        "ties": args.ties,
        "_exit_analysis_failure": failed,
    }


def cmd_metrics(args, outputs: dict) -> dict:
    cohort, load = _load(args)
    values, mask = _marker_values(cohort, args.marker)
    times = cohort.times()[mask]
    events = cohort.events()[mask]

    conc = metrics_mod.harrell_c(values[mask], times, events)
    results: dict = {
        "marker": args.marker,
        "n_used": int(mask.sum()),
        "excluded_missing_marker": int(np.sum(~mask)),
        "dropped_rows": load.n_dropped,
        "c_index": {
            "value": conc.c_index,
            "concordant": conc.concordant,
            "discordant": conc.discordant,
            "tied_risk": conc.tied_risk,
            "comparable_pairs": conc.comparable_pairs,
        },
        "auc": {},
    }
    for h in args.horizons:
        try:
            auc = metrics_mod.time_dependent_auc(values[mask], times, events, h)
            results["auc"][f"{h:g}"] = {
                "value": auc.auc,
                "n_cases": auc.n_cases,
                "n_controls": auc.n_controls,
            }
        except AnalysisError as err:
            results["auc"][f"{h:g}"] = {"value": None, "note": str(err)}

    if args.marker != "chrono_age":
        has_age = np.isfinite(cohort.predicted_age)
        if has_age.any():
            acc = metrics_mod.age_accuracy(
                cohort.predicted_age[has_age], cohort.chrono_age[has_age]
            )
            results["age_accuracy"] = {
                "mae": acc.mae,
                "me": acc.me,
                "binwise_mae": acc.binwise_mae,
                "bins": [
                    {"start": b[0], "n": b[1], "mae": b[2]} for b in acc.bins
                ],
            }

    outputs["metrics.json"] = results
    return {"marker": args.marker, "horizons": list(args.horizons)}


def cmd_train(args, outputs: dict) -> dict:
    cohort, load = _load(args, with_embedding=True)
    # An unset TrainConfig flag is None and keeps TrainConfig's own default.
    fields = dataclasses.fields(trainer_mod.TrainConfig)
    given = {f.name: getattr(args, f.name, None) for f in fields}
    config = trainer_mod.TrainConfig(**{k: v for k, v in given.items() if v is not None})

    X = cohort.embedding_matrix()
    if args.target == "risk":
        result = trainer_mod.train_risk_model(X, cohort.times(), cohort.events(), config)
        columns = ("train_loss", "val_loss", "train_c", "val_c")
    else:
        result = trainer_mod.train_age_model(X, cohort.chrono_age, config)
        columns = ("train_mae", "val_mae")
    lines = [",".join(("epoch", *columns))]
    lines.extend(
        ",".join([str(s.epoch), *(repr(getattr(s, c)) for c in columns)]) for s in result.trace
    )
    final = {c: getattr(result.trace[-1], c) for c in columns} if result.trace else None

    def model_file(model):
        return lambda path: trainer_mod.save_model(model, path, kind=args.target, config=config)

    outputs["trace.csv"] = "\n".join(lines) + "\n"
    outputs["model.bin"] = model_file(result.model)
    for i, ckpt in enumerate(result.checkpoints, start=1):
        outputs[f"checkpoints/epoch_{i:03d}.bin"] = model_file(ckpt)
    outputs["summary.json"] = {
        "target": args.target,
        "n_subjects": len(cohort),
        "embedding_dim": X.shape[1],
        "n_train": len(result.train_indices),
        "n_val": len(result.val_indices),
        "epochs": config.epochs,
        "final": final,
        "dropped_rows": load.n_dropped,
    }
    settings = {k: getattr(config, k) for k in trainer_mod.SAVED_CONFIG_FIELDS}
    if config.hidden is not None:
        settings["hidden"] = config.hidden
    return {"target": args.target, "train_config": settings}


def cmd_simulate(args, outputs: dict) -> dict:
    spec = synth_mod.SimSpec(
        n=args.n,
        beta_true=args.beta,
        baseline_hazard=args.baseline_hazard,
        censor_model=args.censor,
        covariate_model=args.covariates,
        embedding_dim=args.embedding_dim,
        embedding_weights=args.embedding_weights,
        round_days=not args.exact_times,
        seed=args.seed,
    )
    result = synth_mod.simulate(spec)
    outputs["cohort.csv"] = lambda path: cohort_mod.save_cohort(result.cohort, path)
    outputs["truth.json"] = result.truth
    return {
        "n": spec.n,
        "beta_true": list(spec.beta_true),
        "baseline_hazard": spec.baseline_hazard,
        "censor_model": list(spec.censor_model),
        "embedding_dim": spec.embedding_dim,
        "round_days": spec.round_days,
    }


def cmd_balance(args, outputs: dict) -> dict:
    cohort, load = _load(args)
    ages = cohort.chrono_age
    if args.mode == "factors":
        indices = trainer_mod.balance_by_factors(ages, seed=args.seed)
    else:
        indices = trainer_mod.balance_bins(
            ages, bin_width=args.bin_width, target=args.target, seed=args.seed
        )

    lines = ["index,id"]
    ids = cohort_mod._csv_fields(cohort.ids[indices].tolist())
    lines.extend(f"{i},{sid}" for i, sid in zip(indices.tolist(), ids))
    outputs["indices.csv"] = "\n".join(lines) + "\n"

    bin_index = np.floor(ages[indices] / args.bin_width).astype(int)
    uniq, counts = np.unique(bin_index, return_counts=True)
    outputs["counts.json"] = {
        "mode": args.mode,
        "n_input": len(cohort),
        "n_output": int(indices.size),
        "per_bin": {
            f"{b * args.bin_width:g}-{(b + 1) * args.bin_width:g}": int(c)
            for b, c in zip(uniq, counts)
        },
        "dropped_rows": load.n_dropped,
    }
    return {"mode": args.mode, "bin_width": args.bin_width, "target": args.target}


def cmd_attention(args, outputs: dict) -> dict:
    if not args.mesh or not args.landmarks or not args.grid:
        raise DataError("--grid, --mesh and --landmarks are required")
    if args.subdivide < 0:
        raise DataError(f"--subdivide must be >= 0, got {args.subdivide}")
    mesh = attention_mod.load_mesh(args.mesh, args.landmarks)
    for _ in range(args.subdivide):
        mesh = attention_mod.subdivide_once(mesh)

    maps = []
    for grid_path in args.grid.split(","):
        grid = attention_mod.load_grid(grid_path.strip())
        maps.append(grid if grid.shape[0] == attention_mod.IMAGE_SIZE else (
            attention_mod.upsample_bilinear(grid, attention_mod.IMAGE_SIZE)
        ))
    # The projection is linear: the mean of per-image scores is the
    # projection of the mean map, so one projection serves every image.
    projected = attention_mod.triangle_attention(mesh, attention_mod.mean_grids(maps))
    averaged = attention_mod.TriangleAttention(projected.values, n_images=len(maps))

    outputs["attention.obj"] = attention_mod.export_obj(mesh, averaged)
    lines = ["triangle,score"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(averaged.values))
    outputs["triangle_scores.csv"] = "\n".join(lines) + "\n"
    return {
        "grids": args.grid,
        "subdivide": args.subdivide,
        "triangles": mesh.n_triangles,
        "images": averaged.n_images,
    }


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as DataError: ``main`` returns 2, as for any unusable input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DataError(f"{self.prog}: {message}")


def _common(parser: argparse.ArgumentParser, cohort: bool = True) -> None:
    """The options every command takes, and --cohort and --schema when it loads a cohort."""
    if cohort:
        parser.add_argument("--cohort", help="cohort CSV path")
        parser.add_argument("--schema", help="schema-mapping JSON path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    parser.add_argument("--config", help="JSON file of option values, read before the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="visage",
        description="Survival analysis for facial-image biomarkers.",
    )
    parser.add_argument("--version", action="version", version=f"visage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("km", help="Kaplan-Meier curves per stratum with log-rank tests")
    _common(p)
    p.add_argument("--group-by", dest="group_by", choices=("none", *SCHEMES),
                   default="none", help="stratification scheme (default %(default)s)")
    p.add_argument("--horizons", type=_floats, default="913,1826",
                   help="comma-separated day horizons for point estimates (default %(default)s)")
    p.set_defaults(func=cmd_km)

    p = sub.add_parser("cox", help="univariate and adjusted Cox fits")
    _common(p)
    p.add_argument("--biomarker", type=_checked(parse_covariate),
                   help="covariate spec, e.g. fad:per:10 or risk_scaled:ge:0.5")
    p.add_argument("--adjusters", type=_checked(_covariate_list), default="",
                   help="comma-separated covariate specs")
    p.add_argument("--screen", action="store_true",
                   help="screen adjusters univariately before the adjusted fit")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="screening threshold (default %(default)s)")
    p.add_argument("--ties", choices=("efron", "breslow"), default="efron")
    p.set_defaults(func=cmd_cox)

    p = sub.add_parser("metrics", help="concordance and time-dependent AUC for a marker")
    _common(p)
    p.add_argument("--marker", choices=("risk", "fad", "predicted_age", "chrono_age"),
                   default="risk")
    p.add_argument("--horizons", type=_floats, default="91,182,365,730",
                   help="comma-separated day horizons (default %(default)s)")
    p.set_defaults(func=cmd_metrics)

    # The TrainConfig flags default to None: TrainConfig holds their defaults.
    p = sub.add_parser("train", help="train the risk or age head on embeddings")
    _common(p)
    p.add_argument("--target", choices=("risk", "age"), default="risk")
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--smooth-lambda", dest="smooth_lambda", type=float)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p.add_argument("--pair-loss", dest="pair_loss", choices=("logistic", "hinge"))
    p.add_argument("--hidden", type=int, help="hidden layer width (default none)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate", help="generate a synthetic cohort with ground truth")
    _common(p, cohort=False)
    p.add_argument("--n", type=int, default=1000, help="number of subjects (default %(default)s)")
    p.add_argument("--beta", type=_floats, default="", help="comma-separated true coefficients")
    p.add_argument("--baseline-hazard", dest="baseline_hazard", type=float, default=0.002)
    p.add_argument("--censor", type=_censor, default="none",
                   help="none | uniform:T | exponential:rate | admin:T (default %(default)s)")
    p.add_argument("--covariates", type=_sim_covariates, default="",
                   help="semicolon-separated field:dist:params, e.g. sex:bernoulli:0.5")
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
    p.add_argument("--embedding-weights", dest="embedding_weights", type=_floats,
                   help="comma-separated true embedding weights")
    p.add_argument("--exact-times", dest="exact_times", action="store_true",
                   help="keep continuous times instead of rounding up to days")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("balance", help="age-balanced resampling indices")
    _common(p)
    p.add_argument("--mode", choices=("factors", "bins"), default="bins")
    p.add_argument("--bin-width", dest="bin_width", default=5.0,
                   type=_option_type(lambda text: inputs_mod.positive("bin_width", float(text))))
    p.add_argument("--target", type=int, default=200,
                   help="records per bin (default %(default)s)")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("attention", help="project attention grids onto a face mesh")
    _common(p, cohort=False)
    p.add_argument("--grid", help="comma-separated attention grid CSVs (7x7 or 112x112)")
    p.add_argument("--mesh", help="mesh OBJ path")
    p.add_argument("--landmarks", help="vertex_index,x,y CSV path")
    p.add_argument("--subdivide", type=int, default=1,
                   help="midpoint subdivision iterations (default %(default)s)")
    p.set_defaults(func=cmd_attention)

    return parser


def _config_flags(path: str, command: str) -> list[str]:
    """The command's section of a JSON config file as flags: ``key: v``
    reads as ``--key=v``, ``true`` as the bare flag, and ``false`` and
    ``null`` are left out."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise DataError("config must be a JSON object")
    section = loaded.get(command, loaded)
    if not isinstance(section, dict):
        raise DataError(f"config section {command!r} must be an object")
    flags = []
    for key, value in section.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return flags


def _render(value) -> bytes:
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    return (json.dumps(value, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _write_outputs(out_dir: Path, outputs: dict, manifest: dict) -> None:
    """Write each output: bytes, str or a JSON value, or a callable that
    writes the file at the path it is given."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, value in outputs.items():
        path = out_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if callable(value):
            value(path)
        else:
            path.write_bytes(_render(value))
    manifest["outputs"] = sorted(outputs)
    (out_dir / "manifest.json").write_bytes(_render(manifest))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Unknown config keys come back unparsed and are ignored.
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, args.command)
            args = parser.parse_known_args([*argv[:at], *flags, *argv[at:]])[0]
        input_paths = [
            p
            for p in (
                getattr(args, "cohort", None),
                getattr(args, "schema", None),
                args.config,
                getattr(args, "mesh", None),
                getattr(args, "landmarks", None),
            )
            if p
        ]
        if getattr(args, "grid", None):
            input_paths.extend(g.strip() for g in args.grid.split(","))
        for p in input_paths:
            if not Path(p).is_file():
                raise DataError(f"input file not found: {p}")

        outputs: dict = {}
        parameters = args.func(args, outputs)
        analysis_failure = bool(parameters.pop("_exit_analysis_failure", False))
        manifest = {
            "tool": "visage",
            "version": __version__,
            "command": args.command,
            "seed": args.seed,
            "parameters": parameters,
            "inputs": {str(p): _sha256(Path(p)) for p in input_paths},
        }
        _write_outputs(Path(args.out), outputs, manifest)
        if analysis_failure:
            print("warning: analysis did not fully converge; see outputs", file=sys.stderr)
            return 1
        return 0
    except (DataError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AnalysisError as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
