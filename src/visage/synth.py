"""Synthetic survival cohorts with known ground truth.

Event times are exponential with subject hazard
``baseline_hazard * exp(beta . x)``; censoring is uniform,
exponential, or administrative; the observed time is the minimum of
the two with the event flag set when death comes first. Generated
cohorts use the standard cohort columns, so everything downstream
(ingestion, fitting, training) runs on them unchanged, and the ground
truth travels in a sidecar dict, JSON-ready but for its ``eta`` array.
By default observed times are rounded up to whole days, which produces
realistic ties; exact continuous times are available for tie-free
tests.

All draws come from named Philox substreams of ``SimSpec.seed``, so a
spec pins its cohort bit-for-bit across runs and platforms. The
embedding is drawn a block of rows at a time, both for the linear
predictor and by :meth:`SimResult.embedding_blocks`, so neither
simulating nor writing a cohort holds the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._inputs import integer, positive
from . import cohort as cohort_mod
from .errors import DataError
from .rng import substream

# Levels of the categorical fill columns, drawn uniformly in this order.
_FILL_LEVELS = {
    "race": ("white", "black", "asian", "hispanic", "other"),
    "cancer_site": ("breast", "lung", "prostate", "gi", "skin"),
    "intent": ("curative", "oligomet_ablation", "palliative"),
    "year_group": ("pre2016", "post2016"),
    "technique": ("conformal", "imrt", "sbrt"),
}

_COVARIATE_FIELDS = ("sex", "chrono_age", "risk_scaled", "fad")

# Each distribution's parameters and the rule they must meet; NaN and
# inf meet none of the rules.
_DISTS = {
    "bernoulli": (("p",), "0 <= p <= 1", lambda p: 0.0 <= p <= 1.0),
    "normal": (("mu", "sd"), "finite mu and 0 <= sd < inf",
               lambda mu, sd: -np.inf < mu < np.inf and 0.0 <= sd < np.inf),
    "uniform": (("a", "b"), "finite a <= b", lambda a, b: -np.inf < a <= b < np.inf),
    "beta": (("a", "b"), "0 < a < inf and 0 < b < inf",
             lambda a, b: 0.0 < a < np.inf and 0.0 < b < np.inf),
}


@dataclass(frozen=True)
class SimCovariate:
    """One hazard-driving covariate and the cohort column it lands in.

    ``field`` is "sex" (bernoulli 0/1 becomes female/male),
    "chrono_age" (years), "risk_scaled" (should generate within [0, 1])
    or "fad" (years; predicted_age is emitted as chrono_age + value).
    ``dist`` is ("bernoulli", p), ("normal", mu, sd), ("uniform", a, b)
    or ("beta", a, b); ``SimSpec`` checks each parameter's range.
    """

    field: str
    dist: tuple


@dataclass(frozen=True)
class SimSpec:
    """What :func:`simulate` draws. ``baseline_hazard`` (per day) is the
    hazard at covariate value 0: the linear predictor is not centred.
    With ``chrono_age`` about 60 years and a beta of 0.1 per year, the
    hazard is about e^6, some 400 times, the stated baseline."""

    n: int
    beta_true: tuple[float, ...] = ()
    baseline_hazard: float = 0.002  # per day
    censor_model: tuple = ("none",)
    covariate_model: tuple[SimCovariate, ...] = ()
    embedding_dim: int | None = None
    embedding_weights: tuple[float, ...] | None = None
    round_days: bool = True
    seed: int = 0

    def __post_init__(self):
        integer("n", self.n, low=1)
        positive("baseline_hazard", self.baseline_hazard)
        if len(self.beta_true) != len(self.covariate_model):
            raise DataError("beta_true must align with covariate_model")
        numbers = {"beta_true": self.beta_true, "embedding_weights": self.embedding_weights or ()}
        for name, values in numbers.items():
            if not np.isfinite(np.asarray(values, dtype=float)).all():
                raise DataError(f"{name} must hold finite numbers, got {list(values)!r}")
        for i, cov in enumerate(self.covariate_model):
            if cov.field not in _COVARIATE_FIELDS:
                raise DataError(f"unsupported covariate field {cov.field!r}")
            name = f"covariate_model[{i}] ({cov.field}) dist"
            kind, *params = cov.dist
            if kind not in _DISTS:
                raise DataError(f"{name}: unknown distribution {kind!r}, not one of {list(_DISTS)}")
            args, rule, holds = _DISTS[kind]
            if len(params) != len(args) or not holds(*map(float, params)):
                raise DataError(
                    f"{name} {kind} takes ({', '.join(args)}) with {rule}, got {params}"
                )
        kind, *params = self.censor_model
        if kind not in ("none", "uniform", "exponential", "admin"):
            raise DataError(f"unknown censor model {kind!r}")
        if kind == "none" and params:
            raise DataError(f"censor_model 'none' takes no parameter, got {params}")
        if kind != "none" and (len(params) != 1 or not 0.0 < float(params[0]) < np.inf):
            raise DataError(f"censor_model {kind!r} needs one finite parameter > 0")
        if (self.embedding_weights is None) != (self.embedding_dim is None):
            raise DataError("embedding_weights and embedding_dim go together")
        if self.embedding_dim is not None:
            integer("embedding_dim", self.embedding_dim, low=1)
            if len(self.embedding_weights) != self.embedding_dim:
                raise DataError("embedding_weights must have length embedding_dim")


@dataclass(frozen=True)
class SimResult:
    """A simulated cohort, its ground truth and the spec that made them.

    The cohort holds no embedding (``cohort.embedding`` is None), even
    when the spec has one: :meth:`embedding_blocks` redraws it.
    ``truth["eta"]``, the linear predictor, is a read-only float64 array,
    not n Python floats; ``.tolist()`` gives what ``truth.json`` holds."""

    cohort: cohort_mod.Cohort
    truth: dict
    spec: SimSpec

    def embedding_blocks(self) -> Iterator[np.ndarray]:
        """The spec's (n, D) embedding as consecutive (rows, D) blocks of
        ``_ROW_BLOCK`` rows, the last one shorter; none without an
        embedding. Each call redraws them from a fresh
        ``synth/embeddings`` substream, as ``simulate`` drew them for
        ``eta``. ``save_cohort(result.cohort, path, result.embedding_blocks())``
        writes the cohort with its e* columns, and
        ``np.concatenate(list(result.embedding_blocks()))`` is the matrix."""
        return _embedding_blocks(self.spec)


def _embedding_blocks(spec: SimSpec) -> Iterator[np.ndarray]:
    """See :meth:`SimResult.embedding_blocks`."""
    n, dim = spec.n, spec.embedding_dim
    if dim is None:
        return
    rng = substream(spec.seed, "synth/embeddings")
    block = cohort_mod._ROW_BLOCK
    for start in range(0, n, block):
        yield rng.standard_normal((min(block, n - start), dim))


def _draw(rng: np.random.Generator, dist: tuple, n: int) -> np.ndarray:
    kind, *params = dist
    if kind == "bernoulli":
        return (rng.random(n) < float(params[0])).astype(float)
    # normal, uniform and beta: Generator methods taking the parameters in order
    return getattr(rng, kind)(*map(float, params), n)


def simulate(spec: SimSpec) -> SimResult:
    """Generate a cohort and its ground-truth sidecar from a spec."""
    n = spec.n
    # The embedding's term of eta, block by block. einsum sums each row
    # on its own, so the blocks give the bits of one reduction over the
    # whole matrix, which BLAS @ need not; the truth sidecar pins eta.
    if spec.embedding_dim is not None:
        weights = np.asarray(spec.embedding_weights, dtype=float)
        embedded = np.concatenate(
            [np.einsum("ij,j->i", block, weights) for block in _embedding_blocks(spec)]
        )

    rng_cov = substream(spec.seed, "synth/covariates")
    rng_event = substream(spec.seed, "synth/events")
    rng_cens = substream(spec.seed, "synth/censoring")
    rng_fill = substream(spec.seed, "synth/fill")

    covariate_values = [
        _draw(rng_cov, cov.dist, n) for cov in spec.covariate_model
    ]
    eta = np.zeros(n)
    for beta, values in zip(spec.beta_true, covariate_values):
        eta += beta * values
    if spec.embedding_dim is not None:
        eta += embedded

    hazards = spec.baseline_hazard * np.exp(eta)
    event_times = rng_event.exponential(1.0 / hazards)

    kind = spec.censor_model[0]
    if kind == "none":
        censor_times = np.full(n, np.inf)
    elif kind == "uniform":
        censor_times = rng_cens.uniform(0.0, float(spec.censor_model[1]), n)
    elif kind == "exponential":
        censor_times = rng_cens.exponential(1.0 / float(spec.censor_model[1]), n)
    else:  # admin
        censor_times = np.full(n, float(spec.censor_model[1]))

    events = event_times <= censor_times
    observed = np.minimum(event_times, censor_times)
    if spec.round_days:
        observed = np.ceil(observed)

    driven = {cov.field: values for cov, values in zip(spec.covariate_model, covariate_values)}
    if "chrono_age" in driven:
        chrono = driven["chrono_age"]
    else:
        chrono = rng_fill.uniform(40.0, 80.0, n)
    # Category columns index arrays of the levels, so that every cell of
    # a level is the same str object. choice() over a length draws the
    # same indices as choice() over the levels themselves.
    if "sex" in driven:
        male = driven["sex"] > 0.5
    else:
        male = rng_fill.random(n) < 0.5
    sex = np.array(("female", "male"), dtype=object)[male.astype(np.intp)]
    fill = {
        name: np.array(levels, dtype=object)[rng_fill.choice(len(levels), n)]
        for name, levels in _FILL_LEVELS.items()
    }

    predicted = chrono + driven["fad"] if "fad" in driven else None

    eta.flags.writeable = False
    truth = {
        "n": n,
        "seed": spec.seed,
        "baseline_hazard": spec.baseline_hazard,
        "beta_true": list(spec.beta_true),
        "covariates": [
            {"field": cov.field, "dist": list(cov.dist)} for cov in spec.covariate_model
        ],
        "censor_model": list(spec.censor_model),
        "embedding_dim": spec.embedding_dim,
        "embedding_weights": (
            None if spec.embedding_weights is None else list(spec.embedding_weights)
        ),
        "round_days": spec.round_days,
        "eta": eta,
        "censored_fraction": float(1.0 - events.mean()),
    }
    columns = dict(
        ids=np.array([f"s{i:05d}" for i in range(n)], dtype=object),
        time=observed,
        event=events,
        chrono_age=chrono,
        sex=sex,
        **fill,
        predicted_age=predicted,
        risk_scaled=driven.get("risk_scaled"),
    )
    # Every column is a fresh array that nothing else writes to; read-only,
    # the cohort shares it instead of copying it.
    for values in columns.values():
        if values is not None:
            values.flags.writeable = False
    return SimResult(cohort_mod.Cohort(**columns), truth, spec)
