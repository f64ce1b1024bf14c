"""Synthetic survival cohorts with known ground truth.

Event times are exponential with subject hazard
``baseline_hazard * exp(beta . x)``; censoring is uniform,
exponential, or administrative; the observed time is the minimum of
the two with the event flag set when death comes first. Generated
cohorts use the standard cohort columns, so everything downstream
(ingestion, fitting, training) runs on them unchanged, and the ground
truth travels in a JSON-ready sidecar. By default observed times are
rounded up to whole days, which produces realistic ties; exact
continuous times are available for tie-free tests.

All draws come from named Philox substreams of ``SimSpec.seed``, so a
spec pins its cohort bit-for-bit across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import positive
from .cohort import Cohort
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


@dataclass(frozen=True)
class SimCovariate:
    """One hazard-driving covariate and the cohort column it lands in.

    ``field`` is "sex" (bernoulli 0/1 becomes female/male),
    "chrono_age" (years), "risk_scaled" (should generate within [0, 1])
    or "fad" (years; predicted_age is emitted as chrono_age + value).
    ``dist`` is ("bernoulli", p), ("normal", mu, sd), ("uniform", a, b)
    or ("beta", a, b).
    """

    field: str
    dist: tuple


@dataclass(frozen=True)
class SimSpec:
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
        if self.n <= 0:
            raise DataError("n must be positive")
        positive("baseline_hazard", self.baseline_hazard)
        if len(self.beta_true) != len(self.covariate_model):
            raise DataError("beta_true must align with covariate_model")
        numbers = {"beta_true": self.beta_true, "embedding_weights": self.embedding_weights or ()}
        for i, cov in enumerate(self.covariate_model):
            if cov.field not in _COVARIATE_FIELDS:
                raise DataError(f"unsupported covariate field {cov.field!r}")
            numbers[f"covariate_model[{i}] ({cov.field}) dist"] = cov.dist[1:]
        for name, values in numbers.items():
            if not np.isfinite(np.asarray(values, dtype=float)).all():
                raise DataError(f"{name} must hold finite numbers, got {list(values)!r}")
        kind = self.censor_model[0]
        if kind not in ("none", "uniform", "exponential", "admin"):
            raise DataError(f"unknown censor model {kind!r}")
        if kind != "none":
            if len(self.censor_model) != 2 or not 0.0 < float(self.censor_model[1]) < np.inf:
                raise DataError(f"censor_model {kind!r} needs one finite parameter > 0")
        if (self.embedding_weights is None) != (self.embedding_dim is None):
            raise DataError("embedding_weights and embedding_dim go together")
        if self.embedding_dim is not None and len(self.embedding_weights) != self.embedding_dim:
            raise DataError("embedding_weights must have length embedding_dim")


@dataclass(frozen=True)
class SimResult:
    cohort: Cohort
    truth: dict


def _draw(rng: np.random.Generator, dist: tuple, n: int) -> np.ndarray:
    kind = dist[0]
    if kind == "bernoulli":
        return (rng.random(n) < float(dist[1])).astype(float)
    if kind == "normal":
        return rng.normal(float(dist[1]), float(dist[2]), n)
    if kind == "uniform":
        return rng.uniform(float(dist[1]), float(dist[2]), n)
    if kind == "beta":
        return rng.beta(float(dist[1]), float(dist[2]), n)
    raise DataError(f"unknown distribution {kind!r}")


def simulate(spec: SimSpec) -> SimResult:
    """Generate a cohort and its ground-truth sidecar from a spec."""
    n = spec.n
    rng_cov = substream(spec.seed, "synth/covariates")
    rng_emb = substream(spec.seed, "synth/embeddings")
    rng_event = substream(spec.seed, "synth/events")
    rng_cens = substream(spec.seed, "synth/censoring")
    rng_fill = substream(spec.seed, "synth/fill")

    covariate_values = [
        _draw(rng_cov, cov.dist, n) for cov in spec.covariate_model
    ]
    eta = np.zeros(n)
    for beta, values in zip(spec.beta_true, covariate_values):
        eta += beta * values

    embeddings = None
    if spec.embedding_dim is not None:
        embeddings = rng_emb.standard_normal((n, spec.embedding_dim))
        embeddings.flags.writeable = False  # the cohort takes it without a copy
        eta += embeddings @ np.asarray(spec.embedding_weights, dtype=float)

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
        "eta": [float(v) for v in eta],
        "censored_fraction": float(1.0 - events.mean()),
    }
    cohort = Cohort(
        ids=[f"s{i:05d}" for i in range(n)],
        time=observed,
        event=events,
        chrono_age=chrono,
        sex=sex,
        **fill,
        predicted_age=predicted,
        risk_scaled=driven.get("risk_scaled"),
        embedding=embeddings,
    )
    return SimResult(cohort, truth)
