"""The input contract of the public numeric API.

Every function listed under "Python API" in README.md that takes 1-d
numeric arrays (the survival, cox, metrics, biomarkers and trainer
modules) is fed NaN, +inf, -inf, misaligned and empty arrays, times
<= 0 where it takes times, and events other than 0/1, and must raise
DataError. Each valid call is run first, so a rejection is the
contract's and not some other failure. Geometry (``attention``) keeps
its own checks, tested in test_attention.py. Integer settings, across
all modules, reject what is not an integer.
"""

from __future__ import annotations

import numpy as np
import pytest

from visage import attention, biomarkers, metrics, rng, survival, synth, trainer
from visage._inputs import vectors
from visage.cox import Covariate, DesignMatrix, build_design, fit_cox, partial_likelihood
from visage.errors import DataError
from tests.conftest import make_cohort

T = [5.0, 3.0, 8.0, 2.0, 9.0, 4.0, 7.0, 6.0]
E = [1, 0, 1, 1, 0, 1, 0, 1]
R = [0.2, 0.5, 0.1, 0.9, 0.3, 0.7, 0.4, 0.6]
AGES = [40.0, 52.0, 61.0, 70.0, 45.0, 58.0, 66.0, 73.0]
X = [0.3, 1.2, -0.4, 2.0, 0.1, 0.8, -1.0, 0.5]
DESIGN = build_design(make_cohort(T, np.array(E, bool), risk_raw=X), [Covariate("risk_raw")])
FAST = trainer.TrainConfig(epochs=1, batch_size=4)


def _embeddings(n: int) -> np.ndarray:
    return np.random.default_rng(0).normal(size=(n, 3))


# name -> (a call taking the 1-d arrays by keyword, their valid values).
CASES = {
    "kaplan_meier": (survival.kaplan_meier, dict(times=T, events=E)),
    "reverse_km_median_followup": (
        survival.reverse_km_median_followup, dict(times=T, events=[1, 0, 0, 1, 0, 1, 0, 0])
    ),
    "log_rank": (
        lambda times, events: survival.log_rank([(times, events), (T, E)]),
        dict(times=[4.0, 6.0, 1.0, 3.0], events=[1, 1, 0, 1]),
    ),
    "fit_cox": (lambda times, events: fit_cox(DESIGN, times, events), dict(times=T, events=E)),
    "partial_likelihood": (
        lambda times, events: partial_likelihood(X[: len(times)], times, events, [0.2]),
        dict(times=T, events=E),
    ),
    "harrell_c": (metrics.harrell_c, dict(risk=R, times=T, events=E)),
    "time_dependent_auc": (
        lambda marker, times, events: metrics.time_dependent_auc(marker, times, events, 5.5),
        dict(marker=R, times=T, events=E),
    ),
    "age_accuracy": (metrics.age_accuracy, dict(predicted=X, actual=AGES)),
    "wilcoxon_signed_rank": (metrics.wilcoxon_signed_rank, dict(diffs=X)),
    "wilcoxon_rank_sum": (metrics.wilcoxon_rank_sum, dict(a=R[:4], b=X[:5])),
    "compute_fad": (biomarkers.compute_fad, dict(predicted_age=AGES[::-1], chrono_age=AGES)),
    "minmax_scale": (biomarkers.minmax_scale, dict(raw=X)),
    "stratify": (lambda column: biomarkers.stratify(column, "fad_bands"), dict(column=X)),
    "train_risk_model": (
        lambda times, events: trainer.train_risk_model(
            _embeddings(len(times)), times, events, FAST
        ),
        dict(times=T, events=E),
    ),
    "train_age_model": (
        lambda ages: trainer.train_age_model(_embeddings(len(ages)), ages, FAST),
        dict(ages=AGES),
    ),
    "pairwise_rank_loss": (trainer.pairwise_rank_loss, dict(risks=R, times=T, events=E)),
    "balance_bins": (lambda ages: trainer.balance_bins(ages, target=3), dict(ages=AGES)),
    "balance_by_factors": (trainer.balance_by_factors, dict(ages=AGES)),
}

# NaN marks a missing prediction, so compute_fad accepts it there.
MISSING_ALLOWED = {("compute_fad", "predicted_age")}
UNALIGNED = {"wilcoxon_rank_sum"}


def _mutations():
    for name, (_, valid) in CASES.items():
        for arg in valid:
            if (name, arg) not in MISSING_ALLOWED:
                for label, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
                    yield name, f"{arg}={label}", {arg: [bad, *valid[arg][1:]]}
            if arg == "times":
                yield name, "times=0", {arg: [0.0, *valid[arg][1:]]}
                yield name, "times<0", {arg: [-1.0, *valid[arg][1:]]}
            if arg == "events":
                yield name, "events=2", {arg: [2, *valid[arg][1:]]}
            if len(valid) > 1 and name not in UNALIGNED:
                yield name, f"{arg} short", {arg: valid[arg][:-1]}
        yield name, "empty", {arg: [] for arg in valid}


@pytest.mark.parametrize("name", sorted(CASES))
def test_valid_call_runs(name):
    call, valid = CASES[name]
    call(**valid)


@pytest.mark.parametrize(
    "name, change", [pytest.param(n, c, id=f"{n}-{label}") for n, label, c in _mutations()]
)
def test_bad_array_rejected(name, change):
    call, valid = CASES[name]
    with pytest.raises(DataError):
        call(**{**valid, **change})


ROW_2 = (np.arange(8) == 2)[:, None]


def _curve():
    return survival.kaplan_meier(T, E)


BAD_INPUT = {
    # Scalars, 2-d inputs and malformed groups, and inputs that once gave a
    # plausible number (a negative time, a NaN difference) or another error.
    "harrell_c negative time": lambda: metrics.harrell_c(R, [-1.0, *T[1:]], E),
    "wilcoxon_signed_rank nan": lambda: metrics.wilcoxon_signed_rank([1.0, np.nan, 2.0, -1.0]),
    "wilcoxon_rank_sum nan": lambda: metrics.wilcoxon_rank_sum([1.0, np.nan, 3.0], [2.0, 4.0]),
    "fit_cox nan time": lambda: fit_cox(DESIGN, [np.nan, *T[1:]], E),
    "fit_cox nan covariate": lambda: fit_cox(
        DesignMatrix(DESIGN.names, np.where(ROW_2, np.nan, DESIGN.matrix), DESIGN.included), T, E
    ),
    "partial_likelihood nan covariate": lambda: partial_likelihood(
        [np.nan, *X[1:]], T, E, [0.2]
    ),
    "partial_likelihood transposed X": lambda: partial_likelihood(
        np.array([X, X[::-1]]), T, E, [0.2, 0.1]
    ),
    "train_age_model nan age": lambda: trainer.train_age_model(
        _embeddings(8), [np.nan, *AGES[1:]], FAST
    ),
    "train_risk_model nan embedding": lambda: trainer.train_risk_model(
        np.where(ROW_2, np.nan, _embeddings(8)), T, E, FAST
    ),
    "train_risk_model misaligned embeddings": lambda: trainer.train_risk_model(
        _embeddings(7), T, E, FAST
    ),
    "balance_bins nan age": lambda: trainer.balance_bins([np.nan, *AGES[1:]], target=3),
    "balance_bins negative age": lambda: trainer.balance_bins([-1.0, *AGES[1:]], target=3),
    "km_estimate_at nan": lambda: survival.km_estimate_at(_curve(), np.nan),
    "km_estimate_at inf": lambda: survival.km_estimate_at(_curve(), np.inf),
    "km_estimate_at negative": lambda: survival.km_estimate_at(_curve(), -1.0),
    "log_rank malformed group": lambda: survival.log_rank([(T, E), (T,)]),
    "time_dependent_auc nan horizon": lambda: metrics.time_dependent_auc(R, T, E, np.nan),
    "time_dependent_auc zero horizon": lambda: metrics.time_dependent_auc(R, T, E, 0.0),
    "compute_fad misaligned": lambda: biomarkers.compute_fad(AGES[:7], AGES),
    "cosine nan": lambda: biomarkers.cosine_similarity_profile(
        np.where(ROW_2, np.nan, _embeddings(8)), _embeddings(8)
    ),
    "cosine inf": lambda: biomarkers.cosine_similarity_profile(
        _embeddings(8), np.where(ROW_2, np.inf, _embeddings(8))
    ),
    "cosine misaligned": lambda: biomarkers.cosine_similarity_profile(
        _embeddings(8), _embeddings(7)
    ),
    "cosine empty": lambda: biomarkers.cosine_similarity_profile(
        np.zeros((0, 3)), np.zeros((0, 3))
    ),
    "cosine 1-d": lambda: biomarkers.cosine_similarity_profile(
        _embeddings(8)[0], _embeddings(8)[1]
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUT))
def test_audited_input_rejected(name):
    with pytest.raises(DataError):
        BAD_INPUT[name]()


# Each integer setting -> a call taking its value.
INTEGER_SETTINGS = {
    "batch_size": lambda v: trainer.TrainConfig(batch_size=v),
    "epochs": lambda v: trainer.TrainConfig(epochs=v),
    "hidden": lambda v: trainer.TrainConfig(hidden=v),
    "n": lambda v: synth.SimSpec(n=v),
    "embedding_dim": lambda v: synth.SimSpec(n=4, embedding_dim=v, embedding_weights=(0.1,) * 3),
    "target": lambda v: trainer.balance_bins(AGES, target=v),
    "out_size": lambda v: attention.upsample_bilinear(np.ones((2, 2)), v),
    "seed": lambda v: rng.substream(v, "inputs/seed"),
}


@pytest.mark.parametrize("value", [2.5, True, "3", np.int64(3)], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_SETTINGS))
def test_integer_setting_rejects_non_integers(name, value):
    """A float, a bool or a string is rejected naming the setting; a numpy int is accepted."""
    if isinstance(value, np.integer):
        INTEGER_SETTINGS[name](value)
    else:
        with pytest.raises(DataError, match=f"^{name} must be an integer"):
            INTEGER_SETTINGS[name](value)


class TestVectors:
    def test_events_come_back_bool(self):
        t, e = vectors(times=[1, 2], events=[1.0, 0.0])
        assert t.dtype == np.float64
        assert e.dtype == bool and e.tolist() == [True, False]

    def test_message_names_the_argument(self):
        with pytest.raises(DataError, match="risk"):
            vectors(times=[1.0, 2.0], risk=[1.0, np.nan])
        with pytest.raises(DataError, match="events has length 1, times has 2"):
            vectors(times=[1.0, 2.0], events=[1])
        with pytest.raises(DataError, match="times must be > 0"):
            vectors(times=[1.0, 0.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(DataError):
            vectors(x=np.ones((2, 2)))

    def test_non_numeric_rejected(self):
        with pytest.raises(DataError, match="x must be numeric"):
            vectors(x=["a", "b"])
