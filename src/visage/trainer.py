"""Risk and age model training on image embeddings.

The survival risk head is trained with a pairwise logistic ranking
loss: every pair of one subject who died and one who was observed
longer contributes log(1 + exp(-(r_short - r_long))), plus a smoothness
penalty on squared differences between risks of adjacent subjects in
time order. The age head is plain L1 regression. Both use an
Adam-style optimizer with decoupled weight decay and are bit-for-bit
deterministic for a given seed: data order, initialization, and every
update are pure numpy driven by named substreams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from ._inputs import integer, positive, vectors
from .errors import AnalysisError, DataError, NoComparablePairsError, reading
from .metrics import _count_later_below, harrell_c
from .rng import substream

# Oversampling factors per age range. The anchors are: no oversampling
# below 50, factor 2 at 50, the top factor 20 for the oldest subjects;
# intermediate 5-year ranges ramp through 3, 5, 8, 12, 16.
DEFAULT_FACTOR_TABLE = (
    (0.0, 50.0, 1),
    (50.0, 55.0, 2),
    (55.0, 60.0, 3),
    (60.0, 65.0, 5),
    (65.0, 70.0, 8),
    (70.0, 75.0, 12),
    (75.0, 80.0, 16),
    (80.0, 116.0, 20),  # closed at 116, the oldest supported age
)

MODEL_FORMAT = "visage-linear-head/1"

# Adam's decay rates of the first and second moment estimates: the
# defaults of Kingma & Ba (ICLR 2015), which AdamW keeps (Loshchilov &
# Hutter, ICLR 2019).
BETA1 = 0.9
BETA2 = 0.999


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    weight_decay: float = 0.05
    batch_size: int = 32
    epochs: int = 10
    smooth_lambda: float = 1e-4
    seed: int = 0
    validation_fraction: float = 0.05
    pair_loss: str = "logistic"  # or "hinge"
    hidden: int = 0  # 0: no hidden layer

    def __post_init__(self):
        for f in fields(self):  # numpy scalars as plain numbers, so a header can hold them
            value = getattr(self, f.name)
            if isinstance(value, np.generic):
                object.__setattr__(self, f.name, value.item())
        for name, high in (("learning_rate", math.inf), ("validation_fraction", 1.0)):
            positive(name, getattr(self, name), below=high)
        for name in ("weight_decay", "smooth_lambda"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise DataError(f"{name} must lie in [0, inf), got {value!r}")
        integer("batch_size", self.batch_size, low=1)
        integer("epochs", self.epochs, low=0)
        if self.pair_loss not in ("logistic", "hinge"):
            raise DataError(f"unknown pair loss {self.pair_loss!r}")
        integer("hidden", self.hidden, low=0)


def saved_config(config: TrainConfig) -> dict:
    """The settings a model header and the train manifest record: the
    config's, less the seed and the hidden width (each file records
    those its own way), plus the fixed Adam rates and batch shuffling."""
    settings = {k: v for k, v in vars(config).items() if k not in ("seed", "hidden")}
    return {**settings, "beta1": BETA1, "beta2": BETA2, "shuffle": True}


@dataclass
class RiskModel:
    """A linear head, optionally behind one tanh hidden layer.

    ``params`` maps each parameter's name to its array in the order of
    :func:`_layout`, which is the order of a model file's payload.
    """

    params: dict[str, np.ndarray]

    def predict(self, X) -> np.ndarray:
        return _forward(self.params, np.asarray(X, dtype=float))[0]


@dataclass(frozen=True)
class RankLoss:
    loss: float
    grad: np.ndarray | None
    n_pairs: int
    pair_loss: float
    smooth_loss: float

    @property
    def no_pairs(self) -> bool:
        return self.n_pairs == 0


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    train_c: float
    val_c: float
    skipped_batches: int = 0


@dataclass(frozen=True)
class AgeEpochStats:
    epoch: int
    train_mae: float
    val_mae: float


@dataclass(frozen=True)
class TrainResult:
    model: RiskModel
    trace: tuple
    checkpoints: tuple
    train_indices: np.ndarray  # int row indices of X
    val_indices: np.ndarray


# Event rows per block of the pairwise loss: memory is O(_ROW_BLOCK * n).
_ROW_BLOCK = 16

# Comparable pairs per subject from which a call's loss is summed
# without visiting the pairs (see pairwise_rank_loss). In-process
# timings put the crossover at about 10-50 for the logistic series and
# 130-300 for the hinge Fenwick sums. n subjects hold at most (n - 1)/2
# pairs each, so a call on fewer than 513 subjects, a training batch
# among them, always takes the blocked sweep.
_PAIR_FREE_MIN_PAIRS_PER_SUBJECT = 256

# The logistic pair-free sum keeps at most this many even terms of its
# series, and only when their truncation is certified to this relative
# bound of the loss.
_SERIES_MAX_TERMS = 16
_SERIES_RTOL = 1e-13


def _tangent_numbers(m: int) -> list[int]:
    """T_1, T_3, ..., T_(2m-1), the Taylor coefficients of tan x times
    their factorials (Brent & Zimmermann, "Modern Computer Arithmetic",
    2010, Algorithm TangentNumbers)."""
    t = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


# softplus(d) = log 2 + d/2 + log cosh(d/2) = log 2 + d/2 + sum_n a_n d^(2n),
# with a_n = (2^(2n) - 1) B_(2n) / (2n (2n)!) = (-1)^(n-1) T_(2n-1) / ((2n)! 4^n),
# the series of tanh integrated. It converges for |d| < pi, and
# |a_n| <= zeta(2) / (n pi^(2n)) bounds its tail.
_SOFTPLUS_EVEN = tuple(
    (-1) ** n * t / (math.factorial(2 * n + 2) * 4 ** (n + 1))
    for n, t in enumerate(_tangent_numbers(_SERIES_MAX_TERMS))
)


def _series_terms(span: float) -> int | None:
    """The fewest even terms of the softplus series whose truncation,
    for every pair of risks at most ``span`` apart, is certified within
    ``_SERIES_RTOL`` of that pair's loss; None when ``_SERIES_MAX_TERMS``
    do not suffice.

    A pair's loss is at least softplus(-span), and beyond n terms the
    series adds at most zeta(2) q^(n+1) / ((n + 1)(1 - q)), q = (span/pi)^2.
    """
    q = (span / math.pi) ** 2
    if q >= 1.0:
        return None
    floor = _SERIES_RTOL * math.log1p(math.exp(-span))
    for terms in range(1, _SERIES_MAX_TERMS + 1):
        if math.pi**2 / 6 * q ** (terms + 1) / ((terms + 1) * (1.0 - q)) <= floor:
            return terms
    return None


def _logistic_series_total(
    x: np.ndarray, rows: np.ndarray, first_later: np.ndarray
) -> float | None:
    """The sum of softplus(x_j - x_i) over event rows i and j >= first_later[i]
    of time-sorted risks ``x`` centred at their midrange, or None when
    the series is not certified for their range.

    (x_j - x_i)^d expands into the powers x_j^k (-x_i)^(d - k), so the
    sum takes the suffix sums S_k(i) of x_j^k from first_later[i] on:
    the total is sum over (k, m) of M[k, m] sum_i S_k(i) (-x_i)^m, where
    M holds the series coefficients times binomials. That is O(n K^2)
    for K terms, the separable expansion of Raykar, Duraiswami &
    Krishnapuram, IEEE TPAMI 30(7), 2008.
    """
    terms = _series_terms(float(x.max() - x.min()))
    if terms is None:
        return None
    degree = 2 * terms
    coefficients = np.zeros((degree + 1, degree + 1))
    coefficients[0, 0] = math.log(2.0)
    coefficients[1, 0] = coefficients[0, 1] = 0.5
    for n, a in enumerate(_SOFTPLUS_EVEN[:terms], 1):
        for k in range(2 * n + 1):
            coefficients[k, 2 * n - k] += a * math.comb(2 * n, k)
    suffix = np.zeros((x.size + 1, degree + 1))  # row x.size: no later subject
    # The powers of x, last subject first, are written into suffix as
    # np.vander computes them and summed there in place, so that suffix is
    # the only n-row matrix held until its event rows are taken.
    powers = suffix[-2::-1]
    powers[:, 0] = 1.0
    powers[:, 1:] = x[::-1, None]
    np.multiply.accumulate(powers[:, 1:], axis=1, out=powers[:, 1:])
    np.cumsum(powers, axis=0, out=powers)
    later = suffix[first_later]
    del suffix, powers
    moments = later.T @ np.vander(-x[rows], degree + 1, increasing=True)
    return float(np.sum(coefficients * moments))


def _hinge_total(x: np.ndarray, rows: np.ndarray, first_later: np.ndarray) -> float:
    """The sum of max(0, 1 - x_i + x_j) over event rows i and j >= first_later[i]
    of time-sorted risks ``x``, exactly.

    A pair's loss is positive when x_j > x_i - 1, and then it is
    1 - x_i + x_j: each event row needs the count and the sum of such
    later risks, which Fenwick prefix queries over dense risk ranks give
    (Poelsterl, Navab & Katouzian, ECML PKDD 2015). Ranks are reversed so
    that "at least the rank of the first value above x_i - 1" becomes a
    prefix.
    """
    values, rank = np.unique(x, return_inverse=True)
    flipped = values.size - 1 - rank
    query = values.size - np.searchsorted(values, x[rows] - 1.0, side="right")
    count = _count_later_below(flipped, first_later, query)
    later_sum = _count_later_below(flipped, first_later, query, weights=x)
    return float(np.sum(count * (1.0 - x[rows]) + later_sum))


def _blocked_sweep(
    r: np.ndarray, rows: np.ndarray, first_later: np.ndarray, form: str,
    grad: np.ndarray | None,
) -> float:
    """The sum of pair losses over event rows i and j >= first_later[i]
    of time-sorted risks ``r``, visiting the pairs.

    Event rows are taken in blocks of ``_ROW_BLOCK``, each against only
    the columns from the first subject strictly later than its earliest
    row, so memory is O(block * n) rather than O(n^2). Unless ``grad``
    is None, each pair's slope is added to it for both risks.
    """
    total = 0.0
    for b in range(0, rows.size, _ROW_BLOCK):
        block = slice(b, b + _ROW_BLOCK)
        lo, hi = first_later[b], first_later[block][-1]
        margin = r[rows[block], None] - r[None, lo:]
        # Later rows of the block pair from further right; their cells
        # before that get margin +inf, hence zero loss and zero slope.
        unpaired = np.arange(lo, hi)[None, :] < first_later[block, None]
        margin[:, : hi - lo][unpaired] = np.inf
        losses, slope = _pair_terms(margin, form, grad is not None)
        total += float(losses.sum())
        if grad is not None:
            grad[rows[block]] += slope.sum(axis=1)
            grad[lo:] -= slope.sum(axis=0)
    return total


def _pair_terms(
    margin: np.ndarray, form: str, with_grad: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pair losses and their slopes d loss / d margin, margin = r_event - r_longer.

    A margin of +inf gives a zero loss and a zero slope in both forms.
    With ``with_grad=False`` the slope is not computed and is None.
    """
    if form == "logistic":
        # loss = log(1 + exp(-margin)) = max(-margin, 0) + log1p(exp(-|margin|))
        # and slope = -1 / (1 + exp(margin)) = expm1(-loss), both overflow-free;
        # computed in place, since this is the trainer's innermost loop.
        losses = np.abs(margin)
        np.negative(losses, out=losses)
        np.exp(losses, out=losses)
        np.log1p(losses, out=losses)
        slope = np.minimum(margin, 0.0)
        losses -= slope
        if not with_grad:
            return losses, None
        np.negative(losses, out=slope)
        np.expm1(slope, out=slope)
    else:
        losses = np.maximum(0.0, 1.0 - margin)
        slope = np.where(margin < 1.0, -1.0, 0.0) if with_grad else None
    return losses, slope


def pairwise_rank_loss(
    risks,
    times,
    events,
    smooth_lambda: float = 0.0,
    form: str = "logistic",
    *,
    with_grad: bool = True,
) -> RankLoss:
    """Ranking loss over all comparable pairs plus a smoothness term.

    A pair is one subject with an event and one observed strictly
    longer; subjects with equal times never pair. The pair term is the
    mean of log(1 + exp(-(r_event - r_longer))) over pairs ("hinge"
    swaps in max(0, 1 - margin)). The smoothness term is
    ``smooth_lambda`` times the sum of squared differences between
    risks adjacent in time-sorted order. When a batch holds no
    comparable pair the pair term is skipped and the result is flagged
    through ``n_pairs == 0``.

    Subjects are sorted by time once. Below 256 comparable pairs per
    subject (``_PAIR_FREE_MIN_PAIRS_PER_SUBJECT``; always below 513
    subjects) the loss is summed over the pairs in blocks of event rows,
    in memory O(block * n). From there on it is summed without visiting
    them: the hinge form exactly, from Fenwick counts and sums in
    O(n log^2 n); the logistic form from a series in the risk
    differences, in O(n K^2) for K <= 16 terms, taken only when its
    truncation is certified within 1e-13 of the loss for the call's
    risk range (max - min up to about 1.33). A wider range falls back
    to the blocked sweep. The choice depends on the input alone, so
    ``loss`` never depends on ``with_grad``.

    The gradient always comes from the blocked sweep. With
    ``with_grad=False`` it is not computed, and ``grad`` is None.
    """
    r, t, e = vectors(risks=risks, times=times, events=events)
    if form not in ("logistic", "hinge"):
        raise DataError(f"unknown pair loss {form!r}")
    n = r.size
    order = np.argsort(t, kind="stable")
    t_sorted, r_sorted = t[order], r[order]
    rows = np.flatnonzero(e[order])
    # Each event row pairs with every column from its first strictly later subject.
    first_later = np.searchsorted(t_sorted, t_sorted[rows], side="right")
    n_pairs = int(np.sum(n - first_later))

    grad_sorted = np.zeros(n) if with_grad else None
    pair_loss = 0.0
    if n_pairs:
        total = None
        if n_pairs >= _PAIR_FREE_MIN_PAIRS_PER_SUBJECT * n:
            x = r_sorted - (r_sorted.max() + r_sorted.min()) / 2
            pair_free = _logistic_series_total if form == "logistic" else _hinge_total
            total = pair_free(x, rows, first_later)
        if total is None or with_grad:
            swept = _blocked_sweep(r_sorted, rows, first_later, form, grad_sorted)
            total = swept if total is None else total
        pair_loss = total / n_pairs

    smooth = smooth_lambda > 0 and n > 1
    smooth_loss = 0.0
    if smooth:
        diffs = r_sorted[1:] - r_sorted[:-1]
        smooth_loss = float(smooth_lambda * np.sum(diffs**2))
    if not with_grad:
        return RankLoss(pair_loss + smooth_loss, None, n_pairs, pair_loss, smooth_loss)

    if n_pairs:
        grad_sorted /= n_pairs
    if smooth:
        grad_sorted[1:] += 2.0 * smooth_lambda * diffs
        grad_sorted[:-1] -= 2.0 * smooth_lambda * diffs
    grad = np.empty(n)
    grad[order] = grad_sorted
    return RankLoss(pair_loss + smooth_loss, grad, n_pairs, pair_loss, smooth_loss)


class _AdamW:
    """Adam with decoupled weight decay; decay skips bias parameters."""

    def __init__(self, params: dict[str, np.ndarray], config: TrainConfig):
        self.params = params
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.config
        self.t += 1
        for key, g in grads.items():
            p = self.params[key]
            self.m[key] = BETA1 * self.m[key] + (1 - BETA1) * g
            self.v[key] = BETA2 * self.v[key] + (1 - BETA2) * g * g
            m_hat = self.m[key] / (1 - BETA1**self.t)
            v_hat = self.v[key] / (1 - BETA2**self.t)
            update = m_hat / (np.sqrt(v_hat) + 1e-8)
            if not key.endswith("b"):
                update = update + c.weight_decay * p
            self.params[key] = p - c.learning_rate * update


def _layout(dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Each parameter's name and shape, in save order: the hidden layer
    first when there is one, then the output weights and bias."""
    if not hidden:
        return {"w": (dim,), "b": (1,)}
    return {"hidden_w": (hidden, dim), "hidden_b": (hidden,), "w": (hidden,), "b": (1,)}


def _init_params(dim: int, config: TrainConfig) -> dict[str, np.ndarray]:
    rng = substream(config.seed, "trainer/init")
    sd = {"hidden_w": 1e-2, "w": 1e-4}  # of each weight's normal draw; biases start at 0
    return {
        name: rng.normal(0.0, sd[name], shape) if name in sd else np.zeros(shape)
        for name, shape in _layout(dim, config.hidden).items()
    }


def _forward(params: dict[str, np.ndarray], X: np.ndarray):
    if "hidden_w" in params:
        h = np.tanh(X @ params["hidden_w"].T + params["hidden_b"])
        return h @ params["w"] + params["b"][0], h
    return X @ params["w"] + params["b"][0], None


def _backward(params, X, hidden, grad_r) -> dict[str, np.ndarray]:
    inputs = X if hidden is None else hidden  # what the output layer sees
    grads = {"w": inputs.T @ grad_r, "b": np.array([grad_r.sum()])}
    if hidden is not None:
        d_pre = (grad_r[:, None] * params["w"]) * (1.0 - hidden**2)
        grads["hidden_w"] = d_pre.T @ X
        grads["hidden_b"] = d_pre.sum(axis=0)
    return grads


def _split(n: int, config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    perm = substream(config.seed, "trainer/split").permutation(n)
    n_val = int(round(config.validation_fraction * n))
    n_val = max(1, n_val)
    if n_val >= n:
        raise DataError("validation split leaves no training data")
    return perm[: n - n_val], perm[n - n_val :]


def _embeddings(embeddings, n: int) -> np.ndarray:
    """The (n, d) embedding matrix, which must be finite."""
    X = np.asarray(embeddings, dtype=float)
    if X.ndim != 2 or X.shape[0] != n:
        raise DataError(f"embeddings must be ({n}, d), got shape {X.shape}")
    # Min and max are not finite exactly when some entry is not; no n x d temporary.
    if not (np.isfinite(X.min(initial=0.0)) and np.isfinite(X.max(initial=0.0))):
        raise DataError("embeddings hold non-finite values")
    return X


def _safe_c(risks, t, e) -> float:
    try:
        return harrell_c(risks, t, e).c_index
    except NoComparablePairsError:
        return float("nan")


def _train(X: np.ndarray, config: TrainConfig, batch_grad, epoch_row) -> TrainResult:
    """The training procedure both heads share.

    A seeded train/validation split, a seeded initialization, AdamW, and
    per epoch the seed-shuffled batches of the training split. For each
    batch, ``batch_grad(outputs, batch)`` returns the gradient of the
    loss with respect to the batch outputs and whether the batch held no
    comparable pair. Such a batch counts as skipped, and it takes no
    step only when its gradient is zero as well. At each epoch's end
    ``epoch_row(epoch, r_train, train_idx, r_val, val_idx, skipped)``
    builds the trace row, and the model is kept as a checkpoint.
    """
    train_idx, val_idx = _split(X.shape[0], config)
    params = _init_params(X.shape[1], config)
    optimizer = _AdamW(params, config)
    shuffle_rng = substream(config.seed, "trainer/shuffle")

    trace = []
    checkpoints: list[RiskModel] = []
    for epoch in range(1, config.epochs + 1):
        skipped = 0
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        for batch in np.split(order, range(config.batch_size, order.size, config.batch_size)):
            outputs, hidden = _forward(params, X[batch])
            grad, no_pairs = batch_grad(outputs, batch)
            if no_pairs:
                skipped += 1
                if not np.any(grad):
                    continue
            optimizer.step(_backward(params, X[batch], hidden, grad))

        # The model over every row once, then indexed, copies no rows of
        # the embedding. A risk may differ in its last bit from one taken
        # over the split's rows alone: BLAS can sum a row in an order
        # that its place in the product sets.
        risks = _forward(params, X)[0]
        r_train, r_val = risks[train_idx], risks[val_idx]
        trace.append(epoch_row(epoch, r_train, train_idx, r_val, val_idx, skipped))
        checkpoints.append(RiskModel({k: v.copy() for k, v in params.items()}))

    return TrainResult(RiskModel(params), tuple(trace), tuple(checkpoints), train_idx, val_idx)


def train_risk_model(embeddings, times, events, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Fit the ranking risk head.

    The validation set is the trailing ``validation_fraction`` of the
    seed-shuffled subject order. One checkpoint is kept per epoch, and
    the trace records full train/validation loss and concordance at
    each epoch's end. With ``epochs=0`` the initial model is returned
    with an empty trace. Requires at least two events overall.
    """
    t, e = vectors(times=times, events=events)
    X = _embeddings(embeddings, t.size)
    if int(e.sum()) < 2:
        raise AnalysisError("need at least two events to form training pairs")

    def loss(risks, idx, with_grad=True) -> RankLoss:
        return pairwise_rank_loss(
            risks, t[idx], e[idx], config.smooth_lambda, config.pair_loss, with_grad=with_grad
        )

    def batch_grad(risks, batch):
        result = loss(risks, batch)
        return result.grad, result.no_pairs

    def epoch_row(epoch, r_train, train_idx, r_val, val_idx, skipped):
        return EpochStats(
            epoch,
            loss(r_train, train_idx, with_grad=False).loss,
            loss(r_val, val_idx, with_grad=False).loss,
            _safe_c(r_train, t[train_idx], e[train_idx]),
            _safe_c(r_val, t[val_idx], e[val_idx]),
            skipped,
        )

    return _train(X, config, batch_grad, epoch_row)


def train_age_model(embeddings, ages, config: TrainConfig = TrainConfig()) -> TrainResult:
    """Fit the age regression head with mean absolute error loss.

    The L1 subgradient is zero at exact equality. Trace rows carry
    train and validation MAE per epoch.
    """
    (y,) = vectors(ages=ages)
    X = _embeddings(embeddings, y.size)

    def batch_grad(pred, batch):
        return np.sign(pred - y[batch]) / batch.size, False

    def epoch_row(epoch, r_train, train_idx, r_val, val_idx, skipped):
        return AgeEpochStats(
            epoch,
            float(np.mean(np.abs(r_train - y[train_idx]))),
            float(np.mean(np.abs(r_val - y[val_idx]))),
        )

    return _train(X, config, batch_grad, epoch_row)


def balance_by_factors(ages, seed: int = 0) -> np.ndarray:
    """Oversample by the replication factors of ``DEFAULT_FACTOR_TABLE``.

    Every subject appears ``factor`` times for its age range; the
    replicated index sequence is then shuffled deterministically by the
    seed. Ages outside the table's coverage raise DataError.
    """
    (a,) = vectors(ages=ages)
    lows, _, row_factors = zip(*DEFAULT_FACTOR_TABLE)
    outside = (a < lows[0]) | (a > DEFAULT_FACTOR_TABLE[-1][1])
    if outside.any():
        raise DataError(f"age {float(a[outside][0]):g} outside factor table coverage")
    # Each row's upper bound is the next row's lower bound, so an age's
    # row is the last whose lower bound it reaches; 116 joins the top row.
    factors = np.array(row_factors)[np.searchsorted(lows, a, side="right") - 1]
    replicated = np.repeat(np.arange(a.size), factors)
    rng = substream(seed, "balance/factors")
    return replicated[rng.permutation(replicated.size)]


def factor_for_age(age: float) -> int:
    """The replication factor a single age would receive."""
    return int(balance_by_factors(np.array([float(age)]), seed=0).size)


def balance_bins(
    ages, bin_width: float = 5.0, target: int = 200, seed: int = 0
) -> np.ndarray:
    """Resample so every occupied age bin holds exactly ``target``.

    Overfull bins are subsampled without replacement; underfull bins
    keep every original member once and pad with uniform draws (with
    replacement). Bins with no members are skipped. The combined index
    sequence is shuffled deterministically by the seed.
    """
    (a,) = vectors(ages=ages)
    positive("bin_width", bin_width)
    integer("target", target, low=1)
    if np.any(a < 0):
        raise DataError("ages must be >= 0")
    rng = substream(seed, "balance/bins")
    bin_index = np.floor(a / bin_width).astype(int)
    pieces = []
    # A flag keeps np.unique on its sorting path: a plain call reads
    # np.ma.is_masked on numpy 2.x, which imports numpy.ma (+1.4 MB).
    for b in np.unique(bin_index, return_counts=True)[0]:
        members = np.nonzero(bin_index == b)[0]
        if members.size > target:
            pieces.append(rng.choice(members, size=target, replace=False))
        elif members.size < target:
            fill = rng.choice(members, size=target - members.size, replace=True)
            pieces.append(np.concatenate([members, fill]))
        else:
            pieces.append(members)
    out = np.concatenate(pieces)
    return out[rng.permutation(out.size)]


def save_model(model: RiskModel, path, *, kind: str, config: TrainConfig) -> None:
    """Write a model as a one-line JSON header plus its parameters as
    little-endian float32, in the order of :func:`_layout`."""
    params = model.params
    hidden = params["hidden_w"].shape[0] if "hidden_w" in params else None
    flat = np.concatenate([p.ravel() for p in params.values()]).astype("<f4")
    header = {
        "format": MODEL_FORMAT,
        "kind": kind,
        "dim": int(params["hidden_w" if hidden else "w"].shape[-1]),
        "hidden": hidden,
        "dtype": "<f4",
        "n_weights": int(flat.size),
        "seed": config.seed,
        "config": saved_config(config),
    }
    # Rendered before the file is opened: a header json cannot write leaves no file.
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(line)
        fh.write(flat.tobytes())


def load_model(path) -> tuple[RiskModel, dict]:
    """Read a model written by :func:`save_model`."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    with reading(path):
        header = json.loads(header_line.decode("utf-8"))
    if not isinstance(header, dict):
        raise DataError("model header must be a JSON object")
    if header.get("format") != MODEL_FORMAT:
        raise DataError(f"unsupported model format {header.get('format')!r}")
    try:
        dim, hidden, n_weights = (header[key] for key in ("dim", "hidden", "n_weights"))
    except KeyError as err:
        raise DataError(f"model header lacks {err}") from None
    hidden = hidden or 0  # null: a linear head
    if not (isinstance(dim, int) and isinstance(hidden, int) and dim > 0 and hidden >= 0):
        raise DataError(f"model header needs dim >= 1 and hidden >= 0, got {dim!r}, {hidden!r}")
    layout = _layout(dim, hidden)
    sizes = [math.prod(shape) for shape in layout.values()]
    flat = np.frombuffer(blob, dtype="<f4").astype(float)
    if not flat.size == n_weights == sum(sizes):
        raise DataError(
            f"model payload holds {flat.size} values, its header n_weights {n_weights!r}, "
            f"and dim {dim} with hidden {hidden} imply {sum(sizes)}"
        )
    pieces = np.split(flat, np.cumsum(sizes)[:-1])
    params = {name: p.reshape(shape) for (name, shape), p in zip(layout.items(), pieces)}
    return RiskModel(params), header
