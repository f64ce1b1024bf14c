"""Discrimination and agreement metrics.

Harrell's concordance for censored data, cumulative/dynamic
time-dependent AUC with Kaplan-Meier inverse-censoring weights, age
prediction accuracy with 5-year bin breakdown, and Wilcoxon signed-rank
and rank-sum tests with exact small-sample p-values. All counts behind
each statistic are reported so results can be serialized and audited.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import positive, vectors
from ._stats import norm_sf
from .errors import AnalysisError, DataError, NoComparablePairsError
from .survival import kaplan_meier

# Largest samples whose Wilcoxon p-value is enumerated exactly.
SIGNED_RANK_EXACT_LIMIT = 25  # nonzero differences
RANK_SUM_EXACT_LIMIT = 20  # both samples together, without ties


@dataclass(frozen=True)
class ConcordanceResult:
    c_index: float
    concordant: int
    discordant: int
    tied_risk: int
    comparable_pairs: int


@dataclass(frozen=True)
class TimeAUCResult:
    horizon: float
    auc: float
    n_cases: int
    n_controls: int


@dataclass(frozen=True)
class AgeAccuracy:
    mae: float
    me: float
    binwise_mae: float
    bins: tuple[tuple[float, int, float], ...]  # (bin start, n, mae)


@dataclass(frozen=True)
class RankTestResult:
    statistic: float
    p_value: float
    n_used: int
    method: str


def _count_later_below(
    rank: np.ndarray, start: np.ndarray, query: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """For each q, the number of positions j >= start[q] with rank[j] < query[q],
    or with ``weights`` the sum of weights[j] over those positions.

    This is the prefix query of a Fenwick tree over dense ranks, taken
    after the subjects at positions start[q].. have been inserted, and
    answered for every q at once. Node level k holds aligned rank blocks
    of width 2**k; the prefix [0, query) is the union of block
    (query >> k) - 1 over the levels k whose bit is set in ``query``. A
    node's content at the time of a query is its members at positions
    >= start: the members from the first one ordered at or after
    (block, start) on (block, position) keys, found by binary search, to
    the node's last. Weights are summed as the difference of their
    running sums at those two places in key order.
    """
    n = rank.size
    position = np.arange(n, dtype=np.int64)
    totals = np.zeros(query.size, dtype=np.int64 if weights is None else float)
    for k in range(int(query.max(initial=0)).bit_length()):
        node = rank >> k
        keys = np.sort(node * n + position)
        hit = (query >> k) & 1 == 1
        block = (query[hit] >> k) - 1
        first = np.searchsorted(keys, block * n + start[hit])
        end = np.cumsum(np.bincount(node, minlength=block.max(initial=0) + 1))[block]
        if weights is None:
            totals[hit] += end - first
        else:
            running = np.concatenate(([0.0], np.cumsum(weights[keys % n])))
            totals[hit] += running[end] - running[first]
    return totals


def harrell_c(risk, times, events) -> ConcordanceResult:
    """Harrell's concordance index.

    A pair is comparable when the subject with the shorter time died;
    at tied times a pair is comparable only when exactly one subject
    died, the death counting as the shorter survival. Pairs tied in
    time with both events are excluded. Concordant means the
    shorter-lived subject carries the higher risk; tied risks count
    one half. Raises NoComparablePairsError when nothing is comparable.

    Runs in O(n log^2 n) time and O(n) memory: subjects are sorted by
    time with deaths ahead of censorings at a tied time, so the subjects
    a death outlives are exactly those after the last death at its time,
    and each death's count of lower, equal and higher risks among them
    comes from Fenwick prefix counts over dense risk ranks
    (Therneau & Atkinson, "Concordance", R survival package).
    """
    r, t, e = vectors(risk=risk, times=times, events=events)
    order = np.lexsort((~e, t))
    t_sorted = t[order]
    rank = np.unique(r, return_inverse=True)[1].astype(np.int64)[order]
    deaths = np.flatnonzero(e[order])
    death_times = t_sorted[deaths]
    # First position past the last death at each death's time.
    start = deaths[np.searchsorted(death_times, death_times, side="right") - 1] + 1
    # Only totals are needed, so deaths are taken in risk order (start
    # stays ascending within a risk); sorted queries search faster.
    by_risk = np.argsort(rank[deaths], kind="stable")
    start, death_rank = start[by_risk], rank[deaths][by_risk]
    lower, lower_or_equal = _count_later_below(
        rank, np.tile(start, 2), np.concatenate([death_rank, death_rank + 1])
    ).reshape(2, -1)
    # Higher risks are counted on reversed ranks, so that the three
    # counts are checked against the pair total rather than derived from it.
    top = rank.max(initial=0)
    higher = _count_later_below(top - rank, start[::-1], top - death_rank[::-1])

    comparable = int(np.sum(t.size - start))
    concordant = int(lower.sum())
    discordant = int(higher.sum())
    tied = int(np.sum(lower_or_equal - lower))
    assert concordant + discordant + tied == comparable
    if comparable == 0:
        raise NoComparablePairsError("no comparable pairs for the concordance index")
    c = (concordant + 0.5 * tied) / comparable
    return ConcordanceResult(float(c), concordant, discordant, tied, comparable)


def _censor_survival_before(curve, query: np.ndarray) -> np.ndarray:
    """Left-continuous lookup G(t-) on a fitted censoring curve."""
    idx = np.searchsorted(curve.times, query, side="left") - 1
    out = np.ones(query.shape)
    hit = idx >= 0
    out[hit] = curve.survival[idx[hit]]
    return out


def time_dependent_auc(marker, times, events, horizon: float) -> TimeAUCResult:
    """Cumulative/dynamic AUC at a fixed horizon.

    Cases are deaths at or before the horizon; controls are subjects
    observed beyond it. Subjects censored at or before the horizon are
    uninformative and drop out. Cases are weighted by the inverse of
    the censoring survival just before their event time (Kaplan-Meier
    with the indicator reversed), controls by the inverse censoring
    survival at the horizon; without censoring every weight is one and
    the statistic reduces to the empirical ROC area.
    """
    m, t, e = vectors(marker=marker, times=times, events=events)
    positive("horizon", horizon)

    cases = e & (t <= horizon)
    controls = t > horizon
    n_cases = int(cases.sum())
    n_controls = int(controls.sum())
    if n_cases == 0:
        raise AnalysisError(f"no cases at horizon {horizon:g}")
    if n_controls == 0:
        raise AnalysisError(f"no controls at horizon {horizon:g}")

    censor_curve = kaplan_meier(t, ~e)
    w_case = 1.0 / _censor_survival_before(censor_curve, t[cases])
    # Every control carries the same weight 1/G(horizon), which cancels
    # in the normalized statistic; only its existence is checked.
    g_h = _censor_survival_before(censor_curve, np.array([np.nextafter(horizon, np.inf)]))[0]
    if g_h <= 0:
        raise AnalysisError("censoring survival vanished at the horizon")

    # Each case beats the controls with a lower marker and ties those
    # with an equal one: (below + below_or_equal) / 2 wins.
    control_markers = np.sort(m[controls])
    case_markers = m[cases]
    wins = 0.5 * (
        np.searchsorted(control_markers, case_markers, side="left")
        + np.searchsorted(control_markers, case_markers, side="right")
    )
    auc = float(w_case @ wins) / (float(w_case.sum()) * n_controls)
    return TimeAUCResult(float(horizon), auc, n_cases, n_controls)


def age_accuracy(predicted, actual) -> AgeAccuracy:
    """Absolute and signed error of age predictions.

    binwise_mae averages the per-bin MAE over 5-year bins of actual
    age starting at zero, weighting each occupied bin equally so sparse
    old-age bins are not drowned out by the bulk of the cohort.
    """
    pred, act = vectors(predicted=predicted, actual=actual)
    if np.any(act < 0):
        raise DataError("actual ages must be >= 0")
    err = pred - act
    mae = float(np.mean(np.abs(err)))
    me = float(np.mean(err))
    bin_index = np.floor(act / 5.0).astype(int)
    bins = []
    for b, count in zip(*np.unique(bin_index, return_counts=True)):
        bins.append((float(b * 5.0), int(count), float(np.mean(np.abs(err[bin_index == b])))))
    binwise = float(np.mean([b[2] for b in bins]))
    return AgeAccuracy(mae, me, binwise, tuple(bins))


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks, tied values sharing their mean rank, and the tie group sizes.

    A group of c values ending at rank k has midrank k - (c - 1) / 2,
    exact in floating point.
    """
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group], counts


def _signed_rank_exact_p(doubled_ranks: np.ndarray, doubled_stat: int) -> float:
    """Two-sided exact p over all 2^n sign assignments.

    Midranks doubled to integers admit a subset-sum count table, which
    enumerates the full sign-flip distribution without materializing
    2^n outcomes.
    """
    total = int(doubled_ranks.sum())
    ways = np.zeros(total + 1, dtype=np.int64)
    ways[0] = 1
    for w in doubled_ranks:
        w = int(w)
        ways[w:] = ways[w:] + ways[:-w]  # w >= 2: a doubled rank of a nonzero difference
    center = total / 2.0
    dev = abs(doubled_stat - center)
    sums = np.arange(total + 1)
    tail = np.abs(sums - center) >= dev - 1e-9
    return float(ways[tail].sum() / ways.sum())


def wilcoxon_signed_rank(diffs) -> RankTestResult:
    """Two-sided Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped. With at most ``SIGNED_RANK_EXACT_LIMIT``
    nonzero differences the p-value enumerates the exact sign-flip
    distribution of the positive-rank sum (ties handled through
    midranks); beyond that a normal approximation with tie correction
    and a 0.5 continuity correction is used. The statistic is the
    positive-rank sum W+.
    """
    (d,) = vectors(diffs=diffs)
    d = d[d != 0]
    n = d.size
    if n == 0:
        raise AnalysisError("all differences are zero")
    ranks, ties = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= SIGNED_RANK_EXACT_LIMIT:
        doubled = np.rint(2 * ranks).astype(np.int64)
        p = _signed_rank_exact_p(doubled, int(round(2 * w_plus)))
        return RankTestResult(w_plus, min(1.0, p), n, "exact")

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(ties**3 - ties)) / 48.0
    if var <= 0:
        raise AnalysisError("zero variance in signed-rank statistic")
    z = (abs(w_plus - mean) - 0.5) / np.sqrt(var)
    p = 2.0 * norm_sf(max(z, 0.0))
    return RankTestResult(w_plus, min(1.0, float(p)), n, "normal")


def _rank_sum_exact_p(n_a: int, n_b: int, u_obs: float) -> float:
    """Exact two-sided p for the Mann-Whitney U without ties."""
    n = n_a + n_b
    max_sum = n_a * n + 10
    ways = np.zeros((n_a + 1, max_sum + 1), dtype=np.float64)
    ways[0, 0] = 1.0
    for rank in range(1, n + 1):
        upper = min(n_a, rank)
        for k in range(upper, 0, -1):
            ways[k, rank:] += ways[k - 1, : max_sum + 1 - rank]
    sums = np.arange(max_sum + 1)
    u_vals = sums - n_a * (n_a + 1) / 2.0
    counts = ways[n_a]
    mean = n_a * n_b / 2.0
    dev = abs(u_obs - mean)
    tail = np.abs(u_vals - mean) >= dev - 1e-9
    return float(counts[tail].sum() / counts.sum())


def wilcoxon_rank_sum(a, b) -> RankTestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    The statistic is U for the first sample. The p-value is exact, by
    enumeration of rank assignments, when the combined sample is no
    larger than ``RANK_SUM_EXACT_LIMIT`` and has no ties; otherwise the
    normal approximation with tie correction and continuity correction
    is used (reported in the method field).
    """
    # The samples differ in length, so each is checked on its own.
    (xa,), (xb,) = vectors(a=a), vectors(b=b)
    n_a, n_b = xa.size, xb.size
    n = n_a + n_b
    combined = np.concatenate([xa, xb])
    ranks, ties = _midranks(combined)
    u_a = float(ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0)

    has_ties = ties.size < n
    if n <= RANK_SUM_EXACT_LIMIT and not has_ties:
        p = _rank_sum_exact_p(n_a, n_b, u_a)
        return RankTestResult(u_a, min(1.0, p), n, "exact")

    mean = n_a * n_b / 2.0
    tie_term = float(np.sum(ties**3 - ties)) / (n * (n - 1))  # n >= 2: both samples are non-empty
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        raise AnalysisError("zero variance in rank-sum statistic")
    z = (abs(u_a - mean) - 0.5) / np.sqrt(var)
    p = 2.0 * norm_sf(max(z, 0.0))
    method = "normal(ties)" if has_ties else "normal"
    return RankTestResult(u_a, min(1.0, float(p)), n, method)

