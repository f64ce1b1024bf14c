"""Release gate: one test per acceptance criterion, in order.

Each test prints a single ``AC<nn> <label>: PASS|FAIL (<numbers>)``
line (visible with ``pytest -s``, or in the captured-output block on
failure) and then asserts the criterion at its stated tolerance.
Oracles are imported from the module test files rather than duplicated
here, so a fix there propagates automatically.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from test_cox import TOY_E, TOY_T, TOY_X, grid_argmax, oracle_log_pl
from test_metrics import (
    oracle_concordance,
    oracle_rank_sum_p,
    oracle_roc_auc,
    oracle_signed_rank_p,
)
from test_trainer import linear_risk_data

from visage.attention import (
    FaceMesh,
    bilinear_sample,
    export_obj,
    load_obj,
    subdivide_once,
    triangle_areas,
    triangle_attention,
    upsample_bilinear,
)
from visage.biomarkers import cosine_similarity_profile, stratify
from visage.cli import main as cli_main
from visage.cox import (
    Covariate,
    DesignMatrix,
    build_design,
    compare_aic,
    fit_cox,
    partial_likelihood,
)
from visage.metrics import (
    harrell_c,
    time_dependent_auc,
    wilcoxon_rank_sum,
    wilcoxon_signed_rank,
)
from visage.rng import substream
from visage.survival import kaplan_meier, reverse_km_median_followup
from visage.synth import SimCovariate, SimSpec, simulate
from visage.trainer import (
    TrainConfig,
    balance_bins,
    factor_for_age,
    pairwise_rank_loss,
    train_risk_model,
)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"AC{num:02d} {label}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


def single_column_design(name: str, values) -> DesignMatrix:
    v = np.asarray(values, dtype=float)
    return DesignMatrix(
        names=(name,),
        matrix=v[:, None],
        included=np.ones(v.size, dtype=bool),
    )


def test_ac01_cox_recovers_known_effect():
    """20 simulated cohorts, binary covariate, true log-HR 0.7,
    roughly 30% censored: mean estimate within 0.05, every estimate
    within 0.15, under 5 s total."""
    t0 = time.perf_counter()
    betas = []
    censored = []
    for seed in range(20):
        spec = SimSpec(
            n=2000,
            beta_true=(0.7,),
            covariate_model=(SimCovariate("sex", ("bernoulli", 0.5)),),
            censor_model=("uniform", 1200.0),
            seed=seed,
        )
        cohort = simulate(spec).cohort
        design = build_design(
            cohort, [Covariate("sex", kind="categorical", reference="female")]
        )
        fit = fit_cox(design, cohort.times(), cohort.events(), ties="efron")
        betas.append(float(fit.beta[0]))
        censored.append(1.0 - cohort.events().mean())
    elapsed = time.perf_counter() - t0

    betas = np.array(betas)
    mean_err = abs(betas.mean() - 0.7)
    max_err = np.abs(betas - 0.7).max()
    frac = float(np.mean(censored))
    ok = mean_err <= 0.05 and max_err <= 0.15 and elapsed < 5.0
    report(
        1,
        "cox effect recovery",
        ok,
        f"mean_err={mean_err:.4f} max_err={max_err:.4f} "
        f"censored={frac:.2f} elapsed={elapsed:.2f}s",
    )
    assert mean_err <= 0.05, f"mean beta off by {mean_err:.4f}"
    assert max_err <= 0.15, f"worst fit off by {max_err:.4f}"
    assert 0.2 <= frac <= 0.4, f"censoring drifted to {frac:.2f}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_ac02_cox_matches_likelihood_oracle():
    """Toy n=12 fit vs dense grid search of the exact partial
    likelihood (1e-3), and score/Hessian vs finite differences
    (1e-6 / 1e-4 relative), for both tie corrections."""
    design = single_column_design("x", TOY_X)
    worst_grid = 0.0
    worst_score = 0.0
    worst_hess = 0.0
    for ties in ("efron", "breslow"):
        fit = fit_cox(design, TOY_T, TOY_E, ties=ties)
        b_grid = grid_argmax(TOY_X, TOY_T, TOY_E, ties)
        worst_grid = max(worst_grid, abs(float(fit.beta[0]) - b_grid))
        for b0 in (-0.4, 0.0, 0.8):
            beta = np.array([b0])
            _, score, hess = partial_likelihood(TOY_X, TOY_T, TOY_E, beta, ties)
            h = 1e-5
            lp = oracle_log_pl(b0 + h, TOY_X, TOY_T, TOY_E, ties)[0]
            lm = oracle_log_pl(b0 - h, TOY_X, TOY_T, TOY_E, ties)[0]
            fd_score = (lp - lm) / (2 * h)
            worst_score = max(
                worst_score, abs(score[0] - fd_score) / abs(fd_score)
            )
            _, sp, _ = partial_likelihood(TOY_X, TOY_T, TOY_E, [b0 + h], ties)
            _, sm, _ = partial_likelihood(TOY_X, TOY_T, TOY_E, [b0 - h], ties)
            fd_hess = (sp[0] - sm[0]) / (2 * h)
            worst_hess = max(worst_hess, abs(hess[0, 0] - fd_hess) / abs(fd_hess))
    ok = worst_grid <= 1e-3 and worst_score <= 1e-6 and worst_hess <= 1e-4
    report(
        2,
        "cox likelihood oracle",
        ok,
        f"grid={worst_grid:.2e} score={worst_score:.2e} hess={worst_hess:.2e}",
    )
    assert worst_grid <= 1e-3
    assert worst_score <= 1e-6
    assert worst_hess <= 1e-4


def test_ac03_concordance_equals_pair_enumeration():
    """200 random small instances with censoring and ties: counts and
    index equal the exhaustive pair loop exactly."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 31))
        t = rng.integers(1, 8, n).astype(float)
        e = rng.random(n) < 0.6
        risk = np.round(rng.normal(size=n), 1)
        conc, disc, tied = oracle_concordance(risk, t, e)
        pairs = conc + disc + tied
        if pairs == 0:
            continue
        res = harrell_c(risk, t, e)
        assert (res.concordant, res.discordant, res.tied_risk) == (conc, disc, tied)
        assert res.comparable_pairs == pairs
        assert res.c_index == (conc + 0.5 * tied) / pairs
        checked += 1
    report(3, "concordance brute force", True, f"{checked} instances exact")


def test_ac04_time_auc_reduces_to_roc():
    """Uncensored data: time-dependent AUC equals plain empirical ROC
    AUC to 1e-12; a perfect marker scores 1.0 at every default
    horizon."""
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(10, 200))
        marker = rng.normal(size=n)
        t = rng.uniform(1.0, 1000.0, n)
        horizon = float(rng.uniform(50.0, 900.0))
        cases = t <= horizon
        if cases.all() or not cases.any():
            continue
        res = time_dependent_auc(marker, t, np.ones(n, dtype=bool), horizon)
        worst = max(worst, abs(res.auc - oracle_roc_auc(marker, cases)))
        checked += 1

    n = 500
    t = rng.uniform(1.0, 1000.0, n)
    perfect = -t
    horizon_ok = True
    for horizon in (91.0, 182.0, 365.0, 730.0):
        res = time_dependent_auc(perfect, t, np.ones(n, dtype=bool), horizon)
        horizon_ok = horizon_ok and res.auc == 1.0
    ok = worst <= 1e-12 and horizon_ok
    report(4, "time-dependent AUC", ok, f"max_diff={worst:.2e} perfect={horizon_ok}")
    assert worst <= 1e-12
    assert horizon_ok


def test_ac05_km_tracks_closed_form():
    """n=5000 exponential without censoring: KM within 3 Greenwood SE
    of exp(-t/365) at the theoretical deciles; reverse-KM of a cohort
    fully censored at T returns T exactly."""
    rng = np.random.default_rng(2025)
    scale = 365.0
    t = rng.exponential(scale, 5000)
    curve = kaplan_meier(t, np.ones(5000, dtype=bool))
    worst_z = 0.0
    for q in np.arange(0.1, 0.91, 0.1):
        tq = -np.log(1.0 - q) * scale
        idx = int(np.searchsorted(curve.times, tq, side="right")) - 1
        assert idx >= 0
        s_hat = curve.survival[idx]
        se = float(np.sqrt(curve.variance[idx]))
        worst_z = max(worst_z, abs(s_hat - np.exp(-tq / scale)) / se)

    followup = reverse_km_median_followup(
        np.full(50, 730.0), np.zeros(50, dtype=bool)
    )
    ok = worst_z <= 3.0 and followup == 730.0
    report(5, "KM closed form", ok, f"worst_z={worst_z:.2f} followup={followup}")
    assert worst_z <= 3.0, f"KM deviated {worst_z:.2f} SE from exp(-t/365)"
    assert followup == 730.0


def test_ac06_quartile_hazard_gradient():
    """Hazard rising with a scaled score at log-HR 1.2 per unit: the
    fixed-cut quartile fit gives strictly increasing hazard ratios and
    a top-quartile HR above 3."""
    rng = np.random.default_rng(0)
    n = 8000
    score = rng.beta(0.05, 0.05, n)
    t = rng.exponential(1.0 / (0.002 * np.exp(1.2 * score)))
    e = np.ones(n, dtype=bool)

    assignment = stratify(score, "risk_quartiles")
    labels = np.array(assignment.labels)
    reference = assignment.order[0]
    upper = assignment.order[1:]
    matrix = np.column_stack([(labels == band).astype(float) for band in upper])
    design = DesignMatrix(
        names=tuple(upper),
        matrix=matrix,
        included=np.ones(n, dtype=bool),
    )
    fit = fit_cox(design, t, e)
    hrs = [float(h) for h in fit.hr]

    increasing = all(a < b for a, b in zip(hrs, hrs[1:]))
    ok = increasing and hrs[-1] > 3.0
    report(
        6,
        "quartile gradient",
        ok,
        "vs " + reference + ": " + ", ".join(f"{h:.2f}" for h in hrs),
    )
    assert increasing, f"HRs not monotone: {hrs}"
    assert hrs[-1] > 3.0, f"top quartile HR {hrs[-1]:.2f}"


def test_ac07_trainer_efficacy():
    """Default-config trainer on linear-risk embeddings: held-out
    C >= 0.90; permuted labels stay at chance; analytic gradient
    matches finite differences to 1e-5 relative; identical seeds give
    bit-identical models."""
    X, t, e = linear_risk_data(17)
    val_c = train_risk_model(X, t, e, TrainConfig(seed=0)).trace[-1].val_c

    Xp, tp, ep = linear_risk_data(19)
    shuffled = np.random.default_rng(0).permutation(tp)
    perm_c = train_risk_model(Xp, shuffled, ep, TrainConfig(seed=0)).trace[-1].val_c

    rng = np.random.default_rng(3)
    risks = rng.normal(size=8)
    pt = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
    pe = np.array([1, 1, 0, 1, 1, 0, 1, 1], dtype=bool)
    analytic = pairwise_rank_loss(risks, pt, pe, 1e-4, "logistic").grad
    worst_fd = 0.0
    h = 1e-6
    for i in range(8):
        up, down = risks.copy(), risks.copy()
        up[i] += h
        down[i] -= h
        fd = (
            pairwise_rank_loss(up, pt, pe, 1e-4, "logistic").loss
            - pairwise_rank_loss(down, pt, pe, 1e-4, "logistic").loss
        ) / (2 * h)
        worst_fd = max(worst_fd, abs(analytic[i] - fd) / max(abs(fd), 1e-12))

    Xr, tr, er = linear_risk_data(23, n=300)
    a = train_risk_model(Xr, tr, er, TrainConfig(seed=5, epochs=3))
    b = train_risk_model(Xr, tr, er, TrainConfig(seed=5, epochs=3))
    bitwise = np.array_equal(a.model.params["w"], b.model.params["w"]) and (
        a.model.params["b"][0] == b.model.params["b"][0]
    )

    ok = val_c >= 0.90 and abs(perm_c - 0.5) <= 0.05 and worst_fd <= 1e-5 and bitwise
    report(
        7,
        "trainer efficacy",
        ok,
        f"val_c={val_c:.3f} perm_c={perm_c:.3f} fd={worst_fd:.2e} bitwise={bitwise}",
    )
    assert val_c >= 0.90, f"val C {val_c:.3f}"
    assert abs(perm_c - 0.5) <= 0.05, f"permuted C {perm_c:.3f}"
    assert worst_fd <= 1e-5
    assert bitwise


def test_ac08_informed_beats_blinded():
    """Same cohort, same config: training on embeddings with the risk
    dimension zeroed loses >= 0.05 held-out C against the informed
    run."""
    rng = np.random.default_rng(99)
    X = rng.normal(size=(2000, 16))
    eta = 1.5 * X[:, 0]
    t = np.ceil(rng.exponential(1.0 / (0.002 * np.exp(eta))))
    e = np.ones(2000, dtype=bool)

    informed = train_risk_model(X, t, e, TrainConfig(seed=0)).trace[-1].val_c
    blinded_X = X.copy()
    blinded_X[:, 0] = 0.0
    blinded = train_risk_model(blinded_X, t, e, TrainConfig(seed=0)).trace[-1].val_c

    gap = informed - blinded
    ok = gap >= 0.05
    report(
        8,
        "informed vs blinded",
        ok,
        f"informed={informed:.3f} blinded={blinded:.3f} gap={gap:.3f}",
    )
    assert gap >= 0.05, f"gap only {gap:.3f}"


def test_ac09_combined_model_wins_aic():
    """Two independent risk signals, each true log-HR 0.7: the
    two-covariate Cox model has the strictly lowest AIC in at least
    19 of 20 seeds."""
    wins = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 800
        s1 = rng.normal(size=n)
        s2 = rng.normal(size=n)
        t = rng.exponential(1.0 / (0.002 * np.exp(0.7 * s1 + 0.7 * s2)))
        e = np.ones(n, dtype=bool)

        fits = [
            fit_cox(single_column_design("s1", s1), t, e),
            fit_cox(single_column_design("s2", s2), t, e),
            fit_cox(
                DesignMatrix(
                    names=("s1", "s2"),
                    matrix=np.column_stack([s1, s2]),
                    included=np.ones(n, dtype=bool),
                ),
                t,
                e,
            ),
        ]
        entries = compare_aic(fits, labels=["s1", "s2", "both"])
        aic = {entry.label: entry.aic for entry in entries}
        if aic["both"] < aic["s1"] and aic["both"] < aic["s2"]:
            wins += 1
    ok = wins >= 19
    report(9, "AIC complementarity", ok, f"combined lowest in {wins}/20")
    assert wins >= 19, f"combined model won only {wins}/20"


def test_ac10_balancing_counts_and_factors():
    """Bin balancer emits exactly 200 indices per occupied 5-year bin;
    the factor table reproduces its anchor values."""
    ages = np.random.default_rng(4).uniform(20.0, 90.0, 2000)
    idx = balance_bins(ages, target=200)
    occupied = np.unique(np.floor(ages / 5.0).astype(int))
    out_bins = np.floor(ages[idx] / 5.0).astype(int)
    counts = {int(b): int(np.sum(out_bins == b)) for b in occupied}
    counts_ok = set(np.unique(out_bins)) == set(occupied.tolist()) and all(
        v == 200 for v in counts.values()
    )
    anchors = (factor_for_age(30), factor_for_age(52), factor_for_age(100))
    anchors_ok = anchors == (1, 2, 20)
    ok = counts_ok and anchors_ok
    report(
        10,
        "balancing",
        ok,
        f"bins={len(counts)} all_200={counts_ok} anchors={anchors}",
    )
    assert counts_ok, f"per-bin counts: {sorted(set(counts.values()))}"
    assert anchors_ok, f"anchors {anchors}"


def test_ac11_independent_embeddings_near_zero_cosine():
    """Independent Gaussian 768-dim embedding pairs: median cosine
    similarity within 0.05 of zero."""
    rng = substream(11, "acceptance/cosine")
    a = rng.standard_normal((1000, 768))
    b = rng.standard_normal((1000, 768))
    sims, median = cosine_similarity_profile(a, b)
    ok = abs(median) <= 0.05 and sims.shape == (1000,)
    report(11, "cosine independence", ok, f"median={median:+.4f}")
    assert abs(median) <= 0.05, f"median {median:+.4f}"


def test_ac12_geometry_invariants(tmp_path):
    """Subdivision: 4T triangles, V+E vertices, areas preserved (each
    child exactly a quarter of its parent on lattice coordinates).
    Constant attention stays constant, OBJ export -> load -> export is
    byte-identical, and upsampling reproduces grid values at nodes."""
    vertices = np.array(
        [[8.0, 8.0, 0.0], [96.0, 16.0, 4.0], [88.0, 96.0, 0.0],
         [16.0, 88.0, 6.0], [48.0, 48.0, 24.0]]
    )
    triangles = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    mesh = FaceMesh(vertices, triangles, vertices[:, :2])

    sub = subdivide_once(mesh)
    edges = {
        frozenset((int(a), int(b)))
        for tri in triangles
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
    }
    counts_ok = (
        sub.n_triangles == 4 * mesh.n_triangles
        and sub.n_vertices == mesh.n_vertices + len(edges)
    )
    parent_areas = triangle_areas(mesh)
    child_areas = triangle_areas(sub)
    area_ok = np.array_equal(
        np.sort(child_areas), np.sort(np.repeat(parent_areas / 4.0, 4))
    )

    flat = triangle_attention(mesh, np.full((112, 112), 2.5))
    constant_ok = np.all(flat == 2.5)

    scores = np.array([0.1, 0.4, 0.9, 0.2])
    payload = export_obj(mesh, scores)
    (tmp_path / "attention.obj").write_bytes(payload)
    loaded_verts, loaded_tris = load_obj(tmp_path / "attention.obj")
    remesh = FaceMesh(loaded_verts, loaded_tris, loaded_verts[:, :2])
    roundtrip_ok = export_obj(remesh, scores) == payload

    grid = np.random.default_rng(12).random((7, 7))
    up = upsample_bilinear(grid, out_size=63)
    node_ok = np.array_equal(up[4::9, 4::9], grid)
    xs = 16.0 * np.arange(7) + 8.0
    sampled = bilinear_sample(grid, xs[None, :], xs[:, None], frame=112.0)
    node_ok = node_ok and np.array_equal(sampled, grid)

    ok = counts_ok and area_ok and constant_ok and roundtrip_ok and node_ok
    report(
        12,
        "geometry",
        ok,
        f"counts={counts_ok} area={area_ok} const={constant_ok} "
        f"obj={roundtrip_ok} nodes={node_ok}",
    )
    assert counts_ok
    assert area_ok
    assert constant_ok
    assert roundtrip_ok
    assert node_ok


def test_ac13_rank_tests_match_enumeration():
    """Exact signed-rank p equals full sign-flip enumeration for
    n <= 10; exact rank-sum p equals the permutation distribution for
    n_a + n_b <= 10."""
    rng = np.random.default_rng(13)
    worst = 0.0
    checked_sr = 0
    while checked_sr < 60:
        n = int(rng.integers(3, 11))
        diffs = rng.integers(-9, 10, n).astype(float) / 2.0
        if np.all(diffs == 0):
            continue
        res = wilcoxon_signed_rank(diffs)
        assert res.method == "exact"
        worst = max(worst, abs(res.p_value - oracle_signed_rank_p(diffs)))
        checked_sr += 1

    checked_rs = 0
    while checked_rs < 60:
        n_a = int(rng.integers(1, 9))
        n_b = int(rng.integers(1, 11 - n_a))
        pooled = rng.permutation(20)[: n_a + n_b].astype(float)  # tie-free
        a, b = pooled[:n_a], pooled[n_a:]
        res = wilcoxon_rank_sum(a, b)
        assert res.method == "exact"
        worst = max(worst, abs(res.p_value - oracle_rank_sum_p(a, b)))
        checked_rs += 1

    ok = worst <= 1e-12
    report(13, "exact rank tests", ok, f"max_p_diff={worst:.2e}")
    assert worst <= 1e-12


def test_ac14_cli_pipeline_reproducible(tmp_path):
    """simulate -> train -> metrics -> cox -> km completes in under
    60 s; rerunning every stage against the same inputs reproduces all
    output files byte for byte, and each manifest's recorded input
    hashes match the files on disk."""

    def run(*argv):
        return cli_main([str(a) for a in argv])

    def stage_dirs(tag):
        sim = tmp_path / tag / "sim"
        return {
            "sim": sim,
            "cohort": sim / "cohort.csv",
            "train": tmp_path / tag / "train",
            "metrics": tmp_path / tag / "metrics",
            "cox": tmp_path / tag / "cox",
            "km": tmp_path / tag / "km",
        }

    def run_downstream(d, cohort):
        assert run(
            "train", "--cohort", cohort, "--out", d["train"],
            "--seed", 4, "--epochs", 2,
        ) == 0
        assert run(
            "metrics", "--cohort", cohort, "--out", d["metrics"],
            "--marker", "fad",
        ) == 0
        assert run(
            "cox", "--cohort", cohort, "--out", d["cox"],
            "--biomarker", "fad:per:10",
        ) == 0
        assert run(
            "km", "--cohort", cohort, "--out", d["km"],
            "--group-by", "fad_ge5",
        ) == 0

    def tree_bytes(root):
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    simulate_argv = (
        "simulate", "--seed", 5, "--n", 400,
        "--beta", "0.08", "--covariates", "fad:normal:0:6",
        "--censor", "uniform:1500",
        "--embedding-dim", 8, "--embedding-weights", "1,-1,1,-1,1,-1,1,-1",
    )

    t0 = time.perf_counter()
    first = stage_dirs("run1")
    assert run(*simulate_argv, "--out", first["sim"]) == 0
    run_downstream(first, first["cohort"])
    elapsed = time.perf_counter() - t0

    # Rerun against the SAME simulated inputs into fresh directories;
    # the simulate stage itself is rerun separately.
    second = stage_dirs("run2")
    assert run(*simulate_argv, "--out", second["sim"]) == 0
    run_downstream(second, first["cohort"])

    sim_ok = tree_bytes(first["sim"]) == tree_bytes(second["sim"])
    stages_ok = all(
        tree_bytes(first[name]) == tree_bytes(second[name])
        for name in ("train", "metrics", "cox", "km")
    )

    cohort_sha = hashlib.sha256(first["cohort"].read_bytes()).hexdigest()
    manifests_ok = True
    for name in ("train", "metrics", "cox", "km"):
        with open(first[name] / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifests_ok = manifests_ok and list(manifest["inputs"].values()) == [
            cohort_sha
        ]

    ok = elapsed < 60.0 and sim_ok and stages_ok and manifests_ok
    report(
        14,
        "CLI pipeline",
        ok,
        f"elapsed={elapsed:.1f}s sim={sim_ok} stages={stages_ok} "
        f"manifests={manifests_ok}",
    )
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    assert sim_ok
    assert stages_ok
    assert manifests_ok
