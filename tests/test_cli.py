"""End-to-end command runs through main(), checking files, manifests,
reproducibility, and exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from visage.cli import _table, _write_outputs, main
from visage.metrics import harrell_c
from tests.conftest import run_child


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def sim_cohort(tmp_path):
    """Cohort with a real FAD effect, moderate censoring, and sex noise."""
    out = tmp_path / "sim"
    rc = run(
        "simulate", "--out", out, "--seed", 3, "--n", 400,
        "--beta", "0.08",
        "--covariates", "fad:normal:0:6",
        "--censor", "uniform:1500",
    )
    assert rc == 0
    return out / "cohort.csv"


class TestSimulate:
    def test_repeat_identical_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = run(
                "simulate", "--out", out, "--seed", 11, "--n", 120,
                "--beta", "0.7", "--covariates", "sex:bernoulli:0.5",
                "--censor", "uniform:1200",
            )
            assert rc == 0
        for name in ("cohort.csv", "truth.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--seed", 5, "--n", 30) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["tool"] == "visage"
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == 5
        assert manifest["parameters"]["n"] == 30
        assert manifest["outputs"] == ["cohort.csv", "truth.json"]
        assert manifest["inputs"] == {}

    def test_truth_sidecar_readable(self, tmp_path):
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--n", 25, "--censor", "admin:500") == 0
        truth = read_json(out / "truth.json")
        assert truth["n"] == 25
        assert truth["censor_model"] == ["admin", 500.0]


class TestKm:
    def test_single_stratum_note(self, tmp_path, sim_cohort):
        out = tmp_path / "km"
        assert run("km", "--cohort", sim_cohort, "--out", out) == 0
        results = read_json(out / "results.json")
        assert results["log_rank"] is None
        assert "single stratum" in results["log_rank_note"]
        assert (out / "km_all.csv").exists()
        assert set(results["strata"]["all"]["estimates"]) == {"913", "1826"}

    def test_fad_split_two_curves_significant(self, tmp_path, sim_cohort):
        out = tmp_path / "km"
        assert run(
            "km", "--cohort", sim_cohort, "--out", out, "--group-by", "fad_ge5"
        ) == 0
        results = read_json(out / "results.json")
        assert results["scheme"] == "fad_ge5"
        assert set(results["strata"]) == {"≥5", "<5"}
        assert results["log_rank"]["p_value"] < 0.05
        assert (out / "km_ge5.csv").exists()
        assert (out / "km_lt5.csv").exists()
        assert (out / "strata.csv").exists()

    def test_median_followup_not_reached(self, tmp_path):
        """With every subject dead, the reverse-KM curve of censorings stays
        at 1: the median follow-up is reported as missing, with the reason."""
        cohort = tmp_path / "c.csv"
        rows = [f"p{i},{10 * (i + 1)},1,60" for i in range(8)]
        cohort.write_text("id,time,event,chrono_age\n" + "\n".join(rows) + "\n")
        out = tmp_path / "km"
        assert run("km", "--cohort", cohort, "--out", out) == 0
        results = read_json(out / "results.json")
        assert results["median_followup_days"] is None
        assert "never reaches 0.5" in results["median_followup_note"]

    def test_custom_horizons(self, tmp_path, sim_cohort):
        out = tmp_path / "km"
        assert run(
            "km", "--cohort", sim_cohort, "--out", out, "--horizons", "100,200"
        ) == 0
        results = read_json(out / "results.json")
        assert set(results["strata"]["all"]["estimates"]) == {"100", "200"}

    def test_strata_csv_lines(self, tmp_path):
        cohort = tmp_path / "c.csv"
        cohort.write_text(
            "id,time,event,chrono_age,risk_scaled\n"
            "a,100,1,60,0.2\nb,200,0,61,0.8\nc,300,1,62,0.3\nd,400,1,63,0.9\n"
        )
        out = tmp_path / "km"
        assert run("km", "--cohort", cohort, "--out", out, "--group-by", "risk_half") == 0
        lines = (out / "strata.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,scheme,label"
        assert lines[1] == "a,risk_half,<0.5"
        assert lines[2] == "b,risk_half,≥0.5"


class TestMetrics:
    def make_cohort(self, path, risks, times=None, predicted=None):
        n = len(risks)
        times = times or [10 * (i + 1) for i in range(n)]
        header = "id,time,event,chrono_age,predicted_age,risk_scaled"
        rows = []
        for i in range(n):
            pred = "" if predicted is None else predicted[i]
            rows.append(f"p{i},{times[i]},1,60,{pred},{risks[i]}")
        path.write_text(header + "\n" + "\n".join(rows) + "\n")

    def test_perfect_marker(self, tmp_path):
        cohort = tmp_path / "c.csv"
        n = 40
        times = [25 * (i + 1) for i in range(n)]  # spans all four horizons
        risks = [1.0 - i / (n - 1) for i in range(n)]  # shorter time, higher risk
        self.make_cohort(cohort, risks, times)
        out = tmp_path / "m"
        assert run("metrics", "--cohort", cohort, "--out", out) == 0
        results = read_json(out / "metrics.json")
        assert results["c_index"]["value"] == 1.0
        assert set(results["auc"]) == {"91", "182", "365", "730"}
        for horizon, entry in results["auc"].items():
            assert entry["value"] == 1.0, horizon

    def test_constant_marker_chance_level(self, tmp_path):
        cohort = tmp_path / "c.csv"
        self.make_cohort(cohort, [0.5] * 20)
        out = tmp_path / "m"
        assert run("metrics", "--cohort", cohort, "--out", out) == 0
        results = read_json(out / "metrics.json")
        assert results["c_index"]["value"] == 0.5
        assert results["auc"]["91"]["value"] == 0.5

    def test_age_accuracy_block(self, tmp_path):
        cohort = tmp_path / "c.csv"
        self.make_cohort(
            cohort, [0.1, 0.9, 0.4], predicted=[63.0, 58.0, 60.0]
        )
        out = tmp_path / "m"
        assert run("metrics", "--cohort", cohort, "--out", out) == 0
        results = read_json(out / "metrics.json")
        acc = results["age_accuracy"]
        np.testing.assert_allclose(acc["mae"], (3 + 2 + 0) / 3)
        np.testing.assert_allclose(acc["me"], (3 - 2 + 0) / 3)


    def test_risk_falls_back_to_scaled_raw_score(self, tmp_path):
        """A risk_scaled column with gaps is not used: the raw ``risk`` column
        is min-max scaled over the subjects that have it, and the rest are
        excluded."""
        times = [30, 60, 90, 120, 150, 200, 250, 300, 400, 500]
        raw = [9.0, 7.5, "", 8.0, 3.0, 4.5, "", 2.0, 1.0, 2.5]
        scaled = [0.9, "", 0.1, 0.5, 0.2, "", 0.3, 0.1, 0.0, 0.2]
        cohort = tmp_path / "c.csv"
        cohort.write_text("id,time,event,chrono_age,risk,risk_scaled\n" + "".join(
            f"p{i},{t},{i % 3 != 2:d},60,{r},{sc}\n"
            for i, (t, r, sc) in enumerate(zip(times, raw, scaled))
        ))
        out = tmp_path / "m"
        assert run("metrics", "--cohort", cohort, "--out", out, "--horizons", "100") == 0
        results = read_json(out / "metrics.json")
        has = np.array([r != "" for r in raw])
        values = np.array([r for r in raw if r != ""])
        expected = harrell_c(
            (values - 1.0) / 8.0,
            np.array(times, dtype=float)[has],
            np.array([i % 3 != 2 for i in range(10)])[has],
        )
        assert results["n_used"] == 8
        assert results["excluded_missing_marker"] == 2
        assert results["c_index"]["value"] == expected.c_index
        assert results["c_index"]["comparable_pairs"] == expected.comparable_pairs

    @pytest.mark.parametrize("marker", ["chrono_age", "predicted_age"])
    def test_age_markers(self, tmp_path, marker):
        """An age column is the marker as it stands; subjects without a
        predicted age are excluded, and only the chrono_age marker drops
        the age-accuracy block."""
        times = [30, 60, 90, 120, 150, 200, 250, 300]
        chrono = [80, 71, 77, 60, 66, 52, 58, 45]
        predicted = [83, 70, "", 64, 61, 55, 57, ""]
        cohort = tmp_path / "c.csv"
        cohort.write_text("id,time,event,chrono_age,predicted_age\n" + "".join(
            f"p{i},{t},{int(i != 3)},{c},{pr}\n"
            for i, (t, c, pr) in enumerate(zip(times, chrono, predicted))
        ))
        out = tmp_path / "m"
        assert run("metrics", "--cohort", cohort, "--out", out, "--marker", marker,
                   "--horizons", "100") == 0
        results = read_json(out / "metrics.json")
        column = np.array(chrono if marker == "chrono_age" else predicted, dtype=object)
        has = column != ""
        expected = harrell_c(
            column[has].astype(float),
            np.array(times, dtype=float)[has],
            np.array([i != 3 for i in range(8)])[has],
        )
        assert results["n_used"] == int(has.sum())
        assert results["c_index"]["value"] == expected.c_index
        assert ("age_accuracy" in results) == (marker == "predicted_age")


class TestCox:
    def test_text_levels_quoted_in_table(self, tmp_path):
        """Category levels holding a comma or a quote are quoted in
        table.csv, so csv.reader reads 8 fields on every row."""
        rng = np.random.default_rng(17)
        sites = ["breast", "head, neck", 'lung "nsclc"']
        cohort = tmp_path / "c.csv"
        with open(cohort, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "time", "event", "chrono_age", "cancer_site"])
            for i in range(90):
                writer.writerow([
                    f"p{i}", int(rng.integers(1, 2000)), int(rng.random() < 0.7),
                    round(float(rng.normal(60, 10)), 1), sites[i % 3],
                ])
        out = tmp_path / "cox"
        assert run(
            "cox", "--cohort", cohort, "--out", out,
            "--biomarker", "chrono_age:per:10", "--adjusters", "cancer_site:cat:breast",
        ) == 0
        with open(out / "table.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["model", "covariate", "hr", "ci_low", "ci_high", "p", "beta", "se"]
        assert {len(row) for row in rows} == {8}
        report = read_json(out / "fit.json")
        names = [
            c["name"] for model in ("univariate", "adjusted") for c in report[model]["covariates"]
        ]
        assert [row[1] for row in rows] == names
        assert 'cancer_site=head, neck' in names

    def test_empty_adjusters_tables_match(self, tmp_path, sim_cohort):
        out = tmp_path / "cox"
        assert run(
            "cox", "--cohort", sim_cohort, "--out", out, "--biomarker", "fad:per:10"
        ) == 0
        lines = (out / "table.csv").read_text().splitlines()
        uni = [l.split(",", 1)[1] for l in lines if l.startswith("univariate,")]
        adj = [l.split(",", 1)[1] for l in lines if l.startswith("adjusted,")]
        assert uni == adj  # same covariate row, model column aside

    def test_screen_drops_noise_keeps_signal(self, tmp_path):
        sim = tmp_path / "sim"
        rc = run(
            "simulate", "--out", sim, "--seed", 9, "--n", 500,
            "--beta", "0.06,0.9,0.0",
            "--covariates",
            "fad:normal:0:6;sex:bernoulli:0.5;chrono_age:uniform:40:80",
            "--censor", "uniform:1500",
        )
        assert rc == 0
        out = tmp_path / "cox"
        assert run(
            "cox", "--cohort", sim / "cohort.csv", "--out", out,
            "--biomarker", "fad:per:10",
            "--adjusters", "sex:cat:female,chrono_age:per:10",
            "--screen",
        ) == 0
        report = read_json(out / "fit.json")
        by_name = {e["covariate"]: e for e in report["screen"]}
        assert by_name["sex"]["retained"] is True
        assert by_name["chrono_age_per_10"]["retained"] is False
        adjusted_names = [r["name"] for r in report["adjusted"]["covariates"]]
        assert adjusted_names == ["fad_per_10", "sex=male"]

    def test_adjusted_keeps_both_signals(self, tmp_path):
        sim = tmp_path / "sim"
        rc = run(
            "simulate", "--out", sim, "--seed", 13, "--n", 600,
            "--beta", "0.07,0.8",
            "--covariates", "fad:normal:0:6;sex:bernoulli:0.5",
            "--censor", "uniform:1500",
        )
        assert rc == 0
        out = tmp_path / "cox"
        assert run(
            "cox", "--cohort", sim / "cohort.csv", "--out", out,
            "--biomarker", "fad:per:10", "--adjusters", "sex:cat:female",
        ) == 0
        report = read_json(out / "fit.json")
        rows = {r["name"]: r for r in report["adjusted"]["covariates"]}
        assert rows["fad_per_10"]["p"] < 0.05
        assert rows["sex=male"]["p"] < 0.05

    def test_separation_exits_one_with_outputs(self, tmp_path, capsys):
        cohort = tmp_path / "c.csv"
        cohort.write_text(
            "id,time,event,chrono_age,risk_scaled\n"
            + "\n".join(
                f"p{i},{t},{e},60,{x}"
                for i, (t, e, x) in enumerate(
                    [
                        (1, 1, 0.1), (2, 1, 0.1), (3, 1, 0.1),
                        (10, 0, 0.0), (11, 0, 0.0), (12, 0, 0.0),
                    ]
                )
            )
            + "\n"
        )
        out = tmp_path / "cox"
        rc = run(
            "cox", "--cohort", cohort, "--out", out, "--biomarker", "risk_scaled"
        )
        assert rc == 1
        report = read_json(out / "fit.json")  # outputs written before exiting
        assert "separation" in report["univariate"]["flags"]
        assert "converge" in capsys.readouterr().err


    def test_wide_scale_separation_exits_one_with_finite_fit(self, tmp_path, capsys):
        """FAD separates the deaths on a 20-year spread, so exp of the linear
        predictor overflows before the coefficient bound: the fit stops at
        its last finite point and is flagged, with no NaN in fit.json."""
        fad = [-11.5, -1.8, -5.8, -11.9, -3.7, 8.8]
        rows = zip([5, 2, 4, 6, 3, 1], [1, 1, 0, 0, 0, 1], fad)
        cohort = tmp_path / "c.csv"
        cohort.write_text("id,time,event,chrono_age,predicted_age\n" + "".join(
            f"p{i},{t},{e},60,{60 + x!r}\n" for i, (t, e, x) in enumerate(rows)
        ))
        out = tmp_path / "cox"
        assert run("cox", "--cohort", cohort, "--out", out, "--biomarker", "fad") == 1
        report = read_json(out / "fit.json")
        for model in ("univariate", "adjusted"):
            fit = report[model]
            assert fit["flags"] == ["separation"]
            assert fit["converged"] is False
            row = fit["covariates"][0]
            for value in (row["beta"], row["hr"], row["se"], row["p"], fit["aic"]):
                assert np.isfinite(value)
        assert "converge" in capsys.readouterr().err


class TestTrain:
    @pytest.fixture()
    def embedded_cohort(self, tmp_path):
        sim = tmp_path / "sim"
        rc = run(
            "simulate", "--out", sim, "--seed", 21, "--n", 200,
            "--embedding-dim", 8,
            "--embedding-weights", "1,-1,1,-1,1,-1,1,-1",
        )
        assert rc == 0
        return sim / "cohort.csv"

    def test_seed_repeat_identical_model_bytes(self, tmp_path, embedded_cohort):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            rc = run(
                "train", "--cohort", embedded_cohort, "--out", out,
                "--seed", 4, "--epochs", 2,
            )
            assert rc == 0
            outs.append(out)
        a, b = outs
        assert (a / "model.bin").read_bytes() == (b / "model.bin").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (
            a / "checkpoints/epoch_001.bin"
        ).read_bytes() == (b / "checkpoints/epoch_001.bin").read_bytes()

    def test_epochs_zero_empty_trace(self, tmp_path, embedded_cohort):
        out = tmp_path / "t0"
        rc = run(
            "train", "--cohort", embedded_cohort, "--out", out,
            "--seed", 4, "--epochs", 0,
        )
        assert rc == 0
        assert (out / "model.bin").exists()
        assert (out / "trace.csv").read_text() == "epoch,train_loss,val_loss,train_c,val_c\n"
        summary = read_json(out / "summary.json")
        assert summary["final"] is None
        assert not (out / "checkpoints").exists()

    def test_age_target_trace(self, tmp_path, embedded_cohort):
        out = tmp_path / "ta"
        rc = run(
            "train", "--cohort", embedded_cohort, "--out", out,
            "--target", "age", "--epochs", 2,
        )
        assert rc == 0
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header == "epoch,train_mae,val_mae"

    def test_cohort_without_embeddings_exits_2(self, tmp_path, sim_cohort, capsys):
        out = tmp_path / "tn"
        assert run("train", "--cohort", sim_cohort, "--out", out) == 2
        assert "cohort has no embeddings" in capsys.readouterr().err
        assert not out.exists()


class TestBalance:
    def test_bin_counts_hit_target(self, tmp_path):
        sim = tmp_path / "sim"
        rc = run(
            "simulate", "--out", sim, "--seed", 31, "--n", 600,
            "--beta", "0.0",
            "--covariates", "chrono_age:uniform:40:80",
        )
        assert rc == 0
        out = tmp_path / "bal"
        assert run(
            "balance", "--cohort", sim / "cohort.csv", "--out", out,
            "--mode", "bins",
        ) == 0
        counts = read_json(out / "counts.json")
        assert counts["mode"] == "bins"
        assert all(v == 200 for v in counts["per_bin"].values())
        lines = (out / "indices.csv").read_text().splitlines()
        assert lines[0] == "index,id"
        assert len(lines) - 1 == counts["n_output"]


class TestAttention:
    @pytest.fixture()
    def geometry(self, tmp_path):
        mesh = tmp_path / "mesh.obj"
        mesh.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 4\nf 2 3 4\n"
        )
        lm = tmp_path / "landmarks.csv"
        lm.write_text("0,10,10\n1,100,10\n2,100,100\n3,10,100\n")
        return mesh, lm

    def test_constant_grid_uniform_output(self, tmp_path, geometry):
        mesh, lm = geometry
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(["0.3"] * 7) for _ in range(7)) + "\n")
        out = tmp_path / "att"
        rc = run(
            "attention", "--out", out, "--grid", grid,
            "--mesh", mesh, "--landmarks", lm,
        )
        assert rc == 0
        scores = (out / "triangle_scores.csv").read_text().splitlines()[1:]
        assert len(scores) == 8  # 2 triangles, one subdivision by default
        values = [float(line.split(",")[1]) for line in scores]
        np.testing.assert_allclose(values, 0.3, rtol=1e-12)
        assert len(set(values)) == 1  # identical, not merely close
        v_lines = [
            l for l in (out / "attention.obj").read_text().splitlines()
            if l.startswith("v ")
        ]
        colors = {tuple(l.split()[4:7]) for l in v_lines}
        assert len(colors) == 1

    def test_three_grids_score_their_mean(self, tmp_path, geometry):
        """Two 7x7 grids and one 112x112 grid: the scores equal the mean
        of the single-grid runs, and the manifest counts three images."""
        mesh, lm = geometry
        rng = np.random.default_rng(43)
        grids = []
        for g, size in enumerate((7, 7, 112)):
            path = tmp_path / f"grid{g}.csv"
            np.savetxt(path, rng.random((size, size)), delimiter=",", fmt="%.17g")
            grids.append(path)

        def scores(out, grid_arg):
            rc = run(
                "attention", "--out", out, "--grid", grid_arg,
                "--mesh", mesh, "--landmarks", lm, "--subdivide", 2,
            )
            assert rc == 0
            rows = (out / "triangle_scores.csv").read_text().splitlines()[1:]
            return np.array([float(line.split(",")[1]) for line in rows])

        single = [scores(tmp_path / f"one{g}", path) for g, path in enumerate(grids)]
        combined = scores(tmp_path / "all", ",".join(map(str, grids)))
        np.testing.assert_allclose(combined, np.mean(single, axis=0), rtol=0, atol=1e-12)
        assert read_json(tmp_path / "all" / "manifest.json")["parameters"]["images"] == 3

    def test_subdivide_zero_respected(self, tmp_path, geometry):
        mesh, lm = geometry
        grid = tmp_path / "grid.csv"
        grid.write_text("\n".join(",".join(["0.1"] * 7) for _ in range(7)) + "\n")
        out = tmp_path / "att"
        rc = run(
            "attention", "--out", out, "--grid", grid,
            "--mesh", mesh, "--landmarks", lm, "--subdivide", 0,
        )
        assert rc == 0
        scores = (out / "triangle_scores.csv").read_text().splitlines()[1:]
        assert len(scores) == 2
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["subdivide"] == 0
        assert manifest["parameters"]["triangles"] == 2


class TestErrorHandling:
    def test_missing_cohort_exits_two_no_outputs(self, tmp_path, capsys):
        out = tmp_path / "km"
        rc = run("km", "--cohort", tmp_path / "missing.csv", "--out", out)
        assert rc == 2
        assert not out.exists()
        assert "not found" in capsys.readouterr().err

    def test_bad_covariate_spec_exits_two(self, tmp_path, sim_cohort):
        out = tmp_path / "cox"
        rc = run(
            "cox", "--cohort", sim_cohort, "--out", out,
            "--biomarker", "fad:nonsense:1",
        )
        assert rc == 2
        assert not out.exists()

    def test_non_object_schema_columns_exits_two(self, tmp_path, sim_cohort, capsys):
        schema = tmp_path / "schema.json"
        schema.write_text('{"columns": ["time"]}')
        out = tmp_path / "km"
        rc = run("km", "--cohort", sim_cohort, "--schema", schema, "--out", out)
        assert rc == 2
        assert not out.exists()
        assert "'columns'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra",
        [("km", ["--group-by", "risk_half"]), ("cox", ["--biomarker", "fad"]),
         ("metrics", []), ("balance", []), ("train", [])],
    )
    def test_repeated_id_exits_two_naming_it(self, tmp_path, capsys, command, extra):
        """A cohort file that lists a subject twice is refused by every
        command that loads it, before anything is written."""
        path = tmp_path / "cohort.csv"
        path.write_text(
            "id,time,event,chrono_age,predicted_age,risk,e0,e1\n"
            "a,100.0,1,60.0,62.0,0.1,0.5,0.25\n"
            "b,200.0,0,61.0,60.0,0.4,0.125,0.75\n"
            "a,300.0,1,62.0,66.0,0.6,1.5,0.5\n"
            "c,400.0,0,63.0,61.0,0.9,0.375,1.25\n"
        )
        out = tmp_path / "out"
        assert run(command, "--cohort", path, "--out", out, *extra) == 2
        assert not out.exists()
        assert "'a'" in capsys.readouterr().err

    def test_missing_grid_file_exits_two(self, tmp_path):
        mesh = tmp_path / "mesh.obj"
        mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
        lm = tmp_path / "lm.csv"
        lm.write_text("0,10,10\n1,50,10\n2,30,50\n")
        rc = run(
            "attention", "--out", tmp_path / "att",
            "--grid", tmp_path / "nope.csv", "--mesh", mesh, "--landmarks", lm,
        )
        assert rc == 2

    def test_empty_grid_entry_is_a_usage_error(self, tmp_path, capsys):
        """A trailing comma in --grid is refused naming the option, not
        looked up as a file with an empty name."""
        files = _attention_files(tmp_path)
        rc = run(
            "attention", "--out", tmp_path / "att", "--grid", f"{files['grid']},",
            "--mesh", files["mesh"], "--landmarks", files["landmarks"],
        )
        assert rc == 2
        assert not (tmp_path / "att").exists()
        err = capsys.readouterr().err
        assert "argument --grid: empty grid path" in err
        assert "input file not found" not in err


class TestConfigMerge:
    def test_config_overrides_defaults(self, tmp_path, sim_cohort):
        config = tmp_path / "cfg.json"
        config.write_text('{"metrics": {"horizons": "91"}}')
        out = tmp_path / "m"
        rc = run(
            "metrics", "--cohort", sim_cohort, "--out", out,
            "--marker", "fad", "--config", config,
        )
        assert rc == 0
        results = read_json(out / "metrics.json")
        assert set(results["auc"]) == {"91"}

    def test_flag_overrides_config(self, tmp_path, sim_cohort):
        config = tmp_path / "cfg.json"
        config.write_text('{"metrics": {"horizons": "91"}}')
        out = tmp_path / "m"
        rc = run(
            "metrics", "--cohort", sim_cohort, "--out", out,
            "--marker", "fad", "--config", config, "--horizons", "365",
        )
        assert rc == 0
        results = read_json(out / "metrics.json")
        assert set(results["auc"]) == {"365"}

    def test_defaults_apply_without_config(self, tmp_path, sim_cohort):
        out = tmp_path / "m"
        rc = run("metrics", "--cohort", sim_cohort, "--out", out, "--marker", "fad")
        assert rc == 0
        results = read_json(out / "metrics.json")
        assert set(results["auc"]) == {"91", "182", "365", "730"}

    def test_config_seeds_simulate(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"simulate": {"n": 33}}')
        out = tmp_path / "sim"
        rc = run("simulate", "--out", out, "--config", config)
        assert rc == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["n"] == 33
        assert manifest["seed"] == 0  # unset seed falls back to 0


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "sim"
        proc = run_child("-m", "visage.cli", "simulate", "--out", str(out), "--n", "10")
        assert proc.returncode == 0, proc.stderr
        assert (out / "manifest.json").exists()

    def test_cli_import_loads_no_scipy(self):
        """scipy is a test-only dependency; start-up must not pay for it."""
        proc = run_child(
            "-c",
            "import sys, visage.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """A cohort every cohort command accepts: FAD, ages and an embedding."""
    out = tmp_path_factory.mktemp("small") / "sim"
    rc = run(
        "simulate", "--out", out, "--seed", 2, "--n", 80, "--beta", "0.05",
        "--covariates", "fad:normal:0:6", "--censor", "uniform:1500",
        "--embedding-dim", 2, "--embedding-weights", "0.5,-0.5",
    )
    assert rc == 0
    return out / "cohort.csv"


# cox flags that reach the univariate screen
_SCREEN = ["--biomarker", "fad:per:10", "--adjusters", "sex:cat:female", "--screen"]

# (command, flags, config section, what stderr must name)
MALFORMED = [
    ("train", ["--epochs", "1"], {"train": {"epochs": "x"}}, "epochs"),
    ("balance", [], {"balance": {"target": "x"}}, "target"),
    ("simulate", [], {"simulate": {"n": "x"}}, "--n"),
    ("km", [], {"km": {"horizons": [913]}}, "horizons"),
    ("simulate", ["--covariates", "sex:bernoulli:abc", "--beta", "0.1"], None, "--covariates"),
    ("simulate", ["--censor", "uniform:abc"], None, "--censor"),
    ("cox", ["--biomarker", "fad:per:abc"], None, "--biomarker"),
    ("metrics", ["--horizons", "91,abc"], None, "--horizons"),
    ("simulate", ["--beta", "0.1,x", "--covariates", "fad:normal:0:6;sex:bernoulli:0.5"],
     None, "--beta"),
    ("train", ["--hidden", "-3", "--epochs", "1"], None, "hidden"),
    ("attention", ["--subdivide", "-1"], None, "--subdivide"),
    # NaN compares false, so a bare `x <= 0` check lets it through.
    ("simulate", ["--baseline-hazard", "nan"], None, "baseline_hazard"),
    ("simulate", ["--beta", "nan", "--covariates", "fad:normal:0:6"], None, "beta_true"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:normal:0:nan"], None, "dist"),
    ("simulate", ["--censor", "uniform:nan"], None, "censor_model"),
    ("cox", ["--biomarker", "fad:per:nan"], None, "per"),
    ("train", ["--learning-rate", "nan", "--epochs", "1"], None, "learning_rate"),
    ("train", ["--weight-decay", "inf", "--epochs", "1"], None, "weight_decay"),
    ("cox", [*_SCREEN, "--alpha", "nan"], None, "alpha"),
    ("cox", [*_SCREEN, "--alpha", "7"], None, "alpha"),
    ("balance", ["--mode", "factors", "--bin-width", "0"], None, "--bin-width"),
    ("balance", ["--mode", "factors", "--bin-width", "-5"], None, "--bin-width"),
    ("balance", ["--mode", "factors", "--bin-width", "nan"], None, "--bin-width"),
    ("balance", ["--mode", "bins", "--bin-width", "nan"], None, "--bin-width"),
    # A simulated distribution's name, parameter count and range.
    ("simulate", ["--beta", "0.1", "--covariates", "fad:normal:0"], None, "fad"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:normal:0:-1"], None, "fad"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:beta:0:1"], None, "fad"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:uniform:5:1"], None, "fad"),
    ("simulate", ["--beta", "0.1", "--covariates", "sex:bernoulli:2"], None, "sex"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:normal:0:1:5"], None, "fad"),
    ("simulate", ["--beta", "0.1", "--covariates", "fad:gamma:1:2"], None, "fad"),
    ("simulate", ["--censor", "none:5"], None, "censor_model 'none'"),
    # --alpha is checked where it is parsed, with or without --screen.
    ("cox", ["--biomarker", "fad:per:10", "--alpha", "nan"], None, "--alpha"),
    ("cox", ["--biomarker", "fad:per:10", "--alpha", "7"], None, "--alpha"),
]


class TestMalformedOptions:
    """A bad option value, from a flag or from --config, exits 2 before
    anything is written, and the message names the option."""

    @pytest.mark.parametrize(
        "command,flags,config,named", MALFORMED,
        ids=[f"{m[0]}-{m[3].lstrip('-')}-{'config' if m[2] else 'flag'}" for m in MALFORMED],
    )
    def test_exits_two_naming_option(
        self, tmp_path, capsys, small_cohort, command, flags, config, named
    ):
        argv = [command, "--out", tmp_path / "out", *flags]
        if command == "attention":
            grid = tmp_path / "grid.csv"
            grid.write_text("\n".join(",".join(["0.1"] * 7) for _ in range(7)) + "\n")
            mesh = tmp_path / "mesh.obj"
            mesh.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
            lm = tmp_path / "lm.csv"
            lm.write_text("0,10,10\n1,50,10\n2,30,50\n")
            argv += ["--grid", grid, "--mesh", mesh, "--landmarks", lm]
        elif command != "simulate":
            argv += ["--cohort", small_cohort]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv += ["--config", path]
        assert run(*argv) == 2
        assert not (tmp_path / "out").exists()
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flags", [("km", []), ("metrics", ["--marker", "fad"])])
    def test_horizons_with_one_key_exit_two(self, tmp_path, capsys, small_cohort, command, flags):
        """Two horizons that print as the same ``:g`` key would share one
        entry of the results, the second overwriting the first."""
        out = tmp_path / "out"
        horizons = ["--horizons", "365,365.0000001"]
        assert run(command, "--cohort", small_cohort, "--out", out, *flags, *horizons) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--horizons" in err and "Traceback" not in err

    @pytest.mark.parametrize("command,key,value,flag,field", [
        ("metrics", "horizons", 91, "91", ("horizons", [91.0])),
        ("cox", "alpha", "0.1", "0.1", ("alpha", 0.1)),
    ])
    def test_config_value_reads_as_its_flag(
        self, tmp_path, small_cohort, command, key, value, flag, field
    ):
        """A JSON number for a list option and a JSON string for a number
        are read as the same text on the command line would be."""
        argv = [command, "--cohort", small_cohort]
        if command == "cox":
            argv += ["--biomarker", "fad:per:10", "--adjusters", "sex:cat:female", "--screen"]
        else:
            argv += ["--marker", "fad"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({command: {key: value}}))
        assert run(*argv, "--out", tmp_path / "c", "--config", config) == 0
        assert run(*argv, "--out", tmp_path / "f", f"--{key}", flag) == 0
        for name in sorted(os.listdir(tmp_path / "f")):
            if name != "manifest.json":
                assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "f" / name).read_bytes()
        name, expected = field
        assert read_json(tmp_path / "c" / "manifest.json")["parameters"][name] == expected


def _as_config(argv):
    """Split a pinned command into ``command --out DIR`` and a config
    section holding its other flags: whole numbers become JSON numbers,
    bare flags ``true``, and dashes in names underscores."""
    command, *rest = argv
    kept, section = [command], {}
    i = 0
    while i < len(rest):
        flag = rest[i]
        has_value = i + 1 < len(rest) and not rest[i + 1].startswith("--")
        value = rest[i + 1] if has_value else True
        i += 2 if has_value else 1
        if flag == "--out":
            kept += [flag, value]
        else:
            number = isinstance(value, str) and value.lstrip("-").isdigit()
            section[flag[2:].replace("-", "_")] = int(value) if number else value
    return kept, section


class TestConfigIsFlags:
    def test_pinned_commands_from_config(self, tmp_path):
        """Each pinned command with every flag but --out moved into a
        config section writes the pinned files, and its manifest records
        the flag run's parameters and seed."""
        from test_pinned_outputs import COMMANDS, PINS, _write_geometry, run_all

        (tmp_path / "flags").mkdir()
        run_all(tmp_path / "flags")
        root = tmp_path / "config"
        root.mkdir()
        _write_geometry(root)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for argv in COMMANDS:
                kept, section = _as_config(argv)
                config = root / "in" / f"{argv[0]}.json"
                config.write_text(json.dumps({argv[0]: section}))
                assert main([*kept, "--config", str(config)]) == 0, argv
        finally:
            os.chdir(cwd)
        for name, digest in PINS.items():
            if name.endswith("manifest.json"):
                by_config = read_json(root / name)
                by_flags = read_json(tmp_path / "flags" / name)
                assert by_config["parameters"] == by_flags["parameters"], name
                assert by_config["seed"] == by_flags["seed"], name
            else:
                data = (root / name).read_bytes()
                assert hashlib.sha256(data).hexdigest() == digest, name

    def test_typed_flag_beats_config_and_unknown_keys_ignored(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text('{"n": 50, "seed": 7, "colour": "red", "km": {"horizons": "1"}}')
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--config", config, "--n", 20) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["parameters"]["n"] == 20  # flag over config
        assert manifest["seed"] == 7  # config over default

    @pytest.mark.parametrize("in_config,flag,round_days", [
        (True, True, False),
        (False, True, False),
        (True, False, False),
        (False, False, True),
        (None, False, True),
    ])
    def test_store_true_in_both_places(self, tmp_path, in_config, flag, round_days):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"n": 10, "exact_times": in_config}}))
        out = tmp_path / "sim"
        flags = ["--exact-times"] if flag else []
        assert run("simulate", "--out", out, "--config", config, *flags) == 0
        assert read_json(out / "manifest.json")["parameters"]["round_days"] is round_days


class TestCohortOptions:
    """--cohort and --schema belong to the commands that load a cohort."""

    @pytest.mark.parametrize("command,option", [("simulate", "--cohort"), ("attention", "--schema")])
    def test_rejected_where_nothing_is_loaded(self, tmp_path, capsys, small_cohort, command,
                                              option):
        out = tmp_path / "out"
        assert run(command, "--out", out, option, small_cohort) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert option in err and "Traceback" not in err

    def test_config_cohort_key_ignored_by_simulate(self, tmp_path, small_cohort):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"cohort": str(small_cohort), "n": 5}}))
        out = tmp_path / "sim"
        assert run("simulate", "--out", out, "--config", config) == 0
        digest = hashlib.sha256(config.read_bytes()).hexdigest()
        assert read_json(out / "manifest.json")["inputs"] == {str(config): digest}


class TestEmbeddingOnlyForTrain:
    def test_only_train_builds_the_matrix(self, tmp_path, monkeypatch, small_cohort):
        """km, cox, metrics and balance load the cohort without its
        embedding matrix; train loads it with the matrix."""
        import visage.cohort as cohort_mod

        load_cohort, loads = cohort_mod.load_cohort, []

        def recording(*args, **kwargs):
            result = load_cohort(*args, **kwargs)
            loads.append((kwargs.get("with_embedding", True), result.cohort.embedding is not None))
            return result

        monkeypatch.setattr(cohort_mod, "load_cohort", recording)
        commands = {
            "km": [], "cox": ["--biomarker", "fad:per:10"], "metrics": ["--marker", "fad"],
            "balance": ["--target", "5"], "train": ["--epochs", "1"],
        }
        for command, flags in commands.items():
            assert run(command, "--cohort", small_cohort, "--out", tmp_path / command, *flags) == 0
        assert loads == [(False, False)] * 4 + [(True, True)]

    def test_km_drops_row_with_unparseable_embedding_cell(self, tmp_path, small_cohort):
        lines = small_cohort.read_text().splitlines(keepends=True)
        assert lines[0].rstrip().endswith(",e0,e1")
        lines[5] = lines[5].rsplit(",", 1)[0] + ",0.5x\n"
        path = tmp_path / "c.csv"
        path.write_text("".join(lines))
        assert run("km", "--cohort", path, "--out", tmp_path / "km") == 0
        assert read_json(tmp_path / "km" / "results.json")["dropped_rows"] == 1



def _attention_files(root: Path) -> dict:
    """A valid mesh, landmarks and 7 x 7 grid for ``attention``, by option."""
    files = {
        "grid": root / "grid.csv",
        "mesh": root / "mesh.obj",
        "landmarks": root / "landmarks.csv",
    }
    files["grid"].write_text("\n".join(",".join(["0.3"] * 7) for _ in range(7)) + "\n")
    files["mesh"].write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 4\nf 2 3 4\n")
    files["landmarks"].write_text("0,10,10\n1,100,10\n2,100,100\n3,10,100\n")
    return files


# (case, the option that names the unusable file, the file's bytes)
UNUSABLE_FILES = [
    ("cohort-latin1", "cohort",
     "id,time,event,chrono_age\nJosé,100,1,60\np2,200,0,70\n".encode("latin-1")),
    ("cohort-long-field", "cohort",
     ('id,time,event,chrono_age,technique\np1,100,1,60,"' + "x" * 140_000 + '"\n').encode()),
    ("schema-json", "schema", b'{"columns": {'),
    ("config-latin1", "config", '{"km": {"horizons": "91,365", "x": "é"}}'.encode("latin-1")),
    ("grid-cell", "grid", b"0.1,0.2\n0.3,abc\n"),
    ("grid-ragged", "grid", b"0.1,0.2\n0.3\n"),
    ("obj-vertex", "mesh", b"v 0 0 0\nv 1 x 0\nv 0 1 0\nf 1 2 3\n"),
    ("obj-face", "mesh", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 z\n"),
    ("obj-no-faces", "mesh", b"v 0 0 0\nv 1 0 0\nv 0 1 0\n"),
    ("obj-dangling-face", "mesh", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n"),
    ("landmark", "landmarks", b"0,10,10\n1,100,abc\n2,100,100\n3,10,100\n"),
]


@pytest.mark.parametrize(
    "option,payload", [case[1:] for case in UNUSABLE_FILES], ids=[case[0] for case in UNUSABLE_FILES]
)
def test_unusable_file_exits_two_naming_it(tmp_path, capsys, small_cohort, option, payload):
    """A file that cannot be decoded or parsed exits 2, writes nothing
    and names the file, with no traceback."""
    bad = tmp_path / f"bad-{option}"
    bad.write_bytes(payload)
    if option in ("grid", "mesh", "landmarks"):
        command, files = "attention", {**_attention_files(tmp_path), option: bad}
    else:
        command, files = "km", {"cohort": small_cohort, option: bad}
    flags = [arg for name, path in files.items() for arg in (f"--{name}", path)]
    out = tmp_path / "out"
    assert run(command, *flags, "--out", out) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(bad) in err


class TestQuotedIds:
    def test_balance_and_km_ids_read_back_whole(self, tmp_path):
        """Ids holding a comma or a quote are written as csv.writer
        writes them, so csv.reader gets each row's fields back."""
        from visage.cohort import Cohort, save_cohort

        ids = ["a,b", "p1", 'd"q', "p3", "p4", "p5"]
        cohort = Cohort(
            ids=ids,
            time=[100.0, 200.0, 300.0, 400.0, 500.0, 600.0],
            event=[True, False, True, True, False, True],
            chrono_age=[45.0, 52.0, 58.0, 63.0, 67.0, 72.0],
            predicted_age=[50.0, 50.0, 66.0, 60.0, 75.0, 70.0],
        )
        path = tmp_path / "cohort.csv"
        save_cohort(cohort, path)
        assert run("balance", "--cohort", path, "--out", tmp_path / "bal", "--mode", "factors") == 0
        assert run("km", "--cohort", path, "--out", tmp_path / "km", "--group-by", "fad_ge5") == 0

        with open(tmp_path / "bal" / "indices.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["index", "id"]
        assert {len(row) for row in rows} == {2}
        assert all(sid == ids[int(i)] for i, sid in rows)
        assert {sid for _, sid in rows} == set(ids)

        with open(tmp_path / "km" / "strata.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["id", "scheme", "label"]
        assert [row[:2] for row in rows] == [[sid, "fad_ge5"] for sid in ids]


# Runs the command line on its own arguments, then prints on its last line
# which of numpy and the visage modules have executed. A module that the
# command line registered lazily keeps its lazy class until an attribute of
# it is read, and type() reads the class without reading an attribute.
_EXECUTED = """
import sys, types
from visage.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(" ".join(sorted(
    name for name, module in list(sys.modules.items())
    if (name == "numpy" or name.startswith("visage.")) and type(module) is types.ModuleType
)))
"""


def executed_by(*argv) -> set[str]:
    """The numpy and visage modules that a command line run executes."""
    proc = run_child("-c", _EXECUTED, *map(str, argv))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestStartup:
    """Each command executes only the modules that it uses."""

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["km", "--help"]])
    def test_version_and_help_execute_no_numpy(self, argv):
        assert executed_by(*argv) == {"visage.cli", "visage.errors"}

    def test_lazy_module_is_bound_on_the_package(self):
        proc = run_child("-c", "import visage.cli, visage.cohort; visage.cohort.load_cohort")
        assert proc.returncode == 0, proc.stderr

    def test_attention_executes_no_cohort_module(self, tmp_path):
        files = _attention_files(tmp_path)
        flags = [arg for name, path in files.items() for arg in (f"--{name}", path)]
        executed = executed_by("attention", *flags, "--out", tmp_path / "att")
        assert {"numpy", "visage.attention"} <= executed
        unused = {"cohort", "cox", "trainer", "synth", "metrics", "survival", "biomarkers"}
        assert not executed & {f"visage.{name}" for name in unused}

    def test_km_executes_no_model_module(self, tmp_path, small_cohort):
        executed = executed_by(
            "km", "--cohort", small_cohort, "--out", tmp_path / "km", "--group-by", "fad_bands"
        )
        assert {"visage.cohort", "visage.survival", "visage.biomarkers"} <= executed
        assert not executed & {f"visage.{name}" for name in ("trainer", "attention", "synth", "cox")}

    def test_only_a_cohort_write_executes_the_float_formatter(self, tmp_path, small_cohort):
        """visage._floats builds its power table when it executes, and
        only save_cohort imports it: cox and km, which write no cohort,
        never build the table; simulate does."""
        km = executed_by(
            "km", "--cohort", small_cohort, "--out", tmp_path / "km", "--group-by", "fad_bands"
        )
        cox = executed_by(
            "cox", "--cohort", small_cohort, "--out", tmp_path / "cox", "--biomarker", "fad:per:10"
        )
        simulate = executed_by("simulate", "--out", tmp_path / "sim", "--n", 5)
        assert {"visage.cohort"} <= km & cox
        assert "visage._floats" not in km | cox
        assert "visage._floats" in simulate

    def test_cohort_import_executes_no_float_formatter(self):
        proc = run_child(
            "-c", "import sys, visage.cohort; print('visage._floats' in sys.modules)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestWriteOutputs:
    def test_json_value_streamed_with_dumps_bytes(self, tmp_path):
        """A JSON value is streamed into its file with the bytes that
        json.dumps gives it, NaN, non-ASCII text and nested lists included;
        str and bytes outputs are written as they are, and the manifest
        lists every output."""
        value = {
            "nan": float("nan"),
            "text": "åge ≥ 5 – naïve",
            "nested": [[1, 2.5, [None, True]], [], [{"b": -0.0, "a": 1e-300}]],
        }
        outputs = {"sub/value.json": value, "text.csv": "a,é\n", "raw.bin": b"\x00\xff"}
        manifest = {"tool": "visage", "seed": 0}
        _write_outputs(tmp_path, outputs, manifest)
        expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "sub" / "value.json").read_bytes() == expected.encode("utf-8")
        assert (tmp_path / "text.csv").read_bytes() == "a,é\n".encode("utf-8")
        assert (tmp_path / "raw.bin").read_bytes() == b"\x00\xff"
        written = (tmp_path / "manifest.json").read_bytes()
        assert written == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        assert json.loads(written)["outputs"] == sorted(outputs)


class TestTable:
    def test_array_columns_written_as_their_lists(self):
        """Float, int and object ndarray columns give the text of the same
        lists, for empty, one-element and longer columns."""
        header = ("f", "i", "s")
        floats = [1.5, -0.0, 1e-300, float("inf")]
        ints = [0, 7, -3, 12]
        text = ["a", 'b,"c"', "d\ne", "plain"]
        written = {}
        for n in (0, 1, 4):
            lists = (floats[:n], ints[:n], text[:n])
            arrays = (
                np.array(floats[:n]), np.array(ints[:n], dtype=np.int64),
                np.array(text[:n], dtype=object),
            )
            written[n] = _table(header, *arrays)
            assert written[n] == _table(header, *lists)
        assert written[1] == "f,i,s\n1.5,0,a\n"
