import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import ucp_locality
from ucp_locality import evaluation
from ucp_locality.cli import _settings_from_args, build_parser, main
from ucp_locality.dataset import (
    CSV_COLUMNS,
    Dataset,
    generate_synthetic,
    save_dataset,
)
from ucp_locality.evaluation import ALL_MODELS, RunSettings, loocv_run
from ucp_locality.locality import derive_seed
from ucp_locality.preprocess import remove_outliers, zscore_outliers

from conftest import make_dataset, make_project


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.csv"
    save_dataset(generate_synthetic(5, 24), path)
    return str(path)


class TestValidate:
    def test_clean_file(self, data_csv, capsys):
        assert main(["validate", "--data", data_csv]) == 0
        assert "OK" in capsys.readouterr().out

    def test_byte_order_mark_accepted(self, data_csv, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + open(data_csv, "rb").read())
        assert main(["validate", "--data", str(bom)]) == 0
        assert capsys.readouterr().out.startswith("OK: 24 projects")

    def test_missing_file(self, capsys):
        assert main(["validate", "--data", "/nonexistent.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_column_cited(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        cols = [c for c in CSV_COLUMNS if c != "e4"]
        bad.write_text(",".join(cols) + "\n")
        assert main(["validate", "--data", str(bad)]) == 1
        assert "e4" in capsys.readouterr().err

    def test_bad_row_cited(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n"
                       + "p1,industrial,10,100,1.0,1.0,3,3,3,3,3,3,3,3,0\n")
        assert main(["validate", "--data", str(bad)]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_overflowing_ucp_row_cited(self, tmp_path, capsys):
        # each size is finite, but (uaw + uucw) * tcf * ef overflows; the
        # row used to load with UCP inf and PDR 0
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_COLUMNS) + "\n"
                       + "p1,industrial,1e308,1e308,1.0,1.0,3,3,3,3,3,3,3,3,"
                         "2000\n")
        assert main(["validate", "--data", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: row 2: (uaw + uucw) * tcf * ef = inf is out of range\n")

    def test_unknown_flag_is_user_error(self, capsys):
        assert main(["validate", "--bogus", "x"]) == 1


class TestSynth:
    def test_round_trips_through_validate(self, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--seed", "3", "--n", "30",
                     "--out", str(out)]) == 0
        assert main(["validate", "--data", str(out)]) == 0

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["synth", "--seed", "9", "--n", "15", "--out", str(a)])
        main(["synth", "--seed", "9", "--n", "15", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_small_n_rejected(self, capsys):
        assert main(["synth", "--seed", "1", "--n", "5", "--out", "x.csv"]) == 1

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--seed", "-3", "--n", "30",
                     "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: --seed must be non-negative, got -3\n")
        assert not out.exists()


class TestStats:
    def test_outputs_exist_and_parse(self, data_csv, tmp_path):
        out = tmp_path / "stats"
        assert main(["stats", "--data", data_csv, "--out", str(out),
                     "--format", "json"]) == 0
        moments = json.loads((out / "moments.json").read_text())
        assert set(moments) == {"pdr", "effort", "ucp", "uaw", "uucw", "tcf", "ef"}
        spearman = json.loads((out / "spearman.json").read_text())
        assert set(spearman) == {"uaw", "uucw", "tcf", "ef"}
        svg = (out / "pdr_histogram.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_deterministic_bytes(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["stats", "--data", data_csv, "--out", str(out1)])
        main(["stats", "--data", data_csv, "--out", str(out2)])
        for name in ("moments.csv", "spearman.csv", "pdr_histogram.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_json_writes_undefined_statistic_as_null(self, tmp_path):
        # three projects: the kurtosis estimator needs four values
        data = tmp_path / "three.csv"
        save_dataset(make_dataset([
            make_project(f"p{i}", uaw=5.0 + 3 * i, uucw=50.0 + 20 * i * i,
                         tcf=0.8 + 0.1 * i, ef=1.1 - 0.1 * i,
                         effort=1500.0 + 700 * i * i) for i in range(3)]), data)
        out = tmp_path / "stats"
        assert main(["stats", "--data", str(data), "--out", str(out),
                     "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        for name in ("moments.json", "spearman.json"):
            json.loads((out / name).read_text(), parse_constant=reject)
        moments = json.loads((out / "moments.json").read_text())
        assert {row["kurtosis"] for row in moments.values()} == {None}
        # CSV keeps the nan
        assert main(["stats", "--data", str(data), "--out",
                     str(tmp_path / "csv")]) == 0
        assert ",nan\n" in (tmp_path / "csv" / "moments.csv").read_text()

    def test_undefined_correlation_refused_before_any_file(self, tmp_path,
                                                            capsys):
        data = tmp_path / "constant_tcf.csv"
        synthetic = generate_synthetic(7, 11)
        save_dataset(make_dataset([replace(p, tcf=1.0) for p in synthetic]),
                     data)
        out = tmp_path / "stats"
        assert main(["stats", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: column 'tcf': correlation undefined for a constant "
            "input\n")
        assert not out.exists()


class TestRq1:
    def test_file_enumeration(self, data_csv, tmp_path):
        out = tmp_path / "rq1"
        assert main(["rq1", "--data", data_csv, "--out", str(out)]) == 0
        svgs = sorted(p.name for p in out.glob("*.svg"))
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert len(svgs) == 16
        assert len(csvs) == 8

    def test_ci_rows_ordered(self, data_csv, tmp_path):
        out = tmp_path / "rq1b"
        main(["rq1", "--data", data_csv, "--out", str(out)])
        for i in range(1, 9):
            lines = (out / f"intervals_e{i}.csv").read_text().splitlines()[1:]
            for line in lines:
                parts = line.split(",")
                mean = float(parts[2])
                if parts[5] == "true":
                    assert float(parts[3]) <= mean <= float(parts[4])

    def test_has_no_format_option(self, data_csv, tmp_path, capsys):
        # rq1 writes its interval tables as CSV only
        assert main(["rq1", "--data", data_csv, "--out", str(tmp_path / "r"),
                     "--format", "md"]) == 1
        assert "--format" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestBenchmark:
    def test_single_cell_run(self, data_csv, tmp_path):
        out = tmp_path / "bench"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", "e1", "--model", "stepwise"]) == 0
        table = (out / "table4.csv").read_text().splitlines()
        assert table[0] == "scheme,stepwise_mae,stepwise_mbre,stepwise_mibre"
        assert table[1].startswith("e1,")
        assert (out / "run.json").exists()
        assert (out / "outliers.csv").read_text().startswith("id,flagged,max_abs_z")
        assert (out / "traces" / "e1_stepwise.csv").exists()

    def test_rerun_byte_identical(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        args = ["--data", data_csv, "--scheme", "kmeans", "--model", "cart",
                "--seed", "7"]
        main(["benchmark", "--out", str(out1)] + args)
        main(["benchmark", "--out", str(out2)] + args)
        for rel in ("table4.csv", "run.json", "traces/kmeans_cart.csv"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_none_scheme_writes_table5(self, data_csv, tmp_path):
        out = tmp_path / "b5"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", "none", "--model", "karner",
                     "--format", "md"]) == 0
        text = (out / "table5.md").read_text()
        assert "karner" in text

    def test_negative_seed_rejected_before_any_file(self, data_csv, tmp_path,
                                                    capsys):
        out = tmp_path / "bench"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", "e1", "--model", "cart", "--seed", "-5"]) == 1
        assert capsys.readouterr() == (
            "", "error: --seed must be non-negative, got -5\n")
        assert not (out / "outliers.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_z_threshold_not_positive_rejected_before_any_file(
            self, data_csv, tmp_path, capsys, value):
        out = tmp_path / "bench"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", "e1", "--model", "cart",
                     "--z-threshold", value]) == 1
        assert capsys.readouterr() == (
            "", f"error: --z-threshold must be positive, got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("threshold,message", [
        ("1", "LOOCV needs at least 10 projects, got 4"),
        ("0.01", "removing outliers would empty the dataset"),
    ])
    def test_screened_set_refused_before_any_file(self, tmp_path, capsys,
                                                  threshold, message):
        data = tmp_path / "d.csv"
        save_dataset(generate_synthetic(7, 11), data)
        out = tmp_path / "bench"
        assert main(["benchmark", "--data", str(data), "--out", str(out),
                     "--z-threshold", threshold]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ensemble_writes_weights(self, data_csv, tmp_path):
        out = tmp_path / "bw"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", "e2", "--model", "ensemble"]) == 0
        weights = (out / "traces" / "e2_ensemble_weights.csv").read_text()
        assert weights.splitlines()[0] == "fold,test_id,model,w_mae,w_mbre,w_mibre,w"
        assert len(weights.splitlines()) > 1

    def test_bad_override_rejected(self, data_csv, tmp_path):
        assert main(["benchmark", "--data", data_csv, "--out",
                     str(tmp_path / "x"), "--svr-c", "-1"]) == 1

    def test_selector_pair_without_cells_rejected(self, tmp_path, capsys):
        # baselines run only without locality, so e1 x karner is no cell;
        # the data file is never read and nothing is written
        out = tmp_path / "none_selected"
        assert main(["benchmark", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(out), "--scheme", "e1",
                     "--model", "karner"]) == 1
        assert "selects no cell" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme,model,tables", [
        ("all", "all", ["table4.md", "table5.md"]),
        ("none", "all", ["table5.md"]),
        ("all", "svr", ["table4.md", "table5.md"])])
    def test_markdown_rows_match_header(self, data_csv, tmp_path, scheme,
                                        model, tables):
        out = tmp_path / "md"
        assert main(["benchmark", "--data", data_csv, "--out", str(out),
                     "--scheme", scheme, "--model", model,
                     "--format", "md"]) == 0
        assert sorted(p.name for p in out.glob("*.md")) == tables
        for name in tables:
            lines = (out / name).read_text().splitlines()
            assert lines[:2] == ["seed: 42", ""]
            # header, divider and rows: one more bar than cells in each
            bars = [line.count("|") for line in lines[2:]]
            assert len(bars) > 2 and set(bars) == {bars[0]}, name

    def test_full_grid_shape(self, tmp_path):
        data = tmp_path / "grid.csv"
        save_dataset(generate_synthetic(3, 20), data)
        out = tmp_path / "grid_out"
        assert main(["benchmark", "--data", str(data), "--out", str(out),
                     "--format", "json", "--z-threshold", "10"]) == 0

        table4 = json.loads((out / "table4.json").read_text())
        assert len(table4["rows"]) == 9
        for row in table4["rows"]:
            assert set(row["cells"]) == {"svr", "stepwise", "cart", "ensemble"}
        # one column-best per (model, metric) across the nine schemes
        for model in ("svr", "stepwise", "cart", "ensemble"):
            for metric in ("mae", "mbre", "mibre"):
                winners = [r["label"] for r in table4["rows"]
                           if metric in r["cells"][model]["best_in_column"]]
                assert len(winners) == 1

        table5 = json.loads((out / "table5.json").read_text())
        assert [r["label"] for r in table5["rows"]] == [
            "karner", "sw", "ensemble", "svr", "stepwise", "cart"]
        for metric in ("mae", "mbre", "mibre"):
            winners = [r["label"] for r in table5["rows"]
                       if metric in r["cells"]["value"]["best_in_column"]]
            assert len(winners) == 1

        traces = list((out / "traces").glob("*.csv"))
        weight_files = [p for p in traces if p.name.endswith("_weights.csv")]
        assert len(traces) - len(weight_files) == 42
        assert len(weight_files) == 10   # ensemble runs: 9 schemes + none


class TestPredict:
    BASE = ["--uaw", "19", "--uucw", "375", "--tcf", "0.97", "--ef", "0.96",
            "--env", "3,3,3,3,3,3,3,3"]

    def test_karner_fixed_ratio(self, data_csv, capsys):
        code = main(["predict", "--data", data_csv, "--model", "karner",
                     "--uaw", "10", "--uucw", "90", "--tcf", "1.0",
                     "--ef", "1.0", "--env", "3,3,3,3,3,3,3,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ucp: 100.0" in out
        assert "effort: 2000.0" in out

    def test_sw_all_threes(self, data_csv, capsys):
        code = main(["predict", "--data", data_csv, "--model", "sw",
                     "--uaw", "10", "--uucw", "90", "--tcf", "1.0",
                     "--ef", "1.0", "--env", "3,3,3,3,3,3,3,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pdr: 20.0" in out
        assert "effort: 2000.0" in out

    def test_ensemble_within_base_range(self, data_csv, capsys):
        code = main(["predict", "--data", data_csv, "--model", "ensemble",
                     "--scheme", "e3"] + self.BASE)
        assert code == 0
        out = capsys.readouterr().out
        pdr = float([l for l in out.splitlines() if l.startswith("pdr:")][0]
                    .split()[1])
        bases = [float(l.split("pdr=")[1]) for l in out.splitlines()
                 if l.startswith("weight ")]
        assert len(bases) == 3
        assert min(bases) - 1e-9 <= pdr <= max(bases) + 1e-9

    def test_artifact_round_trip(self, data_csv, tmp_path, capsys):
        # every model, plus e4 whose level L3 keeps 5 projects of data_csv,
        # so the ensemble falls back to the full set
        cases = [("e3", model) for model in ALL_MODELS] + [("e4", "ensemble")]
        artifact = tmp_path / "model.json"
        for scheme, model in cases:
            assert main(["predict", "--data", data_csv, "--scheme", scheme,
                         "--model", model, "--save-model", str(artifact)]
                        + self.BASE) == 0
            first = capsys.readouterr().out
            assert ("fell back" in first) == (scheme == "e4"), model
            assert main(["predict", "--model-file", str(artifact)]
                        + self.BASE) == 0
            assert capsys.readouterr().out == first, (scheme, model)

    @pytest.mark.parametrize("document", [
        "{}", '{"model": {"kind": "svr"}}', "[1]"])
    def test_malformed_model_file_is_user_error(self, tmp_path, capsys,
                                                document):
        artifact = tmp_path / "model.json"
        artifact.write_text(document)
        assert main(["predict", "--model-file", str(artifact)]
                    + self.BASE) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("model,corrupt", [
        ("stepwise", lambda m: m["params"].update(feature_indices=[9],
                                                  coefficients=[1.0])),
        ("cart", lambda m: m["params"]["root"].update(feature=9)),
        ("ensemble", lambda m: m["params"]["weights"].pop("svr")),
        ("ensemble", lambda m: m["params"]["models"]["stepwise"]["params"]
         .update(log_flags=[False])),
    ], ids=["stepwise-feature", "cart-feature", "ensemble-weight",
            "ensemble-log-flags"])
    def test_inconsistent_model_file_is_user_error(self, data_csv, tmp_path,
                                                   capsys, model, corrupt):
        # a saved artifact edited to read a feature past the project's four
        # size features, or to lack a base model's weight, is refused on
        # load rather than failing inside the prediction
        artifact = tmp_path / "model.json"
        assert main(["predict", "--data", data_csv, "--model", model,
                     "--save-model", str(artifact)] + self.BASE) == 0
        doc = json.loads(artifact.read_text())
        corrupt(doc["model"])
        artifact.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["predict", "--model-file", str(artifact)]
                    + self.BASE) == 1
        assert capsys.readouterr().err.startswith(
            "error: malformed model file: ")

    @pytest.mark.parametrize("scheme,model,pdr", [
        ("kmeans", "karner", 20.0), ("e3", "sw", 20.0)])
    def test_baselines_ignore_the_scheme(self, data_csv, capsys, monkeypatch,
                                         scheme, model, pdr):
        def no_partitioning(*args):
            raise AssertionError("baselines need no partitioning")

        for name in ("partition_by_factor", "partition_each_by_kmeans"):
            monkeypatch.setattr(f"ucp_locality.evaluation.{name}",
                                no_partitioning)
        assert main(["predict", "--data", data_csv, "--scheme", scheme,
                     "--model", model] + self.BASE) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"pdr: {pdr!r}" in out
        assert "partition: none (full dataset)" in out

    def test_small_partition_falls_back_like_the_harness(self, tmp_path,
                                                          capsys):
        # e3 level L3 keeps 5 projects after outlier removal: too few for
        # the ensemble, so the fit uses the full set, as loocv_run does
        data = tmp_path / "d.csv"
        save_dataset(generate_synthetic(1, 40), data)
        project = self.BASE      # all env scores 3: e3 level L3
        artifact = tmp_path / "model.json"
        assert main(["predict", "--data", str(data), "--scheme", "e3",
                     "--model", "ensemble", "--save-model", str(artifact)]
                    + project) == 0
        out = capsys.readouterr().out
        assert ("partition: full dataset (39 projects), fell back because "
                "partition L3 has 5 projects, ensemble needs 6") in out
        assert main(["predict", "--model-file", str(artifact)] + project) == 0
        assert capsys.readouterr().out == out
        assert main(["predict", "--data", str(data), "--scheme", "none",
                     "--model", "ensemble"] + project) == 0
        full = capsys.readouterr().out
        assert [l for l in out.splitlines() if l.startswith("pdr:")] == \
            [l for l in full.splitlines() if l.startswith("pdr:")]

    def test_unclusterable_training_set_falls_back(self, tmp_path, capsys):
        # every project scores 3 on all factors: k-means has nothing to
        # cluster, so the fit uses the full set and says why
        data = tmp_path / "d.csv"
        save_dataset(Dataset(tuple(replace(p, env=(3,) * 8)
                                   for p in generate_synthetic(3, 20))), data)
        artifact = tmp_path / "model.json"
        assert main(["predict", "--data", str(data), "--scheme", "kmeans",
                     "--model", "ensemble", "--save-model", str(artifact)]
                    + self.BASE) == 0
        out = capsys.readouterr().out
        assert "fell back because the training set has fewer than 2 " \
               "distinct factor vectors to cluster" in out
        assert main(["predict", "--model-file", str(artifact)]
                    + self.BASE) == 0
        assert capsys.readouterr().out == out

    def test_unknown_model_is_user_error(self, data_csv, capsys):
        for scheme in ("none", "e3"):
            assert main(["predict", "--data", data_csv, "--scheme", scheme,
                         "--model", "lasso"] + self.BASE) == 1
            assert "unknown model 'lasso'" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, data_csv, capsys):
        assert main(["predict"] + self.BASE) == 1
        assert main(["predict", "--data", data_csv, "--model-file", "x.json"]
                    + self.BASE) == 1

    def test_save_model_needs_data(self, data_csv, tmp_path, capsys):
        # a loaded artifact is not refitted, so there is nothing to save
        artifact, copy = tmp_path / "m1.json", tmp_path / "m2.json"
        assert main(["predict", "--data", data_csv, "--model", "karner",
                     "--save-model", str(artifact)] + self.BASE) == 0
        capsys.readouterr()
        assert main(["predict", "--model-file", str(artifact),
                     "--save-model", str(copy)] + self.BASE) == 1
        assert "--save-model needs --data" in capsys.readouterr().err
        assert not copy.exists()

    def test_invalid_env_rejected(self, data_csv):
        assert main(["predict", "--data", data_csv, "--uaw", "10",
                     "--uucw", "90", "--tcf", "1.0", "--ef", "1.0",
                     "--env", "3,3,3"]) == 1

    def test_invalid_project_rejected(self, data_csv):
        assert main(["predict", "--data", data_csv, "--uaw", "-5",
                     "--uucw", "90", "--tcf", "1.0", "--ef", "1.0",
                     "--env", "3,3,3,3,3,3,3,3"]) == 1

    def test_non_finite_size_rejected(self, data_csv, capsys):
        assert main(["predict", "--data", data_csv, "--uaw", "inf",
                     "--uucw", "90", "--tcf", "1.0", "--ef", "1.0",
                     "--env", "3,3,3,3,3,3,3,3"]) == 1
        assert capsys.readouterr() == (
            "", "error: uaw must be positive and finite, got inf\n")

    @pytest.mark.parametrize("flag,value", [
        ("--svr-c", "nan"), ("--svr-c", "inf"), ("--svr-eps", "nan"),
        ("--svr-eps", "inf"), ("--svr-gamma", "inf"), ("--svr-gamma", "nan"),
        ("--alpha", "inf"), ("--alpha", "nan")])
    def test_non_finite_hyperparameter_rejected(self, data_csv, capsys, flag,
                                                value):
        assert main(["predict", "--data", data_csv, "--model", "svr",
                     flag, value] + self.BASE) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {flag} must be ")
        assert err.endswith(f" and finite, got {value}\n")

    def test_negative_seed_rejected(self, data_csv, tmp_path, capsys):
        artifact = tmp_path / "a.json"
        assert main(["predict", "--data", data_csv, "--scheme", "e1",
                     "--seed", "-5", "--save-model", str(artifact)]
                    + self.BASE) == 1
        assert capsys.readouterr() == (
            "", "error: --seed must be non-negative, got -5\n")
        assert not artifact.exists()

    def test_nan_z_threshold_rejected(self, data_csv, tmp_path, capsys):
        artifact = tmp_path / "a.json"
        assert main(["predict", "--data", data_csv, "--scheme", "e1",
                     "--z-threshold", "nan", "--save-model", str(artifact)]
                    + self.BASE) == 1
        assert capsys.readouterr() == (
            "", "error: --z-threshold must be positive, got nan\n")
        assert not artifact.exists()

    def test_kmeans_partitions_once(self, data_csv, capsys, monkeypatch):
        # predict partitions as a harness fold does: one stacked k-means
        # call for its one training set
        calls = []
        original = evaluation.partition_each_by_kmeans

        def count(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(evaluation, "partition_each_by_kmeans", count)
        assert main(["predict", "--data", data_csv, "--scheme", "kmeans",
                     "--model", "stepwise"] + self.BASE) == 0
        assert len(calls) == 1


class TestPredictMatchesHarness:
    """`predict` on a leave-one-out fold's training set, with that fold's
    seed, prints the PDR the harness predicted for the held-out project."""

    @pytest.fixture(scope="class")
    def screened(self):
        data = generate_synthetic(5, 24)
        return remove_outliers(data, zscore_outliers(data))

    @pytest.mark.parametrize("scheme,model", [
        ("e3", "ensemble"), ("e3", "stepwise"), ("kmeans", "ensemble"),
        ("kmeans", "stepwise"), ("none", "sw")])
    def test_every_fold(self, screened, tmp_path, capsys, scheme, model):
        report = loocv_run(screened, scheme, model)
        assert any(f.fallback for f in report.folds) == (scheme != "none")
        for i, (test, fold) in enumerate(zip(screened, report.folds)):
            training = tmp_path / f"fold{i}.csv"
            save_dataset(Dataset(tuple(p for p in screened if p is not test)),
                         training)
            assert main([
                "predict", "--data", str(training), "--keep-outliers",
                "--seed", str(derive_seed(42, i)), "--scheme", scheme,
                "--model", model, "--uaw", repr(test.uaw),
                "--uucw", repr(test.uucw), "--tcf", repr(test.tcf),
                "--ef", repr(test.ef),
                "--env", ",".join(str(e) for e in test.env)]) == 0
            out = capsys.readouterr().out.splitlines()
            assert f"pdr: {fold.pdr_pred!r}" in out, (i, out)


class TestScipyImports:
    """numpy is the only runtime dependency: importing the package and
    running every command, the fit and predict paths included, never loads
    scipy."""

    BASE = TestPredict.BASE

    def _fresh_run(self, tmp_path, argvs):
        """Exit codes of `argvs`, run in a fresh interpreter on a small
        synthetic set, and the scipy modules loaded by the end."""
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            import ucp_locality
            import ucp_locality.cli
            from ucp_locality.dataset import generate_synthetic, save_dataset
            save_dataset(generate_synthetic(5, 24), "data.csv")
            codes = []
            for argv in json.loads(sys.argv[1]):
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(ucp_locality.cli.main(argv))
            print(json.dumps([codes, sorted(
                m for m in sys.modules if m.split(".")[0] == "scipy")]))
        """)
        src = str(Path(ucp_locality.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_fit_and_predict_paths_do_not_load_scipy(self, tmp_path):
        data = ["--data", "data.csv"]
        codes, loaded = self._fresh_run(tmp_path, [
            ["synth", "--n", "24", "--out", "synth.csv"],
            ["validate"] + data,
            ["predict"] + data + ["--scheme", "kmeans", "--model", "ensemble",
                                  "--save-model", "model.json"] + self.BASE,
            ["predict", "--model-file", "model.json"] + self.BASE,
            ["benchmark"] + data + ["--out", "e1", "--scheme", "e1",
                                    "--model", "ensemble"],
            ["benchmark"] + data + ["--out", "km", "--scheme", "kmeans",
                                    "--model", "stepwise"],
            ["stats"] + data + ["--out", "stats"],
        ])
        assert codes == [0] * 7
        assert loaded == []

    def test_rq1_does_not_load_scipy(self, tmp_path):
        # rq1's t quantile is computed in-package
        codes, loaded = self._fresh_run(
            tmp_path, [["rq1", "--data", "data.csv", "--out", "rq1"]])
        assert codes == [0]
        assert loaded == []


class TestRunOptions:
    @pytest.mark.parametrize("argv", [
        ["benchmark", "--data", "d.csv", "--out", "out"],
        ["predict", "--data", "d.csv"] + TestPredict.BASE])
    def test_defaults_are_the_run_settings_defaults(self, argv):
        args = build_parser().parse_args(argv)
        assert _settings_from_args(args) == RunSettings()
