"""End-to-end command driver checks on small synthetic cohorts."""

import argparse
import csv
import dataclasses
import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rocbench import cli, frequentist, synthetic
from rocbench.cli import RunConfig, build_parser, main
from rocbench.core import rate_pair, read_cases_csv, write_cases_csv
from rocbench.forest import load_forest
from rocbench.frequentist import benchmark_maker_frequentist, read_frequentist_csv, write_frequentist_csv
from rocbench.replacement import Verdicts
from rocbench.roc import build_roc, read_roc_csv, write_roc_csv
from rocbench.synthetic import (
    ComplementaritySpec,
    HeterogeneousCutoffsSpec,
    IncentiveSpec,
    PredictedDoctorSpec,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Simulated cohort plus a trained model and validation curve."""
    root = tmp_path_factory.mktemp("cli")
    sim = root / "sim"
    assert main([
        "simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "4",
        "--cases-per-maker", "200", "--seed", "3", "--out", str(sim),
    ]) == 0
    cases = sim / "cases.csv"
    model = root / "forest.json"
    assert main([
        "train", "--cases", str(cases), "--out", str(model),
        "--trees", "5", "--min-split", "20", "--seed", "3",
    ]) == 0
    roc = root / "roc.csv"
    assert main(["roc", "--cases", str(cases), "--model", str(model), "--out", str(roc)]) == 0
    return {"root": root, "cases": cases, "model": model, "roc": roc}


class TestSimulate:
    def test_outputs_and_manifest(self, workdir):
        sim = workdir["root"] / "sim"
        assert (sim / "cases.csv").exists()
        manifest = json.loads((sim / "manifest.json").read_text())
        assert manifest["kind"] == "heterogeneous-cutoffs"
        assert manifest["n_makers"] == 4
        assert manifest["cases_per_maker"] == 200
        assert manifest["seed"] == 3

    def test_cases_file_loads(self, workdir):
        data = read_cases_csv(workdir["cases"])
        assert data.n_cases == 800
        assert len(data.makers) == 4
        assert data.n_features == 1

    def test_other_generators_run(self, tmp_path):
        out = tmp_path / "inc"
        assert main(["simulate", "--dgp", "incentive", "--n", "500", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["kind"] == "incentive"
        out2 = tmp_path / "doc"
        assert main([
            "simulate", "--dgp", "predicted-doctor", "--scenario", "2",
            "--n", "500", "--out", str(out2),
        ]) == 0
        assert read_cases_csv(out2 / "cases.csv").n_features == 2


# generator -> the simulate flags it reads, with small sizes first so that every run is quick
SIMULATE_READS = {
    "complementarity": [["--n-cases", "60"], ["--n-makers", "3"], ["--seed", "1"], ["--capable-fraction", "0.5"],
                        ["--export-hidden"], ["--shuffle-groups"]],
    "predicted-doctor": [["--n", "60"], ["--seed", "1"], ["--scenario", "2"], ["--c0", "0.4"]],
    "incentive": [["--n", "60"], ["--seed", "1"]],
    "heterogeneous-cutoffs": [["--n-makers", "3"], ["--cases-per-maker", "20"], ["--seed", "1"],
                              ["--cutoff-lo", "0.3"], ["--cutoff-hi", "0.6"], ["--cutoffs", "0.1,0.5,0.9"]],
}
SIMULATE_FLAGS = {flag[0]: flag for flags in SIMULATE_READS.values() for flag in flags}
SPECS = {
    "complementarity": ComplementaritySpec,
    "predicted-doctor": PredictedDoctorSpec,
    "incentive": IncentiveSpec,
    "heterogeneous-cutoffs": HeterogeneousCutoffsSpec,
}


def simulate_spec(*argv):
    return cli._simulate_spec(build_parser().parse_args(["simulate", *argv]))


class TestSimulateFlags:
    def test_generator_tables_agree(self):
        assert list(synthetic.GENERATORS) == list(SIMULATE_READS)
        assert {name: spec for name, (spec, _) in synthetic.GENERATORS.items()} == SPECS

    @pytest.mark.parametrize("dgp", sorted(SIMULATE_READS))
    def test_unread_flag_is_refused(self, dgp, tmp_path, capsys):
        read = {flag[0] for flag in SIMULATE_READS[dgp]}
        sizes = [v for flag in SIMULATE_READS[dgp][:2] for v in flag]
        unread = [flag for name, flag in SIMULATE_FLAGS.items() if name not in read]
        assert len(read) + len(unread) == len(SIMULATE_FLAGS) == 13
        for flag in unread:
            out = tmp_path / flag[0].lstrip("-")
            assert main(["simulate", "--dgp", dgp, *sizes, *flag, "--out", str(out)]) == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == f"ValueError: --dgp {dgp} does not read {flag[0]}"
            assert not out.exists()

    @pytest.mark.parametrize("dgp", sorted(SIMULATE_READS))
    def test_read_flags_are_accepted(self, dgp, tmp_path):
        flags = [f for f in SIMULATE_READS[dgp] if f[0] not in ("--cutoff-lo", "--cutoff-hi")]
        assert main(["simulate", "--dgp", dgp, *[v for f in flags for v in f], "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["seed"] == 1

    @pytest.mark.parametrize("dgp, skip", [
        ("complementarity", ()),
        ("complementarity", ("--export-hidden", "--shuffle-groups")),
        ("predicted-doctor", ()),
        ("incentive", ()),
        ("heterogeneous-cutoffs", ("--cutoffs",)),
        ("heterogeneous-cutoffs", ("--cutoff-lo", "--cutoff-hi")),
    ])
    def test_manifest_replays_as_a_command_line(self, dgp, skip, tmp_path):
        argv = [v for flag in SIMULATE_READS[dgp] if flag[0] not in skip for v in flag]
        assert main(["simulate", "--dgp", dgp, *argv, "--out", str(tmp_path / "first")]) == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        assert manifest.pop("kind") == dgp
        read = {flag[0] for flag in SIMULATE_READS[dgp]}
        replay = []
        for key, value in manifest.items():
            flag = "--" + key.replace("_", "-")
            if key == "cutoffs" and value[0] == "uniform":
                flags = [["--cutoff-lo", repr(value[1])], ["--cutoff-hi", repr(value[2])]]
            elif key == "cutoffs":
                flags = [[flag, ",".join(map(repr, value))]]
            elif isinstance(value, bool):
                flags = [[flag]]  # a store_true flag, left out when false
            else:
                flags = [[flag, repr(value)]]
            for given in flags:
                assert given[0] in read, key
                replay += given if value is not False else []
        assert main(["simulate", "--dgp", dgp, *replay, "--out", str(tmp_path / "again")]) == 0
        for name in ("cases.csv", "manifest.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes(), name

    @pytest.mark.parametrize("dgp", sorted(SPECS))
    def test_unset_flags_keep_the_spec_defaults(self, dgp):
        assert simulate_spec("--dgp", dgp, "--seed", "5") == SPECS[dgp](seed=5)

    def test_one_cutoff_bound_keeps_the_other(self):
        _, lo, hi = HeterogeneousCutoffsSpec().cutoffs
        got = simulate_spec("--dgp", "heterogeneous-cutoffs", "--cutoff-lo", "0.3")
        assert got == HeterogeneousCutoffsSpec(cutoffs=("uniform", 0.3, hi))
        got = simulate_spec("--dgp", "heterogeneous-cutoffs", "--cutoff-hi", "0.6")
        assert got == HeterogeneousCutoffsSpec(cutoffs=("uniform", lo, 0.6))
        got = simulate_spec("--dgp", "heterogeneous-cutoffs", "--n-makers", "3", "--cutoffs", "0.1,0.5,0.9")
        assert got == HeterogeneousCutoffsSpec(n_makers=3, cutoffs=(0.1, 0.5, 0.9))

    @pytest.mark.parametrize("bound", [["--cutoff-lo", "0.3"], ["--cutoff-hi", "0.6"]])
    def test_cutoffs_with_a_bound_is_refused(self, bound, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "3", "--cases-per-maker", "20",
                     "--cutoffs", "0.1,0.5,0.9", *bound, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "--cutoffs excludes" in json.loads(lines[0])["error"]
        assert not out.exists()

    @pytest.mark.parametrize("cutoffs", ["0.1,nan,0.9", "0.1,-0.5,0.9", "0.1,1.5,0.9", "0.1,0.5,inf"])
    def test_cutoff_outside_the_unit_interval_is_refused(self, cutoffs, tmp_path, capsys):
        # NaN compares false both ways, so a range test that looks for a failing value lets it through
        out = tmp_path / "sim"
        assert main(["simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "3", "--cases-per-maker", "20",
                     "--cutoffs", cutoffs, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in lines] == [{"error": "ValueError: cutoffs must lie in [0, 1]"}]
        assert not out.exists()


class TestTrainAndRoc:
    def test_model_honors_flags(self, workdir):
        forest = load_forest(workdir["model"])
        assert forest.params.n_trees == 5
        assert forest.params.min_samples_split == 20
        assert forest.params.seed == RunConfig(seed=3).forest_params().seed

    def test_curve_file_valid(self, workdir):
        roc = read_roc_csv(workdir["roc"])
        assert roc.n_points >= 2
        assert 0.5 < roc.auc() <= 1.0

    @pytest.mark.parametrize("command", ["train", "combine", "path", "randomized"])
    def test_featureless_cases_rejected(self, command, workdir, verdicts, tmp_path, capsys):
        path = tmp_path / "bare.csv"
        path.write_text("maker_id,y,y_hat\nm0,1,0\nm0,0,1\n")
        argv = [command, "--cases", str(path), "--out", str(tmp_path / "out")]
        if command != "train":
            argv += ["--verdicts", str(verdicts), "--model", str(workdir["model"])]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "feature" in json.loads(err)["error"]


class TestBenchmarks:
    def test_bayes_verdicts(self, workdir, tmp_path):
        out = tmp_path / "vb.csv"
        assert main([
            "bench-bayes", "--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]),
            "--out", str(out), "--min-cases", "1", "--draws", "400", "--seed", "3",
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "maker_id,q_max,alpha_d,loss_kind,min_loss,replace,threshold"
        assert len(lines) == 5

    def test_freq_verdicts(self, workdir, tmp_path):
        out = tmp_path / "vf.csv"
        assert main([
            "bench-freq", "--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]),
            "--out", str(out), "--min-cases", "1", "--resamples", "30", "--seed", "3",
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "maker_id,n,alpha_hat,beta_hat,case_label,c_lower,c_upper"
        assert len(lines) == 5

    def test_freq_verdicts_with_asymptotic_covariance(self, workdir, tmp_path):
        out = tmp_path / "vf.csv"
        assert main([
            "bench-freq", "--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]),
            "--out", str(out), "--min-cases", "1", "--cov", "asymptotic", "--level", "0.9",
        ]) == 0
        roc = read_roc_csv(workdir["roc"])
        loop = Verdicts.from_rows(
            benchmark_maker_frequentist(m, c, roc, level=0.9, cov_method="asymptotic")
            for m, c in read_cases_csv(workdir["cases"]).counts_by_maker().items()
        )
        # the file as written: labels, and cuts at the precision verdict files print
        write_frequentist_csv(tmp_path / "loop.csv", loop)
        assert out.read_bytes() == (tmp_path / "loop.csv").read_bytes()
        assert set(read_frequentist_csv(out)["case_label"].tolist()) > {"case1"}

    def test_freq_verdicts_on_extreme_thresholds(self, workdir, tmp_path, capsys):
        # thresholds 1e308 and -1e308: interpolating between them must not overflow
        roc = tmp_path / "roc.csv"
        write_roc_csv(roc, build_roc(np.array([1e308, -1e308]), np.array([1, 0])))
        out = tmp_path / "vf.csv"
        assert main([
            "bench-freq", "--cases", str(workdir["cases"]), "--roc", str(roc),
            "--out", str(out), "--min-cases", "1", "--resamples", "30", "--seed", "3",
        ]) == 0
        assert capsys.readouterr().err == ""
        assert len(out.read_text().strip().splitlines()) == 5

    def test_min_cases_filter_can_empty_the_cohort(self, workdir, capsys):
        code = main([
            "bench-bayes", "--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]),
            "--min-cases", "100000",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "min" in err["error"] or "cases" in err["error"]


@pytest.fixture(scope="module")
def verdicts(workdir):
    out = workdir["root"] / "vb.csv"
    assert main([
        "bench-bayes", "--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]),
        "--out", str(out), "--min-cases", "1", "--draws", "400", "--seed", "3",
    ]) == 0
    return out


class TestCombinePathRandomized:
    def test_combine_rows(self, workdir, verdicts, tmp_path):
        out = tmp_path / "combined.csv"
        assert main([
            "combine", "--cases", str(workdir["cases"]), "--verdicts", str(verdicts),
            "--model", str(workdir["model"]), "--out", str(out),
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,fpr,tpr,n_replaced"
        assert lines[1].startswith("raw,")
        assert lines[2].startswith("combined,")

    def test_path_endpoints(self, workdir, verdicts, tmp_path):
        out = tmp_path / "path.csv"
        assert main([
            "path", "--cases", str(workdir["cases"]), "--verdicts", str(verdicts),
            "--model", str(workdir["model"]), "--fractions", "0,1", "--out", str(out),
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        raw = rate_pair(read_cases_csv(workdir["cases"]).pooled_counts())
        f0 = rows[0].split(",")
        assert float(f0[1]) == pytest.approx(raw.alpha, rel=1e-9)
        assert float(f0[2]) == pytest.approx(raw.beta, rel=1e-9)

    def test_randomized_lambda_zero_is_raw(self, workdir, verdicts, tmp_path):
        out = tmp_path / "rand.csv"
        assert main([
            "randomized", "--cases", str(workdir["cases"]), "--verdicts", str(verdicts),
            "--model", str(workdir["model"]), "--lambdas", "0,1",
            "--scope", "all-makers", "--out", str(out), "--seed", "3",
        ]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        raw = rate_pair(read_cases_csv(workdir["cases"]).pooled_counts())
        lam0 = rows[0].split(",")
        assert float(lam0[1]) == pytest.approx(raw.alpha, rel=1e-9)
        assert float(lam0[2]) == pytest.approx(raw.beta, rel=1e-9)

    def combine_error(self, workdir, tmp_path, capsys, rows):
        """Run combine on a verdict file of ``rows``; expect one JSON error line."""
        path = tmp_path / "verdicts_bayes.csv"
        path.write_text("maker_id,q_max,alpha_d,loss_kind,min_loss,replace,threshold\n" + "".join(rows))
        out = tmp_path / "combined.csv"
        code = main([
            "combine", "--cases", str(workdir["cases"]), "--verdicts", str(path),
            "--model", str(workdir["model"]), "--out", str(out),
        ])
        lines = capsys.readouterr().err.strip().splitlines()
        assert code == 2 and len(lines) == 1 and not out.exists()
        return path, json.loads(lines[0])["error"]

    def test_combine_rejects_nan_threshold(self, workdir, tmp_path, capsys):
        makers = read_cases_csv(workdir["cases"]).makers
        rows = [f"{m},0.99,0.1,baseline,0.01,true,{'nan' if i == 0 else '0.5'}\n" for i, m in enumerate(makers)]
        path, err = self.combine_error(workdir, tmp_path, capsys, rows)
        assert f"{path}: line 2: non-finite value 'nan'" in err

    def test_combine_rejects_repeated_maker(self, workdir, tmp_path, capsys):
        makers = read_cases_csv(workdir["cases"]).makers
        rows = [f"{m},0.99,0.1,baseline,0.01,true,0.5\n" for m in (*makers, makers[0])]
        path, err = self.combine_error(workdir, tmp_path, capsys, rows)
        assert f"{path}: line {len(makers) + 2}: repeated maker_id '{makers[0]}'" in err


class TestSplit:
    def test_split_files_and_manifest(self, workdir, tmp_path):
        out = tmp_path / "split"
        assert main([
            "split", "--cases", str(workdir["cases"]), "--ratio", "1:1",
            "--names", "left,right", "--label", "outer", "--out", str(out), "--seed", "3",
        ]) == 0
        left = read_cases_csv(out / "left.csv")
        right = read_cases_csv(out / "right.csv")
        assert left.n_cases + right.n_cases == 800
        manifest = json.loads((out / "split_manifest.json").read_text())
        assert manifest["ratio"] == [1, 1]
        assert manifest["left"] == left.n_cases
        assert manifest["right"] == right.n_cases

    def test_label_changes_partition(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out, label in ((a, "outer"), (b, "inner")):
            assert main([
                "split", "--cases", str(workdir["cases"]), "--ratio", "1:1",
                "--label", label, "--out", str(out), "--seed", "3",
            ]) == 0
        assert (a / "a.csv").read_bytes() != (b / "a.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--names", "a", "--names must be two distinct non-empty basenames"),
            ("--names", "a,a", "--names must be two distinct non-empty basenames"),
            ("--names", "a,b,c", "--names must be two distinct non-empty basenames"),
            ("--names", ",b", "--names must be two distinct non-empty basenames"),
            ("--names", "a,", "--names must be two distinct non-empty basenames"),
            ("--names", "label,b", "other than label, ratio and seed, got 'label,b'"),
            ("--names", "a,ratio", "other than label, ratio and seed, got 'a,ratio'"),
            ("--names", "seed,b", "other than label, ratio and seed, got 'seed,b'"),
            ("--names", "../x,y", "other than label, ratio and seed, got '../x,y'"),
            ("--names", "a,sub/b", "other than label, ratio and seed, got 'a,sub/b'"),
            ("--names", "/a,b", "other than label, ratio and seed, got '/a,b'"),
            ("--ratio", "1:0", "--ratio must be two positive integers, got '1:0'"),
            ("--ratio", "0:3", "--ratio must be two positive integers, got '0:3'"),
            ("--ratio", "-1:2", "--ratio must be two positive integers, got '-1:2'"),
            ("--ratio", "7", "ratio must look like 7:3, got '7'"),
        ],
    )
    def test_bad_names_or_ratio_refused_before_writing(self, workdir, tmp_path, capsys, flag, value, message):
        out = tmp_path / "split"
        argv = {"--ratio": "1:1", "--names": "left,right", flag: value}
        # ``--flag=value`` form, so that argparse takes ``-1:2`` as a value
        assert main(["split", "--cases", str(workdir["cases"]), *(f"{k}={v}" for k, v in argv.items()),
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error.startswith("ValueError: ") and message in error
        assert not out.exists()


REPORT_FLAGS = [
    "--trees", "5", "--min-split", "20", "--draws", "500",
    "--resamples", "30", "--min-cases", "50", "--seed", "11",
]


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    sim = root / "sim"
    assert main([
        "simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "6",
        "--cases-per-maker", "300", "--seed", "11", "--out", str(sim),
    ]) == 0
    return root, sim / "cases.csv"


class TestReport:
    def test_full_pipeline_outputs(self, cohort):
        root, cases = cohort
        out = root / "run1"
        assert main(["report", "--cases", str(cases), "--out", str(out)] + REPORT_FLAGS) == 0
        for name in (
            "config.json", "split_manifest.json", "forest.json",
            "roc_validation.csv", "roc_performance.csv", "verdicts_freq.csv",
            "verdicts_bayes.csv", "combined.csv", "path.csv", "randomized.csv",
            "summary.json",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_makers"] == 6
        assert summary["raw_gap_to_curve"] > 0  # pooled cohort below the machine curve
        assert sum(summary["case_labels"].values()) == 6
        assert 0.4 < summary["base_rate"] < 0.6
        split = json.loads((out / "split_manifest.json").read_text())
        assert split["outer"]["classification"] + split["outer"]["performance"] == summary["n_cases"]

    def test_rerun_is_byte_identical(self, cohort):
        root, cases = cohort
        a, b = root / "runA", root / "runB"
        for out in (a, b):
            assert main(["report", "--cases", str(cases), "--out", str(out)] + REPORT_FLAGS) == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == []


@pytest.fixture(scope="module")
def interleaved(tmp_path_factory):
    """A cohort whose case rows are shuffled, so makers interleave in the file."""
    root = tmp_path_factory.mktemp("chain")
    assert main([
        "simulate", "--dgp", "complementarity", "--n-cases", "3000", "--n-makers", "12",
        "--seed", "3", "--out", str(root / "sim"),
    ]) == 0
    data = read_cases_csv(root / "sim" / "cases.csv")
    shuffled = data.subset(np.random.default_rng(3).permutation(data.n_cases))
    cases = root / "cases.csv"
    write_cases_csv(cases, shuffled)
    assert read_cases_csv(cases).makers != data.makers
    return root, cases


class TestChainReproducesReport:
    def test_stage_by_stage_equals_report(self, interleaved):
        root, cases = interleaved
        run, chain = root / "run", root / "chain"
        assert main(["report", "--cases", str(cases), "--out", str(run), "--min-cases", "1",
                     "--trees", "5", "--min-split", "20", "--draws", "500", "--resamples", "30",
                     "--seed", "3"]) == 0
        config = ["--config", str(run / "config.json")]
        steps = [
            ["split", "--cases", str(cases), "--ratio", "7:3", "--label", "outer",
             "--names", "class,perf", "--out", str(chain), *config],
            ["split", "--cases", str(chain / "class.csv"), "--ratio", "4:3", "--label", "inner",
             "--names", "train,val", "--out", str(chain), *config],
            ["train", "--cases", str(chain / "train.csv"), "--out", str(chain / "forest.json"), *config],
            ["roc", "--cases", str(chain / "val.csv"), "--model", str(chain / "forest.json"),
             "--out", str(chain / "roc_validation.csv")],
            ["roc", "--cases", str(chain / "perf.csv"), "--model", str(chain / "forest.json"),
             "--out", str(chain / "roc_performance.csv")],
        ]
        for command in ("bench-freq", "bench-bayes"):
            name = "verdicts_" + command.split("-")[1]
            steps.append([command, "--cases", str(chain / "class.csv"), "--roc", str(chain / "roc_validation.csv"),
                          "--out", str(chain / f"{name}.csv"), *config])
        scored = ["--cases", str(chain / "perf.csv"), "--verdicts", str(chain / "verdicts_bayes.csv"),
                  "--model", str(chain / "forest.json")]
        steps += [
            ["combine", *scored, "--out", str(chain / "combined.csv")],
            ["path", *scored, "--out", str(chain / "path.csv")],
            ["randomized", *scored, "--out", str(chain / "randomized.csv"), *config],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        for name in ("forest.json", "roc_validation.csv", "roc_performance.csv", "verdicts_freq.csv",
                     "verdicts_bayes.csv", "path.csv", "randomized.csv"):
            assert (chain / name).read_bytes() == (run / name).read_bytes(), name
        report_rows = (run / "combined.csv").read_text().splitlines()
        chain_rows = (chain / "combined.csv").read_text().splitlines()
        assert chain_rows[1] == report_rows[1] and chain_rows[1].startswith("raw,")
        assert chain_rows[2] == report_rows[2].replace("bayes,", "combined,", 1)


# flags of RunConfig fields each subcommand does not read
UNREAD_FLAGS = {
    "split": [["--level", "0.9"], ["--min-cases", "1"], ["--outer-ratio", "7:3"], ["--inner-ratio", "4:3"],
              ["--trees", "3"], ["--max-features", "2"], ["--min-split", "5"], ["--no-bootstrap"],
              ["--resamples", "5"], ["--draws", "5"], ["--loss", "euclidean"], ["--grid", "8"], ["--prior", "1"]],
    "train": [["--level", "2"], ["--min-cases", "1"], ["--outer-ratio", "7:3"], ["--inner-ratio", "4:3"],
              ["--resamples", "5"], ["--draws", "5"], ["--loss", "euclidean"], ["--grid", "8"], ["--prior", "1"]],
    "bench-freq": [["--outer-ratio", "7:3"], ["--inner-ratio", "4:3"], ["--trees", "3"], ["--max-features", "2"],
                   ["--min-split", "5"], ["--no-bootstrap"], ["--draws", "5"], ["--loss", "euclidean"],
                   ["--grid", "8"], ["--prior", "1"]],
    "bench-bayes": [["--outer-ratio", "7:3"], ["--inner-ratio", "4:3"], ["--trees", "3"], ["--max-features", "2"],
                    ["--min-split", "5"], ["--no-bootstrap"], ["--resamples", "5"]],
    "randomized": [["--level", "0.5"], ["--min-cases", "1"], ["--outer-ratio", "7:3"], ["--inner-ratio", "4:3"],
                   ["--trees", "3"], ["--max-features", "2"], ["--min-split", "5"], ["--no-bootstrap"],
                   ["--resamples", "5"], ["--draws", "7"], ["--loss", "euclidean"], ["--grid", "8"], ["--prior", "1"]],
}


# subcommand -> option -> (dest, required, default), as parsed before the subcommand table
# declared them; the table may not add, drop or change a flag unnoticed
PARSED_FLAGS = {
    "simulate": {
        "--c0": ("c0", False, None), "--capable-fraction": ("capable_fraction", False, None),
        "--cases-per-maker": ("cases_per_maker", False, None), "--cutoff-hi": ("cutoff_hi", False, None),
        "--cutoff-lo": ("cutoff_lo", False, None), "--cutoffs": ("cutoffs", False, None),
        "--dgp": ("dgp", True, None), "--export-hidden": ("export_hidden", False, None), "--n": ("n", False, None),
        "--n-cases": ("n_cases", False, None), "--n-makers": ("n_makers", False, None),
        "--out": ("out", False, None), "--scenario": ("scenario", False, None), "--seed": ("seed", False, None),
        "--shuffle-groups": ("shuffle_groups", False, None),
    },
    "split": {
        "--cases": ("cases", True, None), "--config": ("config", False, None), "--label": ("label", False, "outer"),
        "--names": ("names", False, "a,b"), "--out": ("out", False, None), "--ratio": ("ratio", True, None),
        "--seed": ("seed", False, None),
    },
    "train": {
        "--cases": ("cases", True, None), "--config": ("config", False, None),
        "--max-features": ("max_features", False, None), "--min-split": ("min_samples_split", False, None),
        "--no-bootstrap": ("bootstrap", False, None), "--out": ("out", False, None), "--seed": ("seed", False, None),
        "--trees": ("n_trees", False, None),
    },
    "roc": {
        "--cases": ("cases", True, None), "--model": ("model", True, None), "--out": ("out", False, None),
    },
    "bench-freq": {
        "--cases": ("cases", True, None), "--config": ("config", False, None), "--cov": ("cov", False, "bootstrap"),
        "--level": ("level", False, None), "--min-cases": ("min_cases", False, None), "--out": ("out", False, None),
        "--resamples": ("n_resamples", False, None), "--roc": ("roc", True, None), "--seed": ("seed", False, None),
    },
    "bench-bayes": {
        "--cases": ("cases", True, None), "--config": ("config", False, None), "--draws": ("n_draws", False, None),
        "--grid": ("grid_size", False, None), "--level": ("level", False, None),
        "--loss": ("loss_kind", False, None), "--min-cases": ("min_cases", False, None),
        "--out": ("out", False, None), "--prior": ("prior_weight", False, None), "--roc": ("roc", True, None),
        "--seed": ("seed", False, None),
    },
    "combine": {
        "--cases": ("cases", True, None), "--model": ("model", True, None), "--out": ("out", False, None),
        "--verdicts": ("verdicts", True, None),
    },
    "path": {
        "--cases": ("cases", True, None),
        "--fractions": ("fractions", False, "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"),
        "--model": ("model", True, None), "--out": ("out", False, None), "--verdicts": ("verdicts", True, None),
    },
    "randomized": {
        "--cases": ("cases", True, None), "--config": ("config", False, None),
        "--lambdas": ("lambdas", False, "0,0.25,0.5,0.75,1"), "--model": ("model", True, None),
        "--out": ("out", False, None), "--scope": ("scope", False, "less-capable-only"),
        "--seed": ("seed", False, None), "--verdicts": ("verdicts", True, None),
    },
    "report": {
        "--cases": ("cases", True, None), "--config": ("config", False, None), "--draws": ("n_draws", False, None),
        "--grid": ("grid_size", False, None), "--inner-ratio": ("inner_ratio", False, None),
        "--level": ("level", False, None), "--loss": ("loss_kind", False, None),
        "--max-features": ("max_features", False, None), "--min-cases": ("min_cases", False, None),
        "--min-split": ("min_samples_split", False, None), "--no-bootstrap": ("bootstrap", False, None),
        "--out": ("out", False, None), "--outer-ratio": ("outer_ratio", False, None),
        "--prior": ("prior_weight", False, None), "--resamples": ("n_resamples", False, None),
        "--seed": ("seed", False, None), "--trees": ("n_trees", False, None),
    },
}


class TestSubcommandFlags:
    def test_every_subcommand_parses_as_declared(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        parsed = {
            name: {a.option_strings[0]: (a.dest, a.required, a.default) for a in p._actions if a.dest != "help"}
            for name, p in sub.choices.items()
        }
        assert list(parsed) == list(PARSED_FLAGS)
        assert parsed == PARSED_FLAGS

    @pytest.mark.parametrize("command", sorted(UNREAD_FLAGS))
    def test_unread_setting_flag_is_rejected(self, command, workdir, verdicts, tmp_path, capsys):
        inputs = {
            "split": ["--cases", str(workdir["cases"]), "--ratio", "7:3"],
            "train": ["--cases", str(workdir["cases"])],
            "bench-freq": ["--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]), "--min-cases", "1"],
            "bench-bayes": ["--cases", str(workdir["cases"]), "--roc", str(workdir["roc"]), "--min-cases", "1"],
            "randomized": ["--cases", str(workdir["cases"]), "--verdicts", str(verdicts),
                           "--model", str(workdir["model"])],
        }[command]
        for flag in UNREAD_FLAGS[command]:
            out = tmp_path / flag[0].lstrip("-")
            with pytest.raises(SystemExit) as exc:
                main([command, *inputs, "--out", str(out), *flag])
            assert exc.value.code == 2
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            assert f"unrecognized arguments: {' '.join(flag)}" in json.loads(lines[0])["error"]
            assert not out.exists()


class TestConfigResolution:
    def test_config_file_applies(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5, "n_trees": 7, "min_samples_split": 30}))
        model = tmp_path / "f.json"
        assert main([
            "train", "--cases", str(workdir["cases"]), "--config", str(cfg),
            "--out", str(model),
        ]) == 0
        forest = load_forest(model)
        assert forest.params.n_trees == 7
        assert forest.params.seed == RunConfig(seed=5).forest_params().seed

    def test_flags_override_config(self, workdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trees": 7, "min_samples_split": 30}))
        model = tmp_path / "f.json"
        assert main([
            "train", "--cases", str(workdir["cases"]), "--config", str(cfg),
            "--trees", "3", "--out", str(model),
        ]) == 0
        assert load_forest(model).params.n_trees == 3

    def test_unknown_config_key_rejected(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_treez": 7}))
        code = main([
            "train", "--cases", str(workdir["cases"]), "--config", str(cfg),
            "--out", str(tmp_path / "f.json"),
        ])
        assert code == 2
        assert "n_treez" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_runconfig_validation(self):
        with pytest.raises(ValueError):
            RunConfig(level=1.5)
        with pytest.raises(ValueError):
            RunConfig(outer_ratio=(0, 3))
        with pytest.raises(ValueError):
            RunConfig(loss_kind="nonsense")
        with pytest.raises(ValueError):
            RunConfig(prior_weight=0.0)
        # mistyped settings, as a JSON config file can hold them, are refused by name
        for bad, message in [
            ({"bootstrap": "false"}, "^bootstrap must be true or false, got 'false'$"),
            ({"n_trees": "3"}, "^n_trees must be an integer, got '3'$"),
            ({"outer_ratio": [7.9, 3]}, "^outer_ratio must be two positive integers$"),
            ({"inner_ratio": [4, True]}, "^inner_ratio must be two positive integers$"),
            ({"inner_ratio": 4}, "^inner_ratio must be two positive integers$"),
            ({"prior_weight": "0.1"}, "^prior_weight must be a number, got '0.1'$"),
            ({"prior_weight": float("nan")}, "^prior_weight must be positive$"),
            ({"prior_weight": float("inf")}, "^prior_weight must be finite$"),
            ({"prior_weight": 10**400}, "^prior_weight must be finite$"),
            ({"level": True}, "^level must be a number, got True$"),
            ({"level": None}, "^level must be a number, got None$"),
            ({"seed": 1.5}, "^seed must be an integer, got 1.5$"),
            ({"seed": -1}, "^seed must be >= 0$"),
            ({"min_cases": 300.0}, "^min_cases must be an integer, got 300.0$"),
            ({"n_resamples": "100"}, "^n_resamples must be an integer, got '100'$"),
            ({"n_draws": False}, "^n_draws must be an integer, got False$"),
            ({"grid_size": 512.5}, "^grid_size must be an integer, got 512.5$"),
        ]:
            with pytest.raises(ValueError, match=message):
                RunConfig(**bad)
        # numpy numbers pass and are stored as plain ones, so config.json can hold them; the ratios
        # come back as tuples of ints, and a plain int prior weight stays an int
        cfg = RunConfig(seed=np.int64(4), outer_ratio=[np.int32(7), 3], level=np.float32(0.75),
                        n_trees=np.int16(5), min_samples_split=np.uint8(20), n_draws=np.int64(300))
        assert cfg.outer_ratio == (7, 3) and type(cfg.outer_ratio[0]) is int
        assert {name: type(value) for name, value in dataclasses.asdict(cfg).items()} == {
            f.name: type(getattr(RunConfig, f.name)) for f in dataclasses.fields(RunConfig)
        }
        assert (cfg.seed, cfg.level, cfg.n_trees, cfg.min_samples_split, cfg.n_draws) == (4, 0.75, 5, 20, 300)
        assert type(RunConfig(prior_weight=np.float32(0.5)).prior_weight) is float
        assert type(RunConfig(prior_weight=1).prior_weight) is int

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "1", "grid_size must be >= 2"),
        ("--draws", "0", "n_draws must be >= 1"),
        ("--resamples", "0", "n_resamples must be >= 1"),
        ("--trees", "0", "n_trees must be >= 1"),
        ("--max-features", "0", "max_features must be >= 1"),
        ("--min-split", "1", "min_samples_split must be >= 2"),
    ])
    def test_bad_setting_refused_before_the_cases_are_read(self, flag, value, message, tmp_path, capsys):
        argv = ["report", "--cases", str(tmp_path / "missing.csv"), flag, value, "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": f"ValueError: {message}"}

    @pytest.mark.parametrize("command, inputs", [("report", ["--cases"]), ("bench-bayes", ["--cases", "--roc"])])
    @pytest.mark.parametrize("value", ["inf", "Infinity"])
    def test_infinite_prior_refused_before_the_cases_are_read(self, command, inputs, value, tmp_path, capsys):
        # the settings are checked before any input is read, so the missing files are never opened
        argv = [command, "--prior", value, "--out", str(tmp_path / "run")]
        for flag in inputs:
            argv += [flag, str(tmp_path / "missing.csv")]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValueError: prior_weight must be finite"}
        assert not (tmp_path / "run").exists()

    def test_ratio_strings_parsed(self):
        cfg = RunConfig(outer_ratio=(7, 3))
        assert cfg.outer_ratio == (7, 3)


class TestErrorReporting:
    def test_missing_file_is_json_exit_2(self, capsys):
        code = main(["train", "--cases", "/nonexistent/x.csv", "--out", "/tmp/f.json"])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])

    def test_nested_model_from_older_release_is_json_exit_2(self, workdir, tmp_path, capsys):
        model = tmp_path / "old.json"
        model.write_text(json.dumps({
            "n_features": 2,
            "params": {"bootstrap": True, "max_features": 50, "min_samples_split": 20,
                       "n_trees": 1, "seed": 3},
            "trees": [{"feature": 0, "split": 0.5, "left": {"prob": 0.0}, "right": {"prob": 1.0}}],
        }))
        argv = ["roc", "--cases", str(workdir["cases"]), "--model", str(model), "--out", str(tmp_path / "roc.csv")]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error.startswith(f"ValueError: {model}: forest JSON has no format field")

    def test_degenerate_maker_is_named(self, cohort, tmp_path, capsys, monkeypatch):
        _, cases = cohort
        with open(cases, newline="") as fh:
            rows = list(csv.reader(fh))
        maker = rows[1][0]
        y = rows[0].index("y")
        for row in rows[1:]:
            if row[0] == maker:
                row[y] = "1"
        one_class = tmp_path / "cases.csv"
        with open(one_class, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

        def no_training(*args):  # the maker is refused before the forest trains
            raise RuntimeError("the forest trained")

        monkeypatch.setattr(cli, "train_forest", no_training)
        assert main(["report", "--cases", str(one_class), "--out", str(tmp_path / "run")] + REPORT_FLAGS) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(f"DegenerateMakerError: maker {maker!r}: degenerate counts")

    def test_module_entry_point_runs_without_warnings(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-m", "rocbench.cli", "split", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_parser_errors_are_json(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench-bayes"])  # missing required flags
        assert exc.value.code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert "required" in err["error"]


class TestOutEnvVar:
    def test_env_var_sets_default_dir(self, monkeypatch, tmp_path):
        target = tmp_path / "envout"
        monkeypatch.setenv("ROCBENCH_OUT", str(target))
        assert main([
            "simulate", "--dgp", "incentive", "--n", "200", "--seed", "1",
        ]) == 0
        assert (target / "cases.csv").exists()

    @pytest.mark.parametrize("command, default_name", [
        ("train", "forest.json"), ("roc", "roc.csv"), ("bench-freq", "verdicts_freq.csv"),
        ("bench-bayes", "verdicts_bayes.csv"), ("combine", "combined.csv"), ("path", "path.csv"),
        ("randomized", "randomized.csv"),
    ])
    def test_env_var_sets_default_file(self, command, default_name, workdir, verdicts, monkeypatch, tmp_path):
        target = tmp_path / "envout"
        monkeypatch.setenv("ROCBENCH_OUT", str(target))
        cases, model, roc = (str(workdir[k]) for k in ("cases", "model", "roc"))
        inputs = {
            "train": ["--cases", cases, "--trees", "2", "--min-split", "20"],
            "roc": ["--cases", cases, "--model", model],
            "bench-freq": ["--cases", cases, "--roc", roc, "--min-cases", "1", "--resamples", "5"],
            "bench-bayes": ["--cases", cases, "--roc", roc, "--min-cases", "1", "--draws", "50"],
        }.get(command, ["--cases", cases, "--verdicts", str(verdicts), "--model", model])
        assert main([command, *inputs]) == 0
        assert os.listdir(target) == [default_name]

    def test_explicit_out_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ROCBENCH_OUT", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        assert main([
            "simulate", "--dgp", "incentive", "--n", "200", "--out", str(explicit),
        ]) == 0
        assert (explicit / "cases.csv").exists()
        assert not (tmp_path / "ignored").exists()


@pytest.fixture(scope="module")
def pair_cohort(tmp_path_factory):
    """Two makers: fewer than the CPUs of a three-CPU mask."""
    root = tmp_path_factory.mktemp("pair")
    assert main([
        "simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "2",
        "--cases-per-maker", "400", "--seed", "12", "--out", str(root / "sim"),
    ]) == 0
    return root, root / "sim" / "cases.csv"


def _outputs(out: Path) -> dict:
    """Every file under ``out``, by relative path, with its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


class TestCpuMasks:
    """The verdict stage runs one block of makers per CPU; outputs and errors do not depend on the mask."""

    BENCH_RUNS = {
        "freq_bootstrap.csv": ["bench-freq", "--resamples", "30"],
        "freq_asymptotic.csv": ["bench-freq", "--cov", "asymptotic"],
        "bayes.csv": ["bench-bayes", "--draws", "500"],
    }

    @pytest.mark.parametrize("which", ["cohort", "pair_cohort"])  # 6 makers in 3 blocks; 2 makers in 2
    def test_outputs_do_not_depend_on_the_mask(self, request, which, cpu_mask, tmp_path):
        _, cases = request.getfixturevalue(which)
        runs = []
        for mask in (1, 3):
            cpu_mask(mask)
            out = tmp_path / f"cpus{mask}"
            assert main(["report", "--cases", str(cases), "--out", str(out / "report")] + REPORT_FLAGS) == 0
            for name, argv in self.BENCH_RUNS.items():
                assert main([
                    *argv, "--cases", str(cases), "--roc", str(out / "report" / "roc_validation.csv"),
                    "--min-cases", "50", "--seed", "11", "--out", str(out / name),
                ]) == 0
            assert multiprocessing.active_children() == []
            runs.append(_outputs(out))
        assert len(runs[0]) == 11 + len(self.BENCH_RUNS)
        assert runs[0] == runs[1]

    def test_the_lowest_failing_block_is_reported(self, cohort, workdir, cpu_mask, monkeypatch, capfd):
        # six makers in four blocks: the parent benchmarks maker 0, three workers makers 1-2, 3 and 4-5;
        # maker 2's bootstrap aborts after maker 4's has, and maker 2 is named under every mask, on every run
        _, cases = cohort
        makers = read_cases_csv(cases).counts_by_maker()
        counts = list(makers.values())
        assert len(set(counts)) == 6
        boot = frequentist.bootstrap_covariance

        def abort(c, *rest):
            if c in (counts[2], counts[4]):
                time.sleep(0.3 if c == counts[2] else 0.0)
                raise RuntimeError("bootstrap aborted")
            return boot(c, *rest)

        monkeypatch.setattr(frequentist, "bootstrap_covariance", abort)
        expected = json.dumps({"error": f"RuntimeError: maker {list(makers)[2]!r}: bootstrap aborted"}) + "\n"
        for mask in (1, 2, 4, 4, 4):
            cpu_mask(mask)
            assert main(["bench-freq", "--cases", str(cases), "--roc", str(workdir["roc"]), "--min-cases", "50",
                         "--out", os.devnull]) == 2
            assert capfd.readouterr().err == expected, mask
            assert multiprocessing.active_children() == []


@st.composite
def tiny_cohorts(draw):
    """Cases rows of 1-3 makers: all features tied, or one separating the classes; makers answering 1 always."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feature = draw(st.sampled_from(["tied", "separating", "noise"]))
    rows = []
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(4, 40))
        y = (rng.random(n) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(int)
        y_hat = {"ones": np.ones(n, dtype=int), "truth": y, "coin": rng.integers(0, 2, n)}[
            draw(st.sampled_from(["ones", "truth", "coin"]))
        ]
        x = {"tied": np.zeros(n), "separating": y.astype(float), "noise": rng.normal(size=n)}[feature]
        rows += [f"m{k},{a},{b},{c!r}" for a, b, c in zip(y.tolist(), y_hat.tolist(), x.tolist())]
    return rows


class TestTinyDegenerateCohorts:
    @given(tiny_cohorts())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_report_exits_cleanly_and_alike_under_any_mask(self, cpu_mask, capfd, rows):
        # exit 0 with nothing on stderr, or exit 2 with one JSON line; never a traceback or a warning
        with tempfile.TemporaryDirectory() as root:
            cases = Path(root) / "cases.csv"
            cases.write_text("\n".join(["maker_id,y,y_hat,f1", *rows]) + "\n")
            runs = []
            for mask in (1, 3):
                cpu_mask(mask)
                capfd.readouterr()
                out = Path(root) / f"cpus{mask}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(["report", "--cases", str(cases), "--out", str(out), "--min-cases", "1",
                                 "--trees", "2", "--min-split", "2", "--draws", "50", "--resamples", "10",
                                 "--grid", "16"])
                captured = capfd.readouterr()
                assert [str(w.message) for w in caught] == []
                assert multiprocessing.active_children() == []
                assert "Traceback" not in captured.out + captured.err
                if code == 0:
                    assert captured.err == ""
                else:
                    assert code == 2
                    lines = captured.err.splitlines()
                    assert len(lines) == 1 and list(json.loads(lines[0])) == ["error"]
                runs.append((code, captured.err, _outputs(out) if code == 0 else None))
            assert runs[0] == runs[1]
