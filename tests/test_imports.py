"""``report`` and ``simulate`` run without scipy, readers print nothing, and the quantiles left match ``scipy.stats``."""

import filecmp
import importlib
import math
import os
import subprocess
import sys
import types
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import rocbench
from rocbench.cli import main
from rocbench.core import ConfusionCounts, RatePair
from rocbench.frequentist import confidence_ellipse, delta_method_test
from rocbench.roc import RocCurve
from rocbench.synthetic import PredictedDoctorSpec, generate_predicted_doctor

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
# the edge values 0 and 1, dense interior levels and the tails
GRID = np.unique(np.r_[0.0, 1.0, np.linspace(0.0, 1.0, 20001), np.logspace(-300, -1, 600),
                       1.0 - np.logspace(-16, -1, 300)])
INTERIOR = GRID[(GRID > 0.0) & (GRID < 1.0)]


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_stats_out():
    for module in ("rocbench", "rocbench.cli"):
        proc = _run(f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module


def test_package_exports_each_modules_all():
    modules = ("core", "rng", "roc", "forest", "frequentist", "bayes", "replacement", "synthetic")
    declared = {name for m in modules for name in importlib.import_module(f"rocbench.{m}").__all__}
    modules_bound = {n for n, v in vars(rocbench).items() if isinstance(v, types.ModuleType)}
    public = {n for n in dir(rocbench) if not n.startswith("_")} - modules_bound
    assert public == declared
    # the readers a benchmark fetches from the package to re-read a report's outputs
    assert {"read_roc_csv", "read_bayesian_csv", "read_frequentist_csv", "load_forest"} <= public


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """(``report`` argv without ``--out``, its output directory) of a small cohort."""
    root = tmp_path_factory.mktemp("report")
    assert main(["simulate", "--dgp", "heterogeneous-cutoffs", "--n-makers", "4",
                 "--cases-per-maker", "200", "--seed", "5", "--out", str(root / "sim")]) == 0
    argv = ["report", "--cases", str(root / "sim" / "cases.csv"), "--trees", "5", "--min-split", "20",
            "--draws", "300", "--resamples", "30", "--min-cases", "50", "--seed", "5"]
    assert main([*argv, "--out", str(root / "free")]) == 0
    return argv, root / "free"


def test_report_runs_with_scipy_blocked(tmp_path, small_report):
    argv, free = small_report
    blocked = [*argv, "--out", str(tmp_path / "blocked")]
    proc = _run(f'import sys; sys.modules["scipy"] = None; from rocbench.cli import main; sys.exit(main({blocked!r}))')
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    names = sorted(os.listdir(free))
    assert len(names) == 11 and names == sorted(os.listdir(tmp_path / "blocked"))
    _, mismatch, errors = filecmp.cmpfiles(free, tmp_path / "blocked", names, shallow=False)
    assert mismatch == [] and errors == []


def test_report_leaves_numpy_ma_unloaded(tmp_path, small_report):
    # importing numpy.ma costs 12-18 ms a process; numpy 2 loads it only on use (numpy 1 with numpy itself)
    argv, _ = small_report
    argv = [*argv, "--out", str(tmp_path / "out")]
    proc = _run("import sys, numpy; before = 'numpy.ma' in sys.modules; from rocbench.cli import main\n"
                f"assert main({argv!r}) == 0\nprint(before, 'numpy.ma' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() in (["False", "False"], ["True", "True"])


# every generator at a tiny size: complementarity with its hidden signal and drawn groups, each
# predicted-doctor scenario, the incentive rule and the heterogeneous cutoffs
SIMULATIONS = (
    ["--dgp", "complementarity", "--n-cases", "600", "--n-makers", "6", "--export-hidden", "--shuffle-groups",
     "--capable-fraction", "0.5"],
    *(["--dgp", "predicted-doctor", "--scenario", str(k), "--n", "500"] for k in (1, 2, 3)),
    ["--dgp", "incentive", "--n", "500"],
    ["--dgp", "heterogeneous-cutoffs", "--n-makers", "4", "--cases-per-maker", "100"],
)


def test_simulate_runs_with_scipy_blocked_and_loads_none(tmp_path):
    for run, block in (("free", ""), ("blocked", 'sys.modules["scipy"] = None; ')):
        argvs = [["simulate", *argv, "--seed", "3", "--out", str(tmp_path / run / str(k))]
                 for k, argv in enumerate(SIMULATIONS)]
        proc = _run(f"import sys; {block}from rocbench.cli import main\n"
                    f"for argv in {argvs!r}:\n    assert main(argv) == 0, argv\n"
                    "print(sorted(m for m, v in sys.modules.items() if v is not None and m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout.strip() == "[]", run
    for k, argv in enumerate(SIMULATIONS):
        names = ["cases.csv", "manifest.json"]
        assert sorted(os.listdir(tmp_path / "free" / str(k))) == names, argv
        _, mismatch, errors = filecmp.cmpfiles(tmp_path / "free" / str(k), tmp_path / "blocked" / str(k), names,
                                               shallow=False)
        assert mismatch == [] and errors == [], argv


def test_readers_print_nothing(small_report):
    # a benchmark that re-reads the outputs in its own process takes its last stdout line as the result
    _, out = small_report
    readers = (("read_roc_csv", "roc_validation.csv"), ("read_roc_csv", "roc_performance.csv"),
               ("read_bayesian_csv", "verdicts_bayes.csv"), ("read_frequentist_csv", "verdicts_freq.csv"),
               ("load_forest", "forest.json"))
    calls = "; ".join(f"rocbench.{reader}({str(out / name)!r})" for reader, name in readers)
    proc = _run(f"import rocbench; {calls}")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def _neg_log1m(q: float) -> Decimal:
    """-ln(1 - q) to 60 digits; 1 - q would lose the small levels, so they sum the series."""
    x = Decimal(q)
    if q >= 1e-3:
        return -(1 - x).ln()
    total, power, k = Decimal(0), x, 1
    while power > total * Decimal("1e-62"):
        total += power / k
        power *= x
        k += 1
    return total


def test_chi2_quantile_within_one_ulp_of_exact():
    cov = np.array([[0.01, 0.002], [0.002, 0.02]])
    with localcontext() as ctx:
        ctx.prec = 60
        for q in INTERIOR:
            got = confidence_ellipse(RatePair(0.2, 0.7), cov, q).chi2_quantile
            exact = 2 * _neg_log1m(float(q))
            assert abs(Decimal(got) - exact) <= Decimal(math.ulp(got)), q


def test_normal_quantile_matches_scipy_stats():
    np.testing.assert_array_equal(special.ndtri(GRID), stats.norm.ppf(GRID))
    counts = ConfusionCounts(n11=30, n01=30, n10=70, n00=70)
    roc = RocCurve([2.0, 0.5, -1.0], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    got = [delta_method_test(counts, roc, size=q).critical for q in INTERIOR[::20]]
    np.testing.assert_array_equal(got, stats.norm.ppf(INTERIOR[::20]))


def test_normal_tail_matches_scipy_stats():
    x = np.r_[-np.inf, np.inf, np.linspace(-40.0, 40.0, 40001)]
    np.testing.assert_array_equal(special.ndtr(-x), stats.norm.sf(x))
    spec = PredictedDoctorSpec(scenario=2, n=10)
    result = generate_predicted_doctor(spec)
    feats = np.column_stack([np.linspace(-8.0, 8.0, 4001), np.linspace(3.0, -3.0, 4001)])
    cut = float(special.logit(spec.c0))
    np.testing.assert_array_equal(
        result.predicted_score(feats), stats.norm.sf((cut - feats[:, 0] + feats[:, 1]) / 2.0)
    )
