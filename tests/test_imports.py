"""The package needs ``scipy.special`` only, and its quantiles match ``scipy.stats``."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special, stats

from rocbench.core import ConfusionCounts, RatePair
from rocbench.frequentist import confidence_ellipse, delta_method_test
from rocbench.roc import RocCurve
from rocbench.synthetic import PredictedDoctorSpec, generate_predicted_doctor

ROOT = Path(__file__).resolve().parent.parent
# the edge values 0 and 1, dense interior levels and the tails
GRID = np.unique(np.r_[0.0, 1.0, np.linspace(0.0, 1.0, 20001), np.logspace(-300, -1, 600),
                       1.0 - np.logspace(-16, -1, 300)])
INTERIOR = GRID[(GRID > 0.0) & (GRID < 1.0)]


def test_cli_import_leaves_scipy_stats_out():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, rocbench.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_chi2_quantile_matches_scipy_stats():
    np.testing.assert_array_equal(2.0 * special.gammaincinv(1.0, GRID), stats.chi2.ppf(GRID, df=2))
    cov = np.array([[0.01, 0.002], [0.002, 0.02]])
    got = [confidence_ellipse(RatePair(0.2, 0.7), cov, q).chi2_quantile for q in INTERIOR[::20]]
    np.testing.assert_array_equal(got, stats.chi2.ppf(INTERIOR[::20], df=2))


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
