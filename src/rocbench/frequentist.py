"""Frequentist benchmarking of a maker against a machine ROC curve.

The sampling model treats a maker's four confusion counts as one draw
of a multinomial; the empirical rate pair (alpha_hat, beta_hat) is then
asymptotically normal around the true pair with covariance

    diag( alpha (1 - alpha) / (1 - p),  beta (1 - beta) / p ) / n

where p is the positive base rate.  An elliptical confidence set built
from that covariance (plug-in or bootstrap) drives a three-way call:

  case1  the ellipse's most favorable corner sits strictly below the
         curve, so some curve stretch dominates the maker: replace;
  case2  the corner is on or above the curve but the whole ellipse is
         strictly below it: retain;
  case3  part of the ellipse reaches the curve or beyond: retain.

A sharper one-sided test of "the maker is on or above the curve"
against "strictly below" uses the delta method along the curve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfusionCounts, RatePair, naming_maker, rate_pair
from .csvio import format_float, format_optional, parse_float, parse_optional, read_fields, write_fields
from .replacement import Verdicts
from .rng import _draw_kept
from .roc import _ON_CURVE_TOL, DominatingSegment, RocCurve

__all__ = [
    "CaseLabel",
    "EllipseSet",
    "BootstrapPairs",
    "DeltaTestResult",
    "asymptotic_covariance",
    "bootstrap_pairs",
    "bootstrap_covariance",
    "confidence_ellipse",
    "classify_maker",
    "delta_method_test",
    "sample_thresholds",
    "benchmark_maker_frequentist",
    "write_frequentist_csv",
    "read_frequentist_csv",
]

_VAR_FLOOR = 1e-12


class CaseLabel(enum.Enum):
    CASE1 = "case1"  # replace: ellipse corner strictly below the curve
    CASE2 = "case2"  # retain: corner above, ellipse fully below
    CASE3 = "case3"  # retain: ellipse mass reaches the curve

    @property
    def replace(self) -> bool:
        return self is CaseLabel.CASE1


def asymptotic_covariance(counts: ConfusionCounts) -> np.ndarray:
    """Plug-in covariance of sqrt(n) * (alpha_hat, beta_hat); caller divides by n."""
    alpha, beta = rate_pair(counts)
    p_hat = (counts.n11 + counts.n10) / counts.n
    return np.diag(
        [alpha * (1 - alpha) / (1 - p_hat), beta * (1 - beta) / p_hat]
    )


@dataclass(frozen=True)
class BootstrapPairs:
    alphas: np.ndarray
    betas: np.ndarray
    n_redrawn: int


def bootstrap_pairs(
    counts: ConfusionCounts, n_resamples: int, seed: int | np.random.Generator
) -> BootstrapPairs:
    """Rate pairs of case resamples (with replacement, original size).

    Resamples that lose an outcome class are redrawn and counted; if
    degenerate draws ever outnumber the requested resamples the maker's
    counts are too close to one-class and the bootstrap aborts.
    """
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    rate_pair(counts)  # validates non-degeneracy
    n = counts.n
    t_hat = np.array([counts.n11, counts.n01, counts.n10, counts.n00]) / n
    rng = np.random.default_rng(seed)
    draws, n_redrawn = _draw_kept(
        lambda k: rng.multinomial(n, t_hat, size=k),
        lambda d: ((d[:, 0] + d[:, 2]) > 0) & ((d[:, 1] + d[:, 3]) > 0),
        n_resamples, n_resamples,
        lambda k: f"bootstrap aborted: {k} degenerate resamples exceed the {n_resamples} requested; "
                  f"counts {counts} are too unbalanced",
    )
    alphas = draws[:, 1] / (draws[:, 1] + draws[:, 3])
    betas = draws[:, 0] / (draws[:, 0] + draws[:, 2])
    return BootstrapPairs(alphas=alphas, betas=betas, n_redrawn=n_redrawn)


def bootstrap_covariance(
    counts: ConfusionCounts, n_resamples: int, seed: int | np.random.Generator
) -> np.ndarray:
    """2x2 sample covariance of bootstrapped rate pairs."""
    boot = bootstrap_pairs(counts, n_resamples, seed)
    return np.cov(np.vstack([boot.alphas, boot.betas]), ddof=1)


@dataclass(frozen=True)
class EllipseSet:
    """Elliptical confidence set for the true rate pair.

    ``cov`` is the covariance of the *estimator* (already scaled by 1/n);
    membership is a Mahalanobis test against the chi-square(2) quantile.
    """

    center: RatePair
    cov: np.ndarray
    level: float
    chi2_quantile: float

    def _inverse(self) -> np.ndarray:
        try:
            return np.linalg.inv(self.cov)
        except np.linalg.LinAlgError:
            return np.linalg.inv(self.cov + _VAR_FLOOR * np.eye(2))

    def contains(self, pair) -> bool:
        d = np.asarray([pair[0] - self.center.alpha, pair[1] - self.center.beta])
        return float(d @ self._inverse() @ d) <= self.chi2_quantile * (1 + 1e-9)

    def reference_point(self) -> RatePair:
        """Most favorable corner: smallest fpr paired with largest tpr.

        These are the exact per-coordinate extremes of the ellipse,
        clipped to the unit square.
        """
        r = np.sqrt(self.chi2_quantile * np.diag(self.cov))
        return RatePair(
            float(np.clip(self.center.alpha - r[0], 0.0, 1.0)),
            float(np.clip(self.center.beta + r[1], 0.0, 1.0)),
        )


def confidence_ellipse(center: RatePair, cov, level: float) -> EllipseSet:
    """Level-``level`` confidence ellipse centered at the sample rate pair."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    cov = np.array(cov, dtype=np.float64)
    if cov.shape != (2, 2) or not np.isfinite(cov).all():  # one resample gives a NaN covariance
        raise ValueError("cov must be a finite 2x2 matrix")
    cov[0, 0] = max(cov[0, 0], _VAR_FLOOR)  # boundary rates collapse the ellipse
    cov[1, 1] = max(cov[1, 1], _VAR_FLOOR)
    cov.flags.writeable = False
    q = -2.0 * math.log1p(-level)  # chi-square(2) quantile, closed form
    center = RatePair(float(center[0]), float(center[1]))
    return EllipseSet(center=center, cov=cov, level=level, chi2_quantile=q)


def classify_maker(ellipse: EllipseSet, roc: RocCurve) -> CaseLabel:
    """Three-way replace/retain call from the ellipse's position, exact up to the on-curve tolerance."""
    p = ellipse.reference_point()
    if roc.tpr_at_fpr(p.alpha) - p.beta > _ON_CURVE_TOL:
        return CaseLabel.CASE1
    if roc.ellipse_gap(ellipse.center, ellipse.cov, ellipse.chi2_quantile) >= -_ON_CURVE_TOL:
        return CaseLabel.CASE3
    return CaseLabel.CASE2


@dataclass(frozen=True)
class DeltaTestResult:
    statistic: float
    critical: float
    reject: bool


def delta_method_test(counts: ConfusionCounts, roc: RocCurve, size: float = 0.05) -> DeltaTestResult:
    """One-sided test of on-or-above-curve against strictly-below.

    The statistic is sqrt(n) (beta_hat - g(alpha_hat)) standardized by
    the delta-method variance along the curve; reject (conclude below)
    when it falls at or under the lower normal quantile of ``size``.
    """
    from scipy.special import ndtri  # kept out of the import of the package

    if not 0.0 < size < 1.0:
        raise ValueError("size must be in (0, 1)")
    pair = rate_pair(counts)
    sigma = asymptotic_covariance(counts)
    slope = roc.slope_at(pair.alpha)
    var = slope * slope * sigma[0, 0] + sigma[1, 1]
    if var <= 0.0:
        raise ValueError("boundary rates give a zero delta-method variance")
    stat = np.sqrt(counts.n) * (pair.beta - roc.tpr_at_fpr(pair.alpha)) / np.sqrt(var)
    crit = float(ndtri(size))
    return DeltaTestResult(statistic=float(stat), critical=crit, reject=bool(stat <= crit))


def sample_thresholds(
    roc: RocCurve, segment: DominatingSegment, n_thresholds: int
) -> list[tuple[float, RatePair]]:
    """Evenly spaced thresholds across a dominating stretch, with curve pairs."""
    if n_thresholds < 2:
        raise ValueError("n_thresholds must be >= 2")
    cs = np.linspace(segment.c_lower, segment.c_upper, n_thresholds)
    return [(float(c), roc.pair_at_threshold(c)) for c in cs]


def _verdict_row(row: dict) -> dict:
    """``row`` with ``replace`` and ``threshold`` set from its label and dominating cuts.

    A case1 row needs both cuts, c_lower <= c_upper, and its threshold
    is their midpoint; a retained row has neither cut nor threshold.
    """
    label = CaseLabel(row["case_label"])
    lower, upper = row["c_lower"], row["c_upper"]
    if label.replace and not lower <= upper:  # a missing (NaN) cut fails too
        raise ValueError(f"case1 needs both cuts with c_lower <= c_upper, got {lower} and {upper}")
    if not label.replace and not (math.isnan(lower) and math.isnan(upper)):
        raise ValueError(f"{label.value} takes no cuts, got {lower} and {upper}")
    threshold = 0.5 * (lower + upper)
    if math.isinf(threshold):  # the sum overflowed; halving first cannot
        threshold = 0.5 * lower + 0.5 * upper
    return {**row, "replace": label.replace, "threshold": threshold}


def benchmark_maker_frequentist(
    maker_id: str,
    counts: ConfusionCounts,
    roc: RocCurve,
    level: float = 0.95,
    n_resamples: int = 100,
    seed: int | np.random.Generator = 0,
    cov_method: str = "bootstrap",
) -> dict:
    """Full per-maker frequentist run: ellipse, three-way call, segment; one verdict row."""
    with naming_maker(maker_id):
        pair = rate_pair(counts)
        if cov_method == "bootstrap":
            cov = bootstrap_covariance(counts, n_resamples, seed)
        elif cov_method == "asymptotic":
            cov = asymptotic_covariance(counts) / counts.n
        else:
            raise ValueError(f"unknown cov_method {cov_method!r}")
        ellipse = confidence_ellipse(pair, cov, level)
        label = classify_maker(ellipse, roc)
        segment = None
        if label.replace:
            segment = roc.dominating_segment(ellipse.reference_point())
            if segment is None:  # not reachable: case1 means the corner is below
                raise RuntimeError("case1 classification without a dominating segment")
    cuts = (math.nan, math.nan) if segment is None else (segment.c_lower, segment.c_upper)
    return _verdict_row({
        "maker_id": maker_id, "n": counts.n, "alpha_hat": pair.alpha, "beta_hat": pair.beta,
        "case_label": label.value, "c_lower": cuts[0], "c_upper": cuts[1],
    })


# -- CSV interchange ---------------------------------------------------
#
# The threshold cells c_lower and c_upper are empty for retained makers.

_FREQ_FILE = (
    ("maker_id", str, str),
    ("n", str, int),
    ("alpha_hat", format_float, parse_float),
    ("beta_hat", format_float, parse_float),
    ("case_label", str, str),
    ("c_lower", format_optional, parse_optional),
    ("c_upper", format_optional, parse_optional),
)


def write_frequentist_csv(path, verdicts: Verdicts) -> None:
    write_fields(path, _FREQ_FILE, verdicts)


def read_frequentist_csv(path) -> Verdicts:
    rows = read_fields(path, _FREQ_FILE, _verdict_row, unique="maker_id")
    return Verdicts.from_rows(rows, [*(name for name, _, _ in _FREQ_FILE), "replace", "threshold"])
