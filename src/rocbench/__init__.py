"""Benchmark human decision makers against a machine classifier's ROC curve.

The package covers the full workflow: tally confusion counts per maker,
build the machine's empirical ROC polyline, test each maker's rate pair
against the curve with either confidence ellipses or Dirichlet
posteriors, decide who to replace (and at which machine threshold), and
evaluate the mixed human/machine cohort.  Synthetic generators with
closed-form truths exercise every stage.
"""

import importlib

from .core import (
    CohortDataset,
    ConfusionCounts,
    DegenerateMakerError,
    RatePair,
    rate_pair,
    read_cases_csv,
    stratified_split,
    tally_confusion,
    write_cases_csv,
)
from .rng import substream
from .roc import (
    DominatingSegment,
    RocCurve,
    build_roc,
    np_best_vertex,
    np_objective,
    read_roc_csv,
    write_roc_csv,
)
from .forest import (
    Forest,
    ForestParams,
    forest_from_json,
    forest_to_json,
    load_forest,
    save_forest,
    train_forest,
)
from .frequentist import (
    BootstrapPairs,
    CaseLabel,
    DeltaTestResult,
    EllipseSet,
    asymptotic_covariance,
    benchmark_maker_frequentist,
    bootstrap_covariance,
    bootstrap_pairs,
    classify_maker,
    confidence_ellipse,
    delta_method_test,
    read_frequentist_csv,
    sample_thresholds,
    write_frequentist_csv,
)
from .bayes import (
    CostBenefitLoss,
    DirichletParams,
    DominanceResult,
    LossKind,
    PosteriorDraws,
    RetentionMethod,
    RetentionResult,
    benchmark_maker_bayesian,
    curve_candidate_grid,
    loss_eval,
    max_dominance,
    min_posterior_loss,
    posterior_params,
    prob_below_roc,
    read_bayesian_csv,
    replace_decision,
    reversed_null_retain,
    sample_posterior,
    write_bayesian_csv,
)
from .replacement import (
    AcceptanceSchedule,
    CombinedResult,
    PathPoint,
    RandomizedResult,
    Verdicts,
    combine_decisions,
    randomized_accept,
    replacement_path,
    write_combined_csv,
    write_path_csv,
    write_randomized_csv,
)
# The synthetic generators need scipy.special and RunConfig lives in the
# CLI module, so both load on first use: importing the package stays
# scipy-free, and ``python -m rocbench.cli`` finds the CLI not yet imported.
_LAZY = {
    **dict.fromkeys(
        (
            "ComplementaritySpec",
            "HeterogeneousCutoffsSpec",
            "IncentiveSpec",
            "PredictedDoctorSpec",
            "concave_reference_roc",
            "concave_reference_tpr",
            "cutoff_pair",
            "generate_complementarity",
            "generate_heterogeneous_cutoffs",
            "generate_incentive",
            "generate_predicted_doctor",
            "incentive_analytic",
        ),
        "synthetic",
    ),
    "RunConfig": "cli",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
