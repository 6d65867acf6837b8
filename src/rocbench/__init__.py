"""Benchmark human decision makers against a machine classifier's ROC curve.

The package covers the full workflow: tally confusion counts per maker,
build the machine's empirical ROC polyline, test each maker's rate pair
against the curve with either confidence ellipses or Dirichlet
posteriors, decide who to replace (and at which machine threshold), and
evaluate the mixed human/machine cohort.  Synthetic generators with
closed-form truths exercise every stage.
"""

import importlib

# Each module's ``__all__`` is the one list of its public names.
from .core import *
from .rng import *
from .roc import *
from .forest import *
from .frequentist import *
from .bayes import *
from .replacement import *

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
