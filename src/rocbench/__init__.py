"""Benchmark human decision makers against a machine classifier's ROC curve.

The package covers the full workflow: tally confusion counts per maker,
build the machine's empirical ROC polyline, test each maker's rate pair
against the curve with either confidence ellipses or Dirichlet
posteriors, decide who to replace (and at which machine threshold), and
evaluate the mixed human/machine cohort.  Synthetic generators with
closed-form truths exercise every stage.
"""

# Each module's ``__all__`` is the one list of its public names.
from .core import *
from .rng import *
from .roc import *
from .forest import *
from .frequentist import *
from .bayes import *
from .replacement import *
from .synthetic import *

# ``rocbench.cli`` (the CLI and its RunConfig) stays out, so ``python -m rocbench.cli`` runs it once.

__version__ = "0.1.0"
