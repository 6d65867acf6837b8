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
from .synthetic import *

# RunConfig lives in the CLI module, so it loads on first use:
# ``python -m rocbench.cli`` then finds the CLI not yet imported.
_LAZY = {"RunConfig": "cli"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
