"""Combining maker and machine decisions on an evaluation cohort.

Three evaluation modes share one primitive: for each case either keep
the maker's recorded call or apply the machine rule
``positive iff score > threshold``, where ``score`` is the machine's
score of that case (one array entry per case, computed once by the
caller) and ``threshold`` the maker's personal replacement threshold.

* ``combine_decisions``  replace exactly the makers whose verdict says so;
* ``replacement_path``   force-replace the lowest-loss fraction of makers,
  sweeping the fraction from 0 (all human) to 1 (all machine);
* ``randomized_accept``  per case flip a coin with maker-specific weight
  lambda: machine decision when the uniform draw falls at or below
  lambda, the maker's decision otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import CohortDataset, ConfusionCounts, RatePair, rate_pair, tally_confusion
from .csvio import format_float, write_table

__all__ = [
    "ReplacementVerdict",
    "AcceptanceSchedule",
    "CombinedResult",
    "PathPoint",
    "combine_decisions",
    "replacement_path",
    "randomized_accept",
    "write_path_csv",
    "write_randomized_csv",
    "write_combined_csv",
]

@dataclass(frozen=True)
class ReplacementVerdict:
    """Replace/retain call for one maker plus its machine threshold.

    ``threshold`` must be present when ``replace`` is set; retained
    makers may still carry one (their best curve point) so that forced
    sweeps and randomized schedules can cover every maker.
    """

    maker_id: str
    replace: bool
    threshold: float | None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.replace and self.threshold is None:
            raise ValueError(f"maker {self.maker_id}: replacement requires a threshold")


def _checked_inputs(
    data: CohortDataset, verdicts, scores
) -> tuple[dict[str, ReplacementVerdict], np.ndarray]:
    """Verdicts by maker, and the machine's call on every case.

    The call is ``score > threshold`` at the case's maker threshold; it
    is False for makers whose verdict carries no threshold.
    """
    vmap = {v.maker_id: v for v in verdicts}
    missing = [m for m in data.makers if m not in vmap]
    if missing:
        raise ValueError(f"no verdict for makers: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (data.n_cases,):
        raise ValueError(f"scores must hold one score per case ({data.n_cases}), got shape {scores.shape}")
    # a missing threshold becomes NaN, and no score is above NaN
    thr_by_maker = np.array([vmap[m].threshold for m in data.makers], dtype=np.float64)
    return vmap, scores > thr_by_maker[data.maker_index]


@dataclass(frozen=True)
class CombinedResult:
    pair: RatePair
    counts: ConfusionCounts
    replaced: tuple[str, ...]

    @property
    def n_replaced(self) -> int:
        return len(self.replaced)


def _evaluate(data: CohortDataset, machine: np.ndarray, replace_by_maker: np.ndarray) -> CombinedResult:
    counts = tally_confusion(data.y, np.where(replace_by_maker[data.maker_index], machine, data.y_hat))
    return CombinedResult(
        pair=rate_pair(counts),
        counts=counts,
        replaced=tuple(sorted(m for m, r in zip(data.makers, replace_by_maker) if r)),
    )


def combine_decisions(
    performance: CohortDataset,
    verdicts,
    scores: np.ndarray,
) -> CombinedResult:
    """Pooled rate pair with replace-flagged makers run by the machine.

    ``scores`` holds the machine's score of each performance case.
    """
    vmap, machine = _checked_inputs(performance, verdicts, scores)
    replace = np.array([vmap[m].replace for m in performance.makers], dtype=bool)
    return _evaluate(performance, machine, replace)


@dataclass(frozen=True)
class PathPoint:
    fraction: float
    n_replaced: int
    pair: RatePair


def replacement_path(
    performance: CohortDataset,
    verdicts,
    fractions: Sequence[float],
    scores: np.ndarray,
) -> list[PathPoint]:
    """Pooled pairs as the most replaceable makers are swapped out.

    Makers are ranked by ascending posterior loss (``min_loss`` in the
    verdict diagnostics, ties broken by maker id); a fraction f swaps
    the first round(f * n_makers) of them, halves rounding up.  Every
    maker needs a threshold since f = 1 replaces them all.
    """
    vmap, machine = _checked_inputs(performance, verdicts, scores)
    for m in performance.makers:
        if vmap[m].threshold is None:
            raise ValueError(f"maker {m} has no threshold; the sweep must be able to replace everyone")
        if "min_loss" not in vmap[m].diagnostics:
            raise ValueError(f"maker {m} verdict lacks a min_loss diagnostic")
    makers = performance.makers
    ranked = sorted(range(len(makers)), key=lambda i: (vmap[makers[i]].diagnostics["min_loss"], makers[i]))
    out = []
    for f in fractions:
        f = float(f)
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fraction {f} outside [0, 1]")
        k = int(math.floor(f * len(ranked) + 0.5))
        replace = np.zeros(len(makers), dtype=bool)
        replace[ranked[:k]] = True
        result = _evaluate(performance, machine, replace)
        out.append(PathPoint(fraction=f, n_replaced=k, pair=result.pair))
    return out


@dataclass(frozen=True)
class AcceptanceSchedule:
    """Per-maker mixing weights for randomized acceptance.

    ``constant`` gives one lambda to every maker in scope;
    ``linear-by-rank`` ranks makers by descending posterior loss (rank 1
    = most capable) and assigns lambda = (r-1)/(n-1), or (n-r)/(n-1)
    for the ``reverse`` direction.  Scope ``less-capable-only`` zeroes
    the weight of makers whose verdict kept them.
    """

    kind: str  # "constant" | "linear-by-rank"
    lam: float | None = None
    direction: str | None = None  # "less-capable-more" | "reverse"
    scope: str = "less-capable-only"  # or "all-makers"

    def __post_init__(self):
        if self.kind not in ("constant", "linear-by-rank"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.scope not in ("less-capable-only", "all-makers"):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.kind == "constant":
            if self.lam is None or not 0.0 <= self.lam <= 1.0:
                raise ValueError("constant schedule needs lambda in [0, 1]")
        else:
            if self.direction not in ("less-capable-more", "reverse"):
                raise ValueError("linear-by-rank needs a direction")

    @classmethod
    def constant(cls, lam: float, scope: str = "less-capable-only") -> "AcceptanceSchedule":
        return cls(kind="constant", lam=lam, scope=scope)

    @classmethod
    def linear_by_rank(
        cls, direction: str = "less-capable-more", scope: str = "all-makers"
    ) -> "AcceptanceSchedule":
        return cls(kind="linear-by-rank", direction=direction, scope=scope)

    def resolve(self, makers: Sequence[str], vmap: dict[str, ReplacementVerdict]) -> dict[str, float]:
        if self.kind == "constant":
            lams = {m: self.lam for m in makers}
        else:
            if len(makers) < 2:
                raise ValueError("rank schedule needs at least two makers")
            for m in makers:
                if "min_loss" not in vmap[m].diagnostics:
                    raise ValueError(f"maker {m} verdict lacks a min_loss diagnostic")
            # rank 1 = most capable = largest posterior loss of replacing them
            ranked = sorted(makers, key=lambda m: (-vmap[m].diagnostics["min_loss"], m))
            n = len(ranked)
            lams = {}
            for r, m in enumerate(ranked, start=1):
                lams[m] = (r - 1) / (n - 1) if self.direction == "less-capable-more" else (n - r) / (n - 1)
        if self.scope == "less-capable-only":
            for m in makers:
                if not vmap[m].replace:
                    lams[m] = 0.0
        return lams


@dataclass(frozen=True)
class RandomizedResult:
    pair: RatePair
    counts: ConfusionCounts
    lambdas: dict[str, float]


def randomized_accept(
    performance: CohortDataset,
    verdicts,
    schedule: AcceptanceSchedule,
    scores: np.ndarray,
    seed: int | np.random.Generator,
) -> RandomizedResult:
    """Per-case coin flip between maker and machine decisions.

    One uniform draw per case, in cohort order: the machine's call is
    used when the draw is at or below the maker's lambda.  lambda = 0
    reproduces the makers exactly and lambda = 1 the machine exactly.
    ``scores`` holds the machine's score of each performance case.
    """
    vmap, machine = _checked_inputs(performance, verdicts, scores)
    lams = schedule.resolve(performance.makers, vmap)
    lam_per_case = np.asarray([lams[m] for m in performance.makers])[performance.maker_index]
    rng = np.random.default_rng(seed)
    u = rng.random(performance.n_cases)
    use_machine = (lam_per_case > 0.0) & (u <= lam_per_case)
    if use_machine.any():
        for m in performance.makers:
            if lams[m] > 0.0 and vmap[m].threshold is None:
                raise ValueError(f"maker {m} has positive lambda but no threshold")
    counts = tally_confusion(performance.y, np.where(use_machine, machine, performance.y_hat))
    return RandomizedResult(pair=rate_pair(counts), counts=counts, lambdas=lams)


# -- CSV interchange ---------------------------------------------------

def write_combined_csv(path, rows: list[tuple[str, RatePair, int]]) -> None:
    """Rows of (label, pooled pair, n_replaced)."""
    cells = ([label, format_float(p.alpha), format_float(p.beta), str(n)] for label, p, n in rows)
    write_table(path, ("label", "fpr", "tpr", "n_replaced"), cells)


def write_path_csv(path, points: list[PathPoint]) -> None:
    cells = ([format_float(pt.fraction), format_float(pt.pair.alpha), format_float(pt.pair.beta)] for pt in points)
    write_table(path, ("fraction", "fpr", "tpr"), cells)


def write_randomized_csv(path, rows: list[tuple[float, RatePair, int]]) -> None:
    """Rows of (lambda, pooled pair, seed)."""
    cells = ([format_float(lam), format_float(p.alpha), format_float(p.beta), str(seed)] for lam, p, seed in rows)
    write_table(path, ("lambda", "fpr", "tpr", "seed"), cells)
