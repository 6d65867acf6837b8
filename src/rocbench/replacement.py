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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import CohortDataset, ConfusionCounts, RatePair, rate_pair, tally_confusion
from .csvio import format_float, write_table

__all__ = [
    "Verdicts",
    "AcceptanceSchedule",
    "CombinedResult",
    "PathPoint",
    "RandomizedResult",
    "combine_decisions",
    "replacement_path",
    "randomized_accept",
    "write_path_csv",
    "write_randomized_csv",
    "write_combined_csv",
]

class Verdicts:
    """Replace/retain verdicts as columns, one row per maker in the order benchmarked.

    Every table has ``maker_id`` (each id once), ``replace`` (bool) and
    ``threshold`` (the machine threshold, NaN for none) next to its
    route's named columns.  A replaced maker needs a finite threshold;
    a retained one may still carry one (its best curve point) so that
    forced sweeps and randomized schedules can cover every maker.
    """

    _DTYPES = {"maker_id": object, "replace": bool, "threshold": np.float64}

    def __init__(self, columns: dict):
        cols = {name: np.array(values, dtype=self._DTYPES.get(name)) for name, values in columns.items()}
        n = cols["maker_id"].size
        if any(col.shape != (n,) for col in cols.values()):
            raise ValueError("verdict columns must be 1-d and of one length")
        ids = cols["maker_id"].tolist()
        self._row = {m: i for i, m in enumerate(ids)}
        if len(self._row) != n:
            raise ValueError(f"repeated maker_id {next(m for i, m in enumerate(ids) if self._row[m] != i)!r}")
        lacking = cols["replace"] & ~np.isfinite(cols["threshold"])
        if lacking.any():
            raise ValueError(f"maker {ids[int(np.argmax(lacking))]}: replacement requires a threshold")
        for col in cols.values():
            col.flags.writeable = False
        self._columns = cols

    @classmethod
    def from_rows(cls, rows: Iterable[dict], names: Sequence[str] | None = None) -> "Verdicts":
        """The ``names`` columns of ``rows``, dicts keyed by column name; by default the first row's."""
        rows = list(rows)
        if names is None:
            names = rows[0].keys() if rows else cls._DTYPES
        return cls({name: [row[name] for row in rows] for name in names})

    def __len__(self) -> int:
        return len(self._row)

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise ValueError(f"verdicts have no {name} column")
        return self._columns[name]

    def positions(self, makers: Sequence[str]) -> np.ndarray:
        """Row of each of ``makers``; each needs one."""
        missing = [m for m in makers if m not in self._row]
        if missing:
            raise ValueError(f"no verdict for makers: {missing[:5]}{'...' if len(missing) > 5 else ''}")
        return np.array([self._row[m] for m in makers], dtype=np.intp)


def _checked_inputs(data: CohortDataset, verdicts: Verdicts, scores) -> tuple[np.ndarray, np.ndarray]:
    """Verdict row of each maker, and the machine's call on every case.

    The call is ``score > threshold`` at the case's maker threshold; it
    is False for makers without a threshold, as no score is above NaN.
    """
    pos = verdicts.positions(data.makers)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (data.n_cases,):
        raise ValueError(f"scores must hold one score per case ({data.n_cases}), got shape {scores.shape}")
    return pos, scores > verdicts["threshold"][pos][data.maker_index]


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


def combine_decisions(performance: CohortDataset, verdicts: Verdicts, scores: np.ndarray) -> CombinedResult:
    """Pooled rate pair with replace-flagged makers run by the machine.

    ``scores`` holds the machine's score of each performance case.
    """
    pos, machine = _checked_inputs(performance, verdicts, scores)
    return _evaluate(performance, machine, verdicts["replace"][pos])


@dataclass(frozen=True)
class PathPoint:
    fraction: float
    n_replaced: int
    pair: RatePair


def replacement_path(
    performance: CohortDataset, verdicts: Verdicts, fractions: Sequence[float], scores: np.ndarray
) -> list[PathPoint]:
    """Pooled pairs as the most replaceable makers are swapped out.

    Makers are ranked by ascending posterior loss (the ``min_loss``
    column, ties broken by maker id); a fraction f swaps the first
    round(f * n_makers) of them, halves rounding up.  Every maker needs
    a threshold since f = 1 replaces them all.
    """
    pos, machine = _checked_inputs(performance, verdicts, scores)
    makers = performance.makers
    lacking = ~np.isfinite(verdicts["threshold"][pos])
    if lacking.any():
        raise ValueError(f"maker {makers[np.argmax(lacking)]} has no threshold; the sweep must be able to replace everyone")
    loss = verdicts["min_loss"][pos]
    ranked = sorted(range(len(makers)), key=lambda i: (loss[i], makers[i]))
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

    def resolve(self, makers: Sequence[str], verdicts: Verdicts) -> np.ndarray:
        """The lambda of each of ``makers``."""
        pos = verdicts.positions(makers)
        if self.kind == "constant":
            lams = np.full(len(makers), self.lam, dtype=np.float64)
        else:
            n = len(makers)
            if n < 2:
                raise ValueError("rank schedule needs at least two makers")
            loss = verdicts["min_loss"][pos]
            # rank 1 = most capable = largest posterior loss of replacing them
            ranked = sorted(range(n), key=lambda i: (-loss[i], makers[i]))
            below = np.argsort(ranked)  # rank - 1 of each maker
            lams = (below if self.direction == "less-capable-more" else n - 1 - below) / (n - 1)
        if self.scope == "less-capable-only":
            lams = np.where(verdicts["replace"][pos], lams, 0.0)
        return lams


@dataclass(frozen=True)
class RandomizedResult:
    pair: RatePair
    counts: ConfusionCounts
    lambdas: np.ndarray  # one per maker of the cohort


def randomized_accept(
    performance: CohortDataset, verdicts: Verdicts, schedule: AcceptanceSchedule, scores: np.ndarray,
    seed: int | np.random.Generator,
) -> RandomizedResult:
    """Per-case coin flip between maker and machine decisions.

    One uniform draw per case, in cohort order: the machine's call is
    used when the draw is at or below the maker's lambda.  lambda = 0
    reproduces the makers exactly and lambda = 1 the machine exactly.
    ``scores`` holds the machine's score of each performance case.
    """
    pos, machine = _checked_inputs(performance, verdicts, scores)
    lams = schedule.resolve(performance.makers, verdicts)
    lam_per_case = lams[performance.maker_index]
    rng = np.random.default_rng(seed)
    u = rng.random(performance.n_cases)
    use_machine = (lam_per_case > 0.0) & (u <= lam_per_case)
    if use_machine.any():
        lacking = (lams > 0.0) & ~np.isfinite(verdicts["threshold"][pos])
        if lacking.any():
            raise ValueError(f"maker {performance.makers[np.argmax(lacking)]} has positive lambda but no threshold")
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
