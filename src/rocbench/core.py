"""Case-level data model for decision-maker benchmarking.

A *case* is one decision instance: a maker id, the realized binary
outcome ``y``, the maker's binary call ``y_hat``, and optionally the
feature vector available to the machine.  A cohort is a column store of
cases grouped by maker.

Rates follow the screening convention

    alpha = n01 / (n01 + n00)    false positive rate
    beta  = n11 / (n11 + n10)    true positive rate

where ``nab`` counts cases with ``y == a`` and ``y_hat == b``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .csvio import float_column, parse_float, read_plain_table, read_table, write_rows

__all__ = [
    "ConfusionCounts",
    "RatePair",
    "CohortDataset",
    "DegenerateMakerError",
    "tally_confusion",
    "rate_pair",
    "stratified_split",
    "read_cases_csv",
    "write_cases_csv",
]


class DegenerateMakerError(ValueError):
    """A maker whose cases lack one outcome class; rates are undefined."""


@contextmanager
def naming_maker(maker_id: str):
    """Prefix ``maker '<id>': `` to a degenerate-maker or runtime error raised inside.

    The error keeps its type, so callers and the CLI's one-line JSON
    error see the same class with the maker named.
    """
    try:
        yield
    except (DegenerateMakerError, RuntimeError) as exc:
        raise type(exc)(f"maker {maker_id!r}: {exc}") from exc


class RatePair(NamedTuple):
    """(false positive rate, true positive rate) of a decision rule."""

    alpha: float
    beta: float


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts n_ab of cases with y == a and y_hat == b."""

    n11: int
    n01: int
    n10: int
    n00: int

    def __post_init__(self):
        for field, v in vars(self).items():
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
                raise ValueError(f"{field} must be a non-negative integer, got {v!r}")

    @property
    def n(self) -> int:
        return self.n11 + self.n01 + self.n10 + self.n00


# A case's confusion cell is 2 * y + y_hat, so cells 3, 1, 2, 0 hold n11, n01, n10, n00.
_FIELD_CELLS = [3, 1, 2, 0]


def _cell_key(group, y: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Per case ``4 * group + 2 * y + y_hat``; sorting by it orders the cases by group, then cell.

    The 0/1 columns may be bool, integer or float; as uint8 they give an integer key.
    """
    return 4 * group + 2 * y.astype(np.uint8) + y_hat.astype(np.uint8)


def _tally_cells(key: np.ndarray, n_groups: int) -> np.ndarray:
    """Each group's counts of ``_cell_key`` values, in field order: an ``(n_groups, 4)`` integer table."""
    return np.bincount(key, minlength=4 * n_groups).reshape(-1, 4)[:, _FIELD_CELLS]


def _cells(counts: ConfusionCounts) -> tuple[int, int, int, int]:
    """The counts in field order; ``*t.T`` gives the same four columns of ``[..., 4]`` rows."""
    return counts.n11, counts.n01, counts.n10, counts.n00


def _class_sums(n11, n01, n10, n00):
    """Positives n11 + n10 and negatives n01 + n00, of counts or of columns."""
    return n11 + n10, n01 + n00


def _rates(n11, n01, n10, n00):
    """alpha = n01 / (n01 + n00) and beta = n11 / (n11 + n10), of counts or of columns."""
    positives, negatives = _class_sums(n11, n01, n10, n00)
    return n01 / negatives, n11 / positives


def tally_confusion(y: np.ndarray, y_hat: np.ndarray) -> ConfusionCounts:
    """Confusion counts from parallel 0/1 arrays."""
    y, y_hat = np.asarray(y), np.asarray(y_hat)
    if y.shape != y_hat.shape or y.ndim != 1:
        raise ValueError("y and y_hat must be 1-d arrays of equal length")
    if y.size == 0:
        raise ValueError("empty case set")
    # the test np.isin(y, (0, 1)) makes, as two elementwise comparisons without its set-up
    if not (((y == 0) | (y == 1)).all() and ((y_hat == 0) | (y_hat == 1)).all()):
        raise ValueError("y and y_hat must be 0 or 1")
    return ConfusionCounts(*_tally_cells(_cell_key(0, y, y_hat), 1)[0].tolist())


def rate_pair(counts: ConfusionCounts) -> RatePair:
    """Empirical (alpha, beta) of a maker's confusion counts.

    Raises DegenerateMakerError when either outcome class is absent,
    since the corresponding rate has a zero denominator.
    """
    positives, negatives = _class_sums(*_cells(counts))
    if negatives == 0 or positives == 0:
        raise DegenerateMakerError(f"degenerate counts (positives={positives}, negatives={negatives}): "
                                   "both outcome classes are required")
    return RatePair(*_rates(*_cells(counts)))


class CohortDataset:
    """Column store of cases grouped by maker.

    ``makers`` holds the unique ids in first-appearance order and
    ``maker_index[i]`` points each case at its maker.  ``features`` is
    an (n, d) float array or None when no features were recorded.
    """

    def __init__(
        self,
        makers: Sequence[str],
        maker_index: np.ndarray,
        y: np.ndarray,
        y_hat: np.ndarray,
        features: np.ndarray | None = None,
    ):
        self.makers = tuple(str(m) for m in makers)
        self.maker_index = np.ascontiguousarray(maker_index, dtype=np.int64)
        self.y = np.ascontiguousarray(y, dtype=np.uint8)
        self.y_hat = np.ascontiguousarray(y_hat, dtype=np.uint8)
        self.features = (
            None if features is None else np.ascontiguousarray(features, dtype=np.float64)
        )
        n = self.y.shape[0]
        if self.maker_index.shape != (n,) or self.y_hat.shape != (n,):
            raise ValueError("column lengths disagree")
        if not (np.isin(self.y, (0, 1)).all() and np.isin(self.y_hat, (0, 1)).all()):
            raise ValueError("y and y_hat must be 0 or 1")
        if len(set(self.makers)) != len(self.makers):
            raise ValueError("duplicate maker ids")
        if n and (self.maker_index.min() < 0 or self.maker_index.max() >= len(self.makers)):
            raise ValueError("maker_index out of range")
        if self.features is not None:
            if self.features.ndim != 2 or self.features.shape[0] != n:
                raise ValueError("features must be (n_cases, d)")
        for arr in (self.maker_index, self.y, self.y_hat, self.features):
            if arr is not None:
                arr.flags.writeable = False

    # -- views -------------------------------------------------------

    @property
    def n_cases(self) -> int:
        return self.y.shape[0]

    @property
    def n_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    @property
    def base_rate_hat(self) -> float:
        """Fraction of positive outcomes across all cases."""
        return float(self.y.mean())

    def counts_by_maker(self) -> np.ndarray:
        """Read-only ``(len(makers), 4)`` table: row i holds ``makers[i]``'s counts in field order.

        A maker with no case, which only a hand-built cohort has, gets a zero row.
        """
        table = _tally_cells(_cell_key(self.maker_index, self.y, self.y_hat), len(self.makers))
        table.flags.writeable = False
        return table

    def subset(self, rows: np.ndarray) -> "CohortDataset":
        """New cohort keeping the given case rows, in the given order.

        Makers are ordered by first appearance in the kept rows, as
        writing the subset to CSV and reading it back would order them.
        """
        rows = np.asarray(rows, dtype=np.int64)
        codes, new_idx = _first_appearance(self.maker_index[rows])
        feats = None if self.features is None else self.features[rows]
        return CohortDataset([self.makers[c] for c in codes], new_idx, self.y[rows], self.y_hat[rows], feats)

    def pooled_counts(self) -> ConfusionCounts:
        return tally_confusion(self.y, self.y_hat)


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in order of first appearance, and each entry's index among them."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order).take(inverse.reshape(-1))


def _group_rows(key: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """Row indices holding each key value 0 .. n_groups - 1, ascending."""
    order = np.argsort(key, kind="stable")
    ends = np.cumsum(np.bincount(key, minlength=n_groups))
    return np.split(order, ends[:-1])


def _split_quota(m: int, a: int, b: int) -> int:
    # floor the second split's share; the leftover case (if any) joins the first
    return m - (m * b) // (a + b)


def stratified_split(
    data: CohortDataset,
    ratio: tuple[int, int],
    seed: int | np.random.Generator,
) -> tuple[CohortDataset, CohortDataset]:
    """Random split preserving each maker's confusion-cell composition.

    Within every (maker, confusion cell) group the cases are permuted
    and divided ``ratio[0]:ratio[1]``, so each maker's alpha and beta
    are preserved across the two outputs up to integer rounding.
    """
    a, b = int(ratio[0]), int(ratio[1])
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError(f"ratio must be two non-negative integers with positive sum, got {ratio}")
    rng = np.random.default_rng(seed)
    first = np.zeros(data.n_cases, dtype=bool)  # the rows of the first output
    for group in _group_rows(_cell_key(data.maker_index, data.y, data.y_hat), 4 * len(data.makers)):
        if group.size:
            first[group[rng.permutation(group.size)[: _split_quota(group.size, a, b)]]] = True
    return data.subset(np.flatnonzero(first)), data.subset(np.flatnonzero(~first))


# -- CSV interchange -------------------------------------------------
#
# Format: header  maker_id,y,y_hat[,f1,f2,...]  with one row per case,
# y and y_hat literal 0/1, feature cells finite floats.  Both directions
# have a bulk path (see ``csvio``) that gives the bytes and the cohort
# the row path gives; every error comes from the row path.

_CASES_HEADER = ("maker_id", "y", "y_hat")
_BIT = {"0": 0, "1": 1}
_NEEDS_QUOTES = re.compile('[,"\r\n]')  # a maker id that csv.writer would quote


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in the default dialect."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def write_cases_csv(path, data: CohortDataset) -> None:
    header = [*_CASES_HEADER, *(f"f{j + 1}" for j in range(data.n_features))]
    names = np.array([_csv_cell(m) for m in data.makers], dtype=object).take(data.maker_index)
    features = [float_column(col) for col in data.features.T] if data.n_features else []
    row_format = "%s,%d,%d" + "".join("," + conversion for conversion, _ in features) + "\r\n"
    write_rows(path, header, row_format, [names, data.y, data.y_hat, *(col for _, col in features)])


def read_cases_csv(path) -> CohortDataset:
    """The cohort of a cases file; a plain file decodes in bulk, any other row by row."""
    data = _decode_cases(path)
    return _parse_cases(path) if data is None else data


def _decode_cases(path) -> CohortDataset | None:
    """The bulk decode, or None when the file is not plain or breaks a rule."""
    table = read_plain_table(path, _CASES_HEADER, len(_CASES_HEADER))
    if table is None:
        return None
    (makers, *bits), features = table  # text cells as UTF-8 bytes
    ones = [b == b"1" for b in bits]
    if not all((one | (b == b"0")).all() for one, b in zip(ones, bits)) or not np.isfinite(features).all():
        return None
    ids, code = _first_appearance(makers)  # maker codes as the row parser assigns them
    return CohortDataset([m.decode() for m in ids.tolist()], code, *ones, features if features.shape[1] else None)


def _parse_cases(path) -> CohortDataset:
    codes: dict[str, int] = {}

    def case_row(row: list[str]) -> tuple:
        try:
            y, y_hat = _BIT[row[1]], _BIT[row[2]]
        except KeyError:
            raise ValueError("y and y_hat must be literal 0 or 1") from None
        return (codes.setdefault(row[0], len(codes)), y, y_hat, *map(parse_float, row[3:]))

    rows = read_table(path, _CASES_HEADER, case_row, prefix=True)
    if not rows:
        raise ValueError(f"{path}: no case rows")
    table = np.array(rows)  # float64; maker codes and labels are exact
    features = table[:, 3:] if table.shape[1] > 3 else None
    return CohortDataset(list(codes), table[:, 0], table[:, 1], table[:, 2], features)
