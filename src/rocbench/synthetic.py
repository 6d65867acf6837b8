"""Synthetic cohorts for exercising the benchmarking pipeline.

Four generators, each with a closed-form handle on the truth so tests
can check the machinery against analytic values rather than against
itself:

* complementarity -- two public features plus a hidden one; one group
  of makers reads the full signal, the other misreads a public feature.
  The machine, trained on public features only, should beat the second
  group and lose to the first.
* predicted doctor -- one doctor whose private signal is integrated out
  analytically, giving the exact propensity of the doctor's decision as
  a function of the public features.
* incentive -- a single threshold rule against uniform evidence, with
  both the raw decision moments and the normalized rate pair known in
  closed form.
* heterogeneous cutoffs -- many makers sharing one scoring rule but
  different cutoffs, so every maker sits exactly on a known strictly
  concave curve and the cohort average falls strictly below it.

All generation is partitioned by maker over named substreams, so a
fixed seed gives a byte-identical dataset regardless of chunking.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import CohortDataset, RatePair
from .csvio import write_json
from .rng import substream
from .roc import RocCurve

__all__ = [
    "ComplementaritySpec",
    "ComplementarityResult",
    "generate_complementarity",
    "PredictedDoctorSpec",
    "PredictedDoctorResult",
    "generate_predicted_doctor",
    "IncentiveSpec",
    "IncentiveResult",
    "generate_incentive",
    "incentive_analytic",
    "HeterogeneousCutoffsSpec",
    "HeterogeneousCutoffsResult",
    "generate_heterogeneous_cutoffs",
    "cutoff_pair",
    "concave_reference_tpr",
    "concave_reference_roc",
    "GENERATORS",
    "manifest_dict",
    "write_manifest",
]


def _maker_ids(n_makers: int) -> list[str]:
    width = len(str(n_makers - 1))
    return [f"m{j:0{width}d}" for j in range(n_makers)]


def _expit(x) -> np.ndarray:
    """``1 / (1 + exp(-x))`` elementwise, with the C library's ``exp``, as ``scipy.special.expit`` computes it.

    numpy's own ``exp`` can differ from the C library's in the last bit,
    and the cohorts' bytes depend on every bit.  ``math.exp`` calls the C
    function, but raises ``OverflowError`` where C returns ``inf``, so
    exponents above 709 (where the overflow begins, at about 709.78) go
    one at a time.
    """
    z = -np.asarray(x, dtype=np.float64).ravel()
    e = np.fromiter(map(math.exp, np.minimum(z, 709.0).tolist()), np.float64, z.size)
    for i in np.flatnonzero(z > 709.0).tolist():
        try:
            e[i] = math.exp(z[i])
        except OverflowError:
            e[i] = math.inf
    return (1.0 / (1.0 + e)).reshape(np.shape(x))


def _cohort(makers: Sequence[str], seed: int, draw) -> tuple[CohortDataset, list[np.ndarray]]:
    """The cohort drawn maker by maker, and the read-only columns it does not hold.

    ``draw(g, j)`` returns maker j's ``(features, y, y_hat, *extra)``
    from ``substream(seed, "maker", j)``; every column is the makers'
    parts stacked in maker order.
    """
    parts = [draw(substream(seed, "maker", j), j) for j in range(len(makers))]
    features, y, y_hat, *extra = (np.concatenate(column) for column in zip(*parts))
    index = np.repeat(np.arange(len(makers), dtype=np.int64), [part[1].size for part in parts])
    for column in extra:
        column.flags.writeable = False
    return CohortDataset(makers, index, y, y_hat, features), extra


# -- complementarity cohort --------------------------------------------


@dataclass(frozen=True)
class ComplementaritySpec:
    """Two maker groups deciding with shared costs on a 3-signal case.

    Cases carry public features (x1, x2) and a hidden signal u.  The
    outcome is 1 when the logistic of x1 + x2 + u exceeds a uniform
    draw.  Capable makers threshold that same propensity against a
    per-case cost in U(0.4, 1); less capable makers flip the sign of
    x1 first.  The scale parameters are variances.
    """

    n_cases: int = 600_000
    n_makers: int = 2_000
    capable_fraction: float = 0.375
    seed: int = 0
    export_hidden: bool = False
    shuffle_groups: bool = False

    def __post_init__(self):
        if self.n_cases < 1 or self.n_makers < 1:
            raise ValueError("sizes must be positive")
        if self.n_cases % self.n_makers != 0:
            raise ValueError("n_cases must divide evenly across makers")
        if not 0.0 <= self.capable_fraction <= 1.0:
            raise ValueError("capable_fraction must be in [0, 1]")


@dataclass(frozen=True)
class ComplementarityResult:
    data: CohortDataset
    capable_ids: tuple[str, ...]
    u: np.ndarray

    @property
    def less_capable_ids(self) -> tuple[str, ...]:
        capable = set(self.capable_ids)
        return tuple(m for m in self.data.makers if m not in capable)


def generate_complementarity(spec: ComplementaritySpec) -> ComplementarityResult:
    """Per-maker draw order: x1, x2, u, outcome draw, cost."""
    scales = np.sqrt([1.95, 0.25, 2.0])
    makers = _maker_ids(spec.n_makers)
    n_capable = round(spec.capable_fraction * spec.n_makers)
    order = np.arange(spec.n_makers)
    if spec.shuffle_groups:
        order = substream(spec.seed, "groups").permutation(spec.n_makers)
    capable = np.zeros(spec.n_makers, dtype=bool)
    capable[order[:n_capable]] = True

    per = spec.n_cases // spec.n_makers

    def draw(g, j):
        x1 = g.normal(0.0, scales[0], per)
        x2 = g.normal(0.0, scales[1], per)
        u = g.normal(0.0, scales[2], per)
        delta = g.random(per)
        cost = g.uniform(0.4, 1.0, per)
        p = _expit(x1 + x2 + u)
        score = p if capable[j] else _expit(-x1 + x2 + u)
        features = np.column_stack((x1, x2, u) if spec.export_hidden else (x1, x2))
        return features, p > delta, score > cost, u

    data, (u,) = _cohort(makers, spec.seed, draw)
    capable_ids = tuple(makers[j] for j in range(spec.n_makers) if capable[j])
    return ComplementarityResult(data=data, capable_ids=capable_ids, u=u)


# -- predicted doctor ---------------------------------------------------


@dataclass(frozen=True)
class PredictedDoctorSpec:
    """One doctor, public features x, private signal u, cutoff c0.

    Scenario 1: x ~ U(-1, 1), u ~ U(-2, 2), truth logistic(x), doctor
    logistic(x + u).  Scenario 2: x1 ~ N(0, 1), x2 ~ N(0, 0.5),
    u ~ N(0, 4) (variances), truth logistic(x1 + x2), doctor
    logistic(x1 - x2 + u).  Scenario 3: as 1 but the doctor reads the
    feature backwards, logistic(-x + u).
    """

    scenario: int = 1
    n: int = 100_000
    c0: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in (1, 2, 3):
            raise ValueError("scenario must be 1, 2, or 3")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.c0 < 1.0:
            raise ValueError("c0 must be in (0, 1)")


@dataclass(frozen=True)
class PredictedDoctorResult:
    """Dataset plus the three scoring functions for comparison curves.

    ``truth_score``/``predicted_score`` map the public feature matrix to
    a propensity; ``doctor_score`` also takes the private signal.  The
    predicted score is the exact conditional probability of the
    doctor's decision given the public features (private signal
    integrated out), so ranking cases by it reproduces the doctor's
    decision behavior without observing u.
    """

    data: CohortDataset
    u: np.ndarray
    truth_score: Callable[[np.ndarray], np.ndarray]
    doctor_score: Callable[[np.ndarray, np.ndarray], np.ndarray]
    predicted_score: Callable[[np.ndarray], np.ndarray]


def generate_predicted_doctor(spec: PredictedDoctorSpec) -> PredictedDoctorResult:
    sign = -1.0 if spec.scenario == 3 else 1.0
    if spec.scenario in (1, 3):

        def signals(g):
            x = g.uniform(-1.0, 1.0, spec.n)[:, None]
            return x, g.uniform(-2.0, 2.0, spec.n)

        def truth_score(feats):
            return _expit(feats[:, 0])

        def doctor_score(feats, uu):
            return _expit(sign * feats[:, 0] + uu)

    else:

        def signals(g):
            x1 = g.normal(0.0, 1.0, spec.n)
            x2 = g.normal(0.0, np.sqrt(0.5), spec.n)
            return np.column_stack([x1, x2]), g.normal(0.0, 2.0, spec.n)

        def truth_score(feats):
            return _expit(feats[:, 0] + feats[:, 1])

        def doctor_score(feats, uu):
            return _expit(feats[:, 0] - feats[:, 1] + uu)

    def predicted_score(feats):
        # kept out of the cohort's generation, which never calls this
        from scipy.special import logit, ndtr

        cut = float(logit(spec.c0))
        if spec.scenario in (1, 3):
            # P(u > cut - sign*x) under u ~ U(-2, 2)
            return np.clip((2.0 - (cut - sign * feats[:, 0])) / 4.0, 0.0, 1.0)
        # P(u > cut - x1 + x2) under u ~ N(0, sd 2)
        return ndtr(-(cut - feats[:, 0] + feats[:, 1]) / 2.0)

    def draw(g, _):
        x, u = signals(g)
        delta = g.random(spec.n)
        return x, truth_score(x) > delta, doctor_score(x, u) > spec.c0, u

    data, (u,) = _cohort(["doctor"], spec.seed, draw)
    return PredictedDoctorResult(
        data=data, u=u, truth_score=truth_score,
        doctor_score=doctor_score, predicted_score=predicted_score,
    )


# -- incentive example --------------------------------------------------


@dataclass(frozen=True)
class IncentiveSpec:
    """Uniform evidence x, outcome Bernoulli(x), decision 1(x < 1/2)."""

    n: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class IncentiveResult:
    data: CohortDataset
    moments: tuple[float, float]
    pair: RatePair


def incentive_analytic() -> tuple[tuple[float, float], RatePair]:
    """Closed forms for the incentive rule 1(x < 1/2) on x ~ U(0, 1).

    Raw decision moments (E[y*yhat], E[(1-y)*yhat]) = (1/8, 3/8); the
    normalized rate pair divides by the class masses (each 1/2), giving
    tpr = 1/4 and fpr = 3/4.  Both are reported because the raw moments
    are sometimes quoted as if they were the rates.
    """
    return (0.125, 0.375), RatePair(alpha=0.75, beta=0.25)


def generate_incentive(spec: IncentiveSpec) -> IncentiveResult:
    def draw(g, _):
        x = g.random(spec.n)
        delta = g.random(spec.n)
        return x[:, None], x > delta, x < 0.5

    data, _ = _cohort(["rule"], spec.seed, draw)
    moments, pair = incentive_analytic()
    return IncentiveResult(data=data, moments=moments, pair=pair)


# -- heterogeneous cutoffs ----------------------------------------------


@dataclass(frozen=True)
class HeterogeneousCutoffsSpec:
    """Many makers ranking by x ~ U(0, 1) with maker-specific cutoffs.

    ``cutoffs`` is either ("uniform", lo, hi) for random per-maker
    cutoffs or an explicit sequence of length n_makers.  Constant
    cutoffs are rejected: with no cutoff variation the cohort average
    sits on the curve and the below-curve demonstration is vacuous.
    """

    n_makers: int = 50
    cases_per_maker: int = 10_000
    cutoffs: tuple = ("uniform", 0.2, 0.8)
    seed: int = 0

    def __post_init__(self):
        if self.n_makers < 2:
            raise ValueError("need at least two makers")
        if self.cases_per_maker < 1:
            raise ValueError("cases_per_maker must be positive")


def _resolve_cutoffs(spec: HeterogeneousCutoffsSpec) -> np.ndarray:
    c = spec.cutoffs
    if len(c) == 3 and c[0] == "uniform":
        lo, hi = float(c[1]), float(c[2])
        if not 0.0 <= lo < hi <= 1.0:
            raise ValueError("uniform cutoff range must satisfy 0 <= lo < hi <= 1")
        out = substream(spec.seed, "cutoffs").uniform(lo, hi, spec.n_makers)
    else:
        out = np.asarray([float(v) for v in c])
        if out.shape != (spec.n_makers,):
            raise ValueError("explicit cutoffs must list one value per maker")
        if not ((out >= 0.0) & (out <= 1.0)).all():  # NaN fails both
            raise ValueError("cutoffs must lie in [0, 1]")
    if np.ptp(out) <= 1e-12:
        raise ValueError("cutoffs are constant; the cohort needs cutoff variation")
    return out


@dataclass(frozen=True)
class HeterogeneousCutoffsResult:
    data: CohortDataset
    cutoffs: np.ndarray


def cutoff_pair(c) -> RatePair:
    """Population rate pair of the rule 1(x > c): ((1-c)^2, 1-c^2)."""
    c = float(c)
    return RatePair(alpha=(1.0 - c) ** 2, beta=1.0 - c * c)


def concave_reference_tpr(alpha):
    """True curve of the cutoff family: tpr = 2*sqrt(fpr) - fpr."""
    a = np.asarray(alpha, dtype=np.float64)
    out = 2.0 * np.sqrt(a) - a
    return float(out) if np.isscalar(alpha) else out


def concave_reference_roc(n_points: int = 513) -> RocCurve:
    """Dense polyline sampling of the analytic curve, cutoffs as thresholds."""
    alphas = np.linspace(0.0, 1.0, n_points)
    return RocCurve(
        thresholds=1.0 - np.sqrt(alphas),
        alphas=alphas,
        betas=concave_reference_tpr(alphas),
    )


def generate_heterogeneous_cutoffs(spec: HeterogeneousCutoffsSpec) -> HeterogeneousCutoffsResult:
    cutoffs = _resolve_cutoffs(spec)

    def draw(g, j):
        x = g.random(spec.cases_per_maker)
        delta = g.random(spec.cases_per_maker)
        return x[:, None], x > delta, x > cutoffs[j]

    data, _ = _cohort(_maker_ids(spec.n_makers), spec.seed, draw)
    cutoffs.flags.writeable = False
    return HeterogeneousCutoffsResult(data=data, cutoffs=cutoffs)


# -- manifests ----------------------------------------------------------

# kind tag -> (spec type, generator); `rocbench simulate --dgp` takes the tag
GENERATORS = {
    "complementarity": (ComplementaritySpec, generate_complementarity),
    "predicted-doctor": (PredictedDoctorSpec, generate_predicted_doctor),
    "incentive": (IncentiveSpec, generate_incentive),
    "heterogeneous-cutoffs": (HeterogeneousCutoffsSpec, generate_heterogeneous_cutoffs),
}


def manifest_dict(spec) -> dict:
    """JSON-ready record of a generator spec: its kind tag and its fields.

    Each field's key names the ``simulate`` flag that sets it; ``cutoffs``
    is set by ``--cutoffs``, or by ``--cutoff-lo`` and ``--cutoff-hi`` for
    a ``["uniform", lo, hi]`` range.
    """
    kind = next((k for k, (spec_type, _) in GENERATORS.items() if type(spec) is spec_type), None)
    if kind is None:
        raise TypeError(f"not a generator spec: {type(spec).__name__}")
    out = {"kind": kind}
    for k, v in dataclasses.asdict(spec).items():
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def write_manifest(path, spec) -> None:
    write_json(path, manifest_dict(spec))
