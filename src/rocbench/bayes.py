"""Bayesian benchmarking of a maker against a machine ROC curve.

The maker's four confusion cells are multinomial with probability
vector t = (t11, t01, t10, t00) on the simplex; a Dirichlet prior is
conjugate, so the posterior is Dirichlet with the prior weights plus
the observed counts.  Each posterior draw maps to a rate pair

    alpha(t) = t01 / (t01 + t00),    beta(t) = t11 / (t11 + t10),

and replacement questions become posterior probabilities over that
pair's position against the curve.  The headline quantity is

    q_max = max over curve fpr a of  P( alpha >= a  and  beta <= g(a) ),

the largest posterior mass any single curve point can weakly dominate;
the maker is replaced when q_max reaches the credible level, at the
maximizing curve point.  A catalog of posterior expected losses refines
the same idea: every loss equals 1 when the candidate curve point fails
to dominate and shrinks below 1 with the strength of domination, so
minimized posterior loss <= 1 - level generalizes the baseline rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ConfusionCounts, RatePair, _cells, _rates, naming_maker
from .csvio import format_float, format_optional, parse_float, parse_optional, read_fields, write_fields
from .replacement import Verdicts
from .rng import _draw_kept
from .roc import RocCurve

__all__ = [
    "DirichletParams",
    "PosteriorDraws",
    "LossKind",
    "CostBenefitLoss",
    "DominanceResult",
    "RetentionMethod",
    "RetentionResult",
    "posterior_params",
    "sample_posterior",
    "prob_below_roc",
    "curve_candidate_grid",
    "max_dominance",
    "loss_eval",
    "min_posterior_loss",
    "replace_decision",
    "reversed_null_retain",
    "benchmark_maker_bayesian",
    "write_bayesian_csv",
    "read_bayesian_csv",
]

DEFAULT_PRIOR_WEIGHT = 0.1
_CHUNK_CELLS = 4_000_000


@dataclass(frozen=True)
class DirichletParams:
    """Dirichlet weights over cells ordered (n11, n01, n10, n00)."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(self.gamma, dtype=np.float64)
        if g.shape != (4,):
            raise ValueError("gamma must have four cells")
        if not (np.isfinite(g).all() and (g > 0).all()):
            raise ValueError("gamma must be positive and finite")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    def mean(self) -> np.ndarray:
        return self.gamma / self.gamma.sum()


def posterior_params(
    counts: ConfusionCounts, prior: DirichletParams | float = DEFAULT_PRIOR_WEIGHT
) -> DirichletParams:
    """Conjugate update: prior weights plus observed cell counts."""
    if isinstance(prior, DirichletParams):
        g = prior.gamma
    else:
        g = np.full(4, float(prior))
    return DirichletParams(g + np.array(_cells(counts)))


@dataclass(frozen=True)
class PosteriorDraws:
    """Posterior cell draws (rows on the open simplex) with rate pairs."""

    t: np.ndarray
    alphas: np.ndarray
    betas: np.ndarray

    @property
    def n_draws(self) -> int:
        return self.t.shape[0]


def sample_posterior(
    params: DirichletParams, n_draws: int, seed: int | np.random.Generator
) -> PosteriorDraws:
    """Dirichlet draws mapped to rate pairs.

    Draws with a zero cell (possible underflow at tiny weights) are
    rejected and redrawn so every rate denominator is positive.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    rng = np.random.default_rng(seed)
    t, _ = _draw_kept(lambda k: rng.dirichlet(params.gamma, size=k), lambda t: (t > 0.0).all(axis=1),
                      n_draws, 10 * n_draws, lambda _: "posterior sampling rejected too many zero-cell draws")
    alphas, betas = _rates(*t.T)
    for arr in (t, alphas, betas):
        arr.flags.writeable = False
    return PosteriorDraws(t=t, alphas=alphas, betas=betas)


def prob_below_roc(draws: PosteriorDraws, roc: RocCurve) -> float:
    """Posterior probability the maker's pair sits on or below the curve."""
    return float(np.mean(draws.betas <= roc.tpr_at_fpr(draws.alphas)))


def curve_candidate_grid(
    roc: RocCurve, draws: PosteriorDraws | None = None, grid_size: int = 512
) -> np.ndarray:
    """Candidate fpr values: uniform grid plus curve knots plus draw fprs.

    Sharing one grid across the dominance maximizer and the loss
    minimizer makes the baseline duality (min loss = 1 - q_max) exact.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    parts = [np.linspace(0.0, 1.0, grid_size), roc.knot_alphas]
    if draws is not None:
        parts.append(draws.alphas)
    # np.unique's own sort and first-of-each-run, without the numpy.ma import it makes;
    # every part is finite, so no NaN run needs merging
    cand = np.concatenate(parts)
    cand.sort()
    keep = np.empty(cand.size, dtype=bool)
    keep[0] = True
    np.not_equal(cand[1:], cand[:-1], out=keep[1:])
    return cand[keep]


class LossKind(enum.Enum):
    BASELINE = "baseline"
    EUCLIDEAN = "euclidean"
    COMPLEMENT_DISTANCE = "complement-distance"
    DIAGONAL_VERTICAL = "diagonal-vertical"
    DIAGONAL_HORIZONTAL = "diagonal-horizontal"
    COMPLEMENT_VERTICAL = "complement-vertical"
    COMPLEMENT_HORIZONTAL = "complement-horizontal"


@dataclass(frozen=True)
class CostBenefitLoss:
    """User hook: loss = cost * 1(no domination) - benefit * 1(domination).

    ``cost(theta_m, alphas, betas)`` and ``benefit(theta_m, betas)``
    receive one candidate curve point and the draw arrays and must
    return per-draw arrays.  The hooks are called once per candidate
    from a Python loop over the candidates, so this loss is far slower
    than the cataloged kinds.
    """

    cost: Callable[[RatePair, np.ndarray, np.ndarray], np.ndarray]
    benefit: Callable[[RatePair, np.ndarray], np.ndarray]


def _diag_lambda(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Share of the diagonal-to-curve gap the maker has covered, in [0, 1].

    A dominated draw has 0 <= num <= den in exact arithmetic, but the
    curve lookups round, so the ratio is clipped: a gap at or under the
    numerator counts as fully covered.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(num >= den, 1.0, num / den)
    return np.where(num <= 0.0, 0.0, lam)


def _per_draw_weights(kind: LossKind, draws_a, draws_b, roc: RocCurve):
    """Domination benefit per draw for kinds that ignore the curve point."""
    if kind is LossKind.EUCLIDEAN:
        return roc.distance_to_curve(np.column_stack([draws_a, draws_b]))
    if kind is LossKind.DIAGONAL_VERTICAL:
        lam = _diag_lambda(draws_b - draws_a, roc.tpr_at_fpr(draws_a) - draws_a)
        return 1.0 - lam
    if kind is LossKind.DIAGONAL_HORIZONTAL:
        lam = _diag_lambda(draws_b - draws_a, draws_b - roc.fpr_at_tpr(draws_b))
        return 1.0 - lam
    return None


def _run_share(first: np.ndarray, first_at: np.ndarray, last: np.ndarray, last_at: np.ndarray) -> np.ndarray:
    """Share of the draws whose run of candidates covers each candidate.

    ``first`` and ``last`` are sorted keys of the same candidates.  Draw
    i's run starts at the first candidate with ``first >= first_at[i]``
    and stops after the last with ``last <= last_at[i]``; an empty run
    covers nothing.  A difference array of the runs, then a running sum.
    """
    start = np.searchsorted(first, first_at, side="left")
    stop = np.searchsorted(last, last_at, side="right")
    keep = start < stop
    edges = np.bincount(start[keep], minlength=first.size + 1) - np.bincount(stop[keep], minlength=first.size + 1)
    return np.cumsum(edges[: first.size]) / first_at.size


def _benefit_means(
    cand_a: np.ndarray,
    cand_b: np.ndarray,
    draws_a: np.ndarray,
    draws_b: np.ndarray,
    kind,
    roc: RocCurve,
) -> np.ndarray:
    """Mean over draws of (domination benefit) at each candidate point.

    The posterior expected loss at a candidate is 1 minus this mean.
    Candidates must be sorted by fpr with nondecreasing curve values:
    the baseline indicator counts contiguous runs of candidates (see
    ``max_dominance``).  The weighted kinds evaluate the dense
    candidate x draw mask in chunks; ``CostBenefitLoss`` takes one
    candidate at a time.
    """
    if kind is LossKind.BASELINE:  # the candidates dominating a draw: g_k >= beta_i and a_k <= alpha_i
        return _run_share(cand_b, draws_b, cand_a, draws_a)
    n_draws = draws_a.size
    out = np.empty(cand_a.size)
    if isinstance(kind, CostBenefitLoss):
        for i, (a, b) in enumerate(zip(cand_a.tolist(), cand_b.tolist())):
            theta_m = RatePair(a, b)
            cost = np.asarray(kind.cost(theta_m, draws_a, draws_b), dtype=np.float64)
            gain = np.asarray(kind.benefit(theta_m, draws_b), dtype=np.float64)
            # benefit mean such that 1 - mean reproduces the cost/benefit loss
            out[i] = np.mean(np.where((draws_a >= a) & (draws_b <= b), 1.0 + gain, 1.0 - cost))
        return out
    w_draw = _per_draw_weights(kind, draws_a, draws_b, roc)
    chunk = max(1, _CHUNK_CELLS // max(n_draws, 1))
    for lo in range(0, cand_a.size, chunk):
        ca = cand_a[lo : lo + chunk, None]
        cb = cand_b[lo : lo + chunk, None]
        dom = (draws_a[None, :] >= ca) & (draws_b[None, :] <= cb)
        if w_draw is not None:
            contrib = np.where(dom, w_draw[None, :], 0.0)
        elif kind is LossKind.COMPLEMENT_DISTANCE:
            w = np.minimum(draws_a[None, :] - ca, cb - draws_b[None, :])
            contrib = np.where(dom, w, 0.0)
        elif kind in (LossKind.COMPLEMENT_VERTICAL, LossKind.COMPLEMENT_HORIZONTAL):
            # share of the candidate's gap above the diagonal the draw covers, vertically or horizontally
            num = draws_b[None, :] - ca if kind is LossKind.COMPLEMENT_VERTICAL else cb - draws_a[None, :]
            den = cb - ca
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = num / den
            lam = np.maximum(np.where(den > 0.0, lam, 1.0), 0.0)
            contrib = np.where(dom, 1.0 - lam, 0.0)
        else:
            raise ValueError(f"unknown loss kind {kind!r}")
        out[lo : lo + chunk] = contrib.sum(axis=1) / n_draws
    return out


def _first_peak(draws: PosteriorDraws, roc: RocCurve, grid_size: int, score) -> tuple[float, float, float]:
    """Largest ``score(cand, g)`` over the shared grid ``cand`` and its curve values ``g``, first at the smallest fpr.

    Returns that score with its candidate's fpr and curve value.
    """
    cand = curve_candidate_grid(roc, draws, grid_size)
    g = roc.tpr_at_fpr(cand)
    values = score(cand, g)
    i = int(np.argmax(values))
    return float(values[i]), float(cand[i]), float(g[i])


@dataclass(frozen=True)
class DominanceResult:
    q_max: float
    alpha_d: float | None


def max_dominance(
    draws: PosteriorDraws, roc: RocCurve, grid_size: int = 512
) -> DominanceResult:
    """Largest posterior mass a single curve point weakly dominates.

    Candidates are the shared fpr grid; ties pick the smallest fpr.
    The grid is sorted and the curve value g is nondecreasing along it,
    so the candidates that weakly dominate draw i (a_k <= alpha_i and
    g_k >= beta_i) form one contiguous run of the grid.  The mass at
    every candidate is an exact count over those runs, in
    O((candidates + draws) log candidates) time.
    q_max = 0 means no curve point dominates any draw (all mass above
    the curve) and the maximizer is reported as undefined.
    """
    q, alpha, _ = _first_peak(draws, roc, grid_size, lambda cand, g: _run_share(g, draws.betas, cand, draws.alphas))
    return DominanceResult(q_max=q, alpha_d=alpha if q > 0.0 else None)


def loss_eval(kind, theta_m, theta_h, roc: RocCurve) -> float:
    """Loss of one candidate curve point against one maker pair.

    ``theta_m`` must sit on the curve (within 1e-9).  Every cataloged
    loss is 1 when theta_m fails to weakly dominate theta_h.
    """
    a_m, b_m = float(theta_m[0]), float(theta_m[1])
    if abs(b_m - roc.tpr_at_fpr(a_m)) > 1e-9:
        raise ValueError(f"theta_m {theta_m} is not on the curve")
    out = _benefit_means(
        np.array([a_m]), np.array([b_m]), np.array([float(theta_h[0])]),
        np.array([float(theta_h[1])]), kind, roc,
    )
    return float(1.0 - out[0])


def min_posterior_loss(
    draws: PosteriorDraws, roc: RocCurve, kind=LossKind.BASELINE, grid_size: int = 512
):
    """Minimize posterior expected loss over the candidate curve points.

    Returns (value, minimizing curve point); ties pick the smallest
    fpr.  For the baseline indicator the value is exactly 1 - q_max on
    the same grid: the largest mean benefit is the least loss.
    """
    benefit, alpha, beta = _first_peak(
        draws, roc, grid_size, lambda cand, g: _benefit_means(cand, g, draws.alphas, draws.betas, kind, roc)
    )
    return 1.0 - benefit, RatePair(alpha, beta)


def replace_decision(
    draws: PosteriorDraws,
    roc: RocCurve,
    kind=LossKind.BASELINE,
    credible_level: float = 0.95,
    maker_id: str = "",
    grid_size: int = 512,
) -> dict:
    """Replace/retain verdict row with the machine threshold at the best point.

    Baseline: replace iff q_max >= credible_level.  Other losses:
    replace iff minimized posterior loss <= 1 - credible_level, which
    reduces to the baseline rule for the indicator loss.
    """
    if not 0.0 < credible_level < 1.0:
        raise ValueError("credible_level must be in (0, 1)")
    dom = max_dominance(draws, roc, grid_size)
    if kind is LossKind.BASELINE:
        # q_max 0: no candidate dominates, so the first stands; every grid starts at fpr 0
        theta0_alpha = dom.alpha_d if dom.alpha_d is not None else 0.0
        theta0 = RatePair(theta0_alpha, float(roc.tpr_at_fpr(theta0_alpha)))
        min_loss = 1.0 - dom.q_max
        replace = dom.q_max >= credible_level
    else:
        min_loss, theta0 = min_posterior_loss(draws, roc, kind, grid_size)
        replace = min_loss <= 1.0 - credible_level
    kind_name = kind.value if isinstance(kind, LossKind) else "cost-benefit"
    return {
        "maker_id": maker_id,
        "replace": bool(replace),
        "threshold": roc.threshold_at_point(theta0),
        "q_max": dom.q_max,
        "alpha_d": np.nan if dom.alpha_d is None else dom.alpha_d,
        "loss_kind": kind_name,
        "min_loss": min_loss,
        "prob_below": prob_below_roc(draws, roc),
        "theta0_alpha": theta0.alpha,
        "theta0_beta": theta0.beta,
    }


class RetentionMethod(enum.Enum):
    DOMINATE = "dominate"
    ABOVE = "above"


@dataclass(frozen=True)
class RetentionResult:
    retain: bool
    support: float
    alpha_at: float | None


def reversed_null_retain(
    draws: PosteriorDraws,
    roc: RocCurve,
    credible_level: float = 0.95,
    method: RetentionMethod = RetentionMethod.DOMINATE,
    grid_size: int = 512,
) -> RetentionResult:
    """Retention under the reversed burden: keep only convincing makers.

    DOMINATE keeps the maker when some curve point is weakly dominated
    by at least ``credible_level`` of the posterior mass; ABOVE keeps
    the maker when that share of mass sits strictly above the curve.
    A DOMINATE retention implies an ABOVE retention on the same draws.
    DOMINATE counts contiguous runs as ``max_dominance`` does, mirrored:
    the candidates draw i dominates (a_k >= alpha_i and g_k <= beta_i)
    form one run of the sorted grid because g is nondecreasing along it.
    """
    if not 0.0 < credible_level < 1.0:
        raise ValueError("credible_level must be in (0, 1)")
    if method is RetentionMethod.ABOVE:
        support = float(np.mean(draws.betas > roc.tpr_at_fpr(draws.alphas)))
        return RetentionResult(retain=support >= credible_level, support=support, alpha_at=None)
    support, alpha, _ = _first_peak(draws, roc, grid_size, lambda cand, g: _run_share(cand, draws.alphas, g, draws.betas))
    alpha_at = alpha if support > 0.0 else None
    return RetentionResult(retain=support >= credible_level, support=support, alpha_at=alpha_at)


def benchmark_maker_bayesian(
    maker_id: str,
    counts: ConfusionCounts,
    roc: RocCurve,
    prior: DirichletParams | float = DEFAULT_PRIOR_WEIGHT,
    n_draws: int = 10_000,
    seed: int | np.random.Generator = 0,
    credible_level: float = 0.95,
    kind=LossKind.BASELINE,
    grid_size: int = 512,
) -> dict:
    """Full per-maker Bayesian run: posterior, dominance mass, verdict row with the case count ``n``."""
    with naming_maker(maker_id):
        params = posterior_params(counts, prior)
        draws = sample_posterior(params, n_draws, seed)
        return {**replace_decision(draws, roc, kind, credible_level, maker_id, grid_size), "n": counts.n}


# -- CSV interchange ---------------------------------------------------
#
# alpha_d is empty when no curve point dominates any draw.

def _parse_flag(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"replace must be true or false, got {cell!r}")
    return cell == "true"


_BAYES_FILE = (
    ("maker_id", str, str),
    ("q_max", format_float, parse_float),
    ("alpha_d", format_optional, parse_optional),
    ("loss_kind", str, str),
    ("min_loss", format_float, parse_float),
    ("replace", lambda flag: "true" if flag else "false", _parse_flag),
    ("threshold", format_float, parse_float),
)


def write_bayesian_csv(path, verdicts: Verdicts) -> None:
    write_fields(path, _BAYES_FILE, verdicts)


def read_bayesian_csv(path) -> Verdicts:
    """The table of the file's columns; n, prob_below and theta0_alpha/beta are not among them."""
    return Verdicts.from_rows(read_fields(path, _BAYES_FILE, unique="maker_id"), [name for name, _, _ in _BAYES_FILE])
