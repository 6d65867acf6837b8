"""Empirical ROC curves and their geometry.

A curve is the threshold-indexed polyline of (fpr, tpr) pairs produced
by sweeping a decision rule ``predict positive iff score > c`` over the
distinct score values, anchored at (0, 0) and (1, 1).  The continuous
curve between vertices is the straight chord, so the curve value at a
false positive rate `a` is

    g(a) = best true positive rate reachable at fpr a,

single valued everywhere (at a vertex with a vertical jump the upper
point wins).  Its generalized inverse g_inv(b) is the smallest fpr whose
curve value reaches b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RatePair
from .csvio import parse_float, read_table, write_rows

__all__ = [
    "RocCurve",
    "DominatingSegment",
    "build_roc",
    "np_objective",
    "np_best_vertex",
    "read_roc_csv",
    "write_roc_csv",
]

_ON_CURVE_TOL = 1e-12


def _between(t0, t1, s) -> float:
    """The threshold a fraction ``s`` of the way from ``t0`` to ``t1``.

    ``t0 + s * (t1 - t0)`` where the difference is finite, since verdict
    files print that rounding; the weighted mean, which cannot overflow,
    where thresholds of opposite sign span more than the largest double.
    """
    t0, t1 = float(t0), float(t1)
    step = t1 - t0  # Python floats: an overflow gives inf, without a warning
    return float(t0 + s * step if np.isfinite(step) else (1 - s) * t0 + s * t1)


@dataclass(frozen=True)
class DominatingSegment:
    """The stretch of curve that weakly dominates a below-curve pair.

    ``b_pair`` matches the queried beta at the curve's smaller fpr,
    ``a_pair`` matches the queried alpha at the curve's larger tpr;
    every curve point with threshold in [c_lower, c_upper] has
    alpha <= queried alpha and beta >= queried beta.
    """

    c_lower: float
    c_upper: float
    a_pair: RatePair
    b_pair: RatePair


class RocCurve:
    """Piecewise-linear ROC polyline with strictly decreasing thresholds."""

    def __init__(self, thresholds, alphas, betas):
        t = np.ascontiguousarray(thresholds, dtype=np.float64)
        a = np.ascontiguousarray(alphas, dtype=np.float64)
        b = np.ascontiguousarray(betas, dtype=np.float64)
        if not (t.ndim == a.ndim == b.ndim == 1) or not (t.size == a.size == b.size):
            raise ValueError("thresholds, alphas, betas must be 1-d arrays of equal length")
        if t.size < 2:
            raise ValueError("a curve needs at least the two anchor points")
        if not (np.isfinite(t).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("non-finite curve data")
        # neighbours compared, not subtracted: a difference of extreme thresholds overflows
        if np.any(t[1:] >= t[:-1]):
            raise ValueError("thresholds must be strictly decreasing")
        if np.any(a[1:] < a[:-1]) or np.any(b[1:] < b[:-1]):
            raise ValueError("fpr and tpr must be non-decreasing along the curve")
        if a.min() < 0 or a.max() > 1 or b.min() < 0 or b.max() > 1:
            raise ValueError("rates must lie in [0, 1]")
        if a[0] != 0.0 or b[0] != 0.0 or a[-1] != 1.0 or b[-1] != 1.0:
            raise ValueError("curve must start at (0, 0) and end at (1, 1)")
        for arr in (t, a, b):
            arr.flags.writeable = False
        self.thresholds = t
        self.alphas = a
        self.betas = b
        # per-vertex-alpha envelope: _hi is the top of a vertical run,
        # _lo its bottom; chords run from hi of one knot to lo of the next
        ua, first = np.unique(a, return_index=True)
        last = np.r_[first[1:], a.size] - 1
        ua.flags.writeable = False
        self._ua = ua
        self._lo = b[first]
        self._hi = b[last]

    # -- basic views ---------------------------------------------------

    @property
    def n_points(self) -> int:
        return self.alphas.size

    @property
    def knot_alphas(self) -> np.ndarray:
        """Distinct vertex fpr values (read-only view)."""
        return self._ua

    def auc(self) -> float:
        """Area under the polyline (trapezoid rule)."""
        a, b = self.alphas, self.betas
        return float(np.sum(np.diff(a) * (b[1:] + b[:-1]) / 2.0))

    # -- curve as a function -------------------------------------------

    def tpr_at_fpr(self, alpha):
        """Curve value g(alpha); accepts scalars or arrays.

        Nondecreasing in alpha in floating point too, not only in exact
        arithmetic: the dominance counts in ``bayes`` depend on it.
        """
        a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, 1.0)
        scalar = a.ndim == 0
        a = np.atleast_1d(a)
        j = np.searchsorted(self._ua, a, side="left")
        exact = self._ua[j] == a
        k = np.maximum(j, 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            chord = self._hi[k - 1] + (a - self._ua[k - 1]) * (
                self._lo[k] - self._hi[k - 1]
            ) / (self._ua[k] - self._ua[k - 1])
        # rounding can overshoot the chord's right end by an ulp just left
        # of a knot
        chord = np.minimum(chord, self._lo[k])
        out = np.where(exact, self._hi[j], chord)
        return float(out[0]) if scalar else out

    def fpr_at_tpr(self, beta):
        """Generalized inverse: smallest fpr whose curve value reaches beta."""
        b = np.clip(np.asarray(beta, dtype=np.float64), 0.0, 1.0)
        scalar = b.ndim == 0
        b = np.atleast_1d(b)
        i = np.searchsorted(self.betas, b, side="left")
        im = np.maximum(i, 1)
        da = self.alphas[im] - self.alphas[im - 1]
        db = self.betas[im] - self.betas[im - 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            interp = self.alphas[im - 1] + (b - self.betas[im - 1]) * da / db
        out = np.where(i == 0, self.alphas[0], np.where(da == 0.0, self.alphas[im], interp))
        return float(out[0]) if scalar else out

    def slope_at(self, alpha):
        """Chord slope of g at alpha; at a vertex the left chord wins."""
        a = np.clip(np.asarray(alpha, dtype=np.float64), 0.0, 1.0)
        scalar = a.ndim == 0
        a = np.atleast_1d(a)
        k = np.maximum(np.searchsorted(self._ua, a, side="left"), 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = (self._lo[k] - self._hi[k - 1]) / (self._ua[k] - self._ua[k - 1])
        return float(out[0]) if scalar else out

    # -- thresholds ------------------------------------------------------

    def pair_at_threshold(self, c):
        """(fpr, tpr) of the curve at threshold c, linear between vertices."""
        c = np.asarray(c, dtype=np.float64)
        scalar = c.ndim == 0
        c = np.atleast_1d(c)
        t_asc = self.thresholds[::-1]
        a = np.interp(c, t_asc, self.alphas[::-1])
        b = np.interp(c, t_asc, self.betas[::-1])
        if scalar:
            return RatePair(float(a[0]), float(b[0]))
        return a, b

    def threshold_at_point(self, pair) -> float:
        """Threshold of an on-curve point, linear between vertices."""
        a, b = float(pair[0]), float(pair[1])
        al, be, th = self.alphas, self.betas, self.thresholds
        n = al.size
        j = int(np.searchsorted(al, a, side="left"))
        if j < n and al[j] == a:
            k = int(np.searchsorted(al, a, side="right")) - 1  # top of the vertical run at a
            if b <= be[j]:
                return float(th[j])
            if b >= be[k]:
                return float(th[k])
            m = j + int(np.searchsorted(be[j : k + 1], b, side="left"))
            return _between(th[m - 1], th[m], (b - be[m - 1]) / (be[m] - be[m - 1]))
        if j == 0 or j == n:
            raise ValueError(f"point {pair} is outside the curve's fpr range")
        return _between(th[j - 1], th[j], (a - al[j - 1]) / (al[j] - al[j - 1]))

    # -- geometry queries -------------------------------------------------

    def dominating_segment(self, pair) -> DominatingSegment | None:
        """Dominating stretch for a pair strictly below the curve, else None."""
        a_q, b_q = float(pair[0]), float(pair[1])
        if not (0.0 <= a_q <= 1.0 and 0.0 <= b_q <= 1.0):
            raise ValueError(f"pair {pair} outside the unit square")
        g_a = self.tpr_at_fpr(a_q)
        if g_a - b_q <= _ON_CURVE_TOL:
            return None
        a_pair = RatePair(a_q, float(g_a))
        b_pair = RatePair(float(self.fpr_at_tpr(b_q)), b_q)
        t_a = self.threshold_at_point(a_pair)
        t_b = self.threshold_at_point(b_pair)
        return DominatingSegment(
            c_lower=min(t_a, t_b), c_upper=max(t_a, t_b), a_pair=a_pair, b_pair=b_pair
        )

    def ellipse_gap(self, center, cov, q: float) -> float:
        """Largest tpr - g(fpr) over the ellipse (x - center)' cov^-1 (x - center) <= q.

        Each point is first clipped to the unit square, save that tpr is not
        clipped above 1, which cannot change the sign as g <= 1.  Beside a
        vertical run the gap just left of it counts.  ``cov`` is symmetric,
        with a positive fpr variance (``confidence_ellipse`` floors it).
        """
        ca, cb = float(center[0]), float(center[1])
        saa, sab, sbb = float(cov[0][0]), float(cov[0][1]), float(cov[1][1])
        # over fpr = ca + ra * tau, tau in [-1, 1], the upper edge is
        # tpr = cb + tilt * tau + bulge * sqrt(1 - tau^2)
        ra, tilt = math.sqrt(q * saa), sab * math.sqrt(q / saa)
        bulge = math.sqrt(max(q * (sbb - sab * sab / saa), 0.0))
        # of the slabs the fpr range meets, slab k spans knots k - 1 and k
        # with their chord; slabs 0 and m are fpr < 0 and > 1, flat at g(0), g(1)
        ua, m = self._ua, self._ua.size
        k = np.arange(*(np.searchsorted(ua, [ca - ra, ca + ra], side="right") + [0, 1]))
        j, r = np.maximum(k - 1, 0), np.minimum(k, m - 1)
        left, right = np.where(k > 0, ua[j], -np.inf), np.where(k < m, ua[r], np.inf)
        slope = (self._lo[r] - self._hi[j]) / (right - left)
        # tpr - chord is concave in tau: it tops where the edge's slope is the chord's, clamped to the slab
        lean = tilt - slope * ra
        h = np.hypot(lean, bulge)
        tau = np.divide(lean, h, out=np.zeros_like(h), where=h > 0.0)
        tau = np.clip(tau, np.maximum((left - ca) / ra, -1.0), np.minimum((right - ca) / ra, 1.0))
        edge = cb + tilt * tau + bulge * np.sqrt(1.0 - tau * tau)
        gap = edge - self._hi[j] - slope * (ca + ra * tau - ua[j])
        # clipping tpr up to 0 adds the leftmost point, at tpr 0
        return max(float(gap.max()), -self.tpr_at_fpr(ca - ra))

    def concavity_violations(self) -> list[int]:
        """Interior vertex indices where the chord slope increases."""
        da = np.diff(self.alphas)
        db = np.diff(self.betas)
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = db / da
        # a zero-length segment contributes nan; nan comparisons are False
        bad = slopes[1:] > slopes[:-1] + _ON_CURVE_TOL
        return [int(i) + 1 for i in np.flatnonzero(bad)]

    def distance_to_curve(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each (alpha, beta) row to the polyline."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        p0 = np.column_stack([self.alphas[:-1], self.betas[:-1]])
        seg = np.column_stack([np.diff(self.alphas), np.diff(self.betas)])
        seg_len2 = np.einsum("ij,ij->i", seg, seg)
        best = np.full(pts.shape[0], np.inf)
        chunk = max(1, int(2e6) // max(seg.shape[0], 1))
        for lo in range(0, pts.shape[0], chunk):
            block = pts[lo : lo + chunk]
            diff = block[:, None, :] - p0[None, :, :]
            with np.errstate(invalid="ignore", divide="ignore"):
                t = np.einsum("pij,ij->pi", diff, seg) / seg_len2
            t = np.clip(np.nan_to_num(t, nan=0.0), 0.0, 1.0)
            proj = diff - t[:, :, None] * seg[None, :, :]
            d2 = np.einsum("pij,pij->pi", proj, proj)
            best[lo : lo + chunk] = np.sqrt(d2.min(axis=1))
        return best

    def __eq__(self, other):
        return (
            isinstance(other, RocCurve)
            and np.array_equal(self.thresholds, other.thresholds)
            and np.array_equal(self.alphas, other.alphas)
            and np.array_equal(self.betas, other.betas)
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs) -> "RocCurve":
        """Curve through given (fpr, tpr) vertices; anchors added if missing.

        The vertices get synthetic strictly decreasing thresholds on [0, 1].
        """
        pts = [(float(p[0]), float(p[1])) for p in pairs]
        prepend = not pts or pts[0] != (0.0, 0.0)
        append = not pts or pts[-1] != (1.0, 1.0)
        full = ([(0.0, 0.0)] if prepend else []) + pts + ([(1.0, 1.0)] if append else [])
        arr = np.asarray(full)
        return cls(np.linspace(1.0, 0.0, arr.shape[0]), arr[:, 0], arr[:, 1])


def build_roc(scores, labels) -> RocCurve:
    """Empirical ROC of rule ``positive iff score > c`` over distinct scores.

    Vertex k carries the rates of the rule at the k-th largest distinct
    score; a final anchor below the smallest score yields (1, 1).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or s.shape != y.shape:
        raise ValueError("scores and labels must be 1-d arrays of equal length")
    if not np.isfinite(s).all():
        raise ValueError("non-finite scores")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    pos_total = int(np.count_nonzero(y == 1))
    neg_total = y.size - pos_total
    if pos_total == 0 or neg_total == 0:
        raise ValueError("need at least one positive and one negative label")
    order = np.argsort(-s, kind="stable")
    s_desc = s[order]
    y_desc = y[order]
    change = np.flatnonzero(s_desc[1:] != s_desc[:-1])
    starts = np.r_[0, change + 1]
    cum_pos = np.cumsum(y_desc == 1)
    cum_neg = np.cumsum(y_desc == 0)
    tp = np.r_[0, cum_pos[change]]
    fp = np.r_[0, cum_neg[change]]
    # one below the smallest score; past 2**53 that rounds back to it, so the next double down
    anchor = min(s_desc[-1] - 1.0, math.nextafter(s_desc[-1], -math.inf))
    if not math.isfinite(anchor):
        raise ValueError("no finite threshold lies below the smallest score")
    thresholds = np.r_[s_desc[starts], anchor]
    alphas = np.r_[fp / neg_total, 1.0]
    betas = np.r_[tp / pos_total, 1.0]
    return RocCurve(thresholds, alphas, betas)


def np_objective(pair, phi: float, eta: float) -> float:
    """Linear detection payoff phi * tpr - eta * fpr of one rate pair."""
    if phi <= 0 or eta <= 0:
        raise ValueError("phi and eta must be positive")
    return float(phi * pair[1] - eta * pair[0])


def np_best_vertex(roc: RocCurve, phi: float, eta: float) -> tuple[RatePair, float]:
    """Maximize the linear payoff over the curve's vertices.

    The objective is linear, so a vertex always attains the maximum;
    the first maximizer (smallest fpr) is returned.
    """
    values = [np_objective(p, phi, eta) for p in zip(roc.alphas, roc.betas)]
    i = int(np.argmax(values))
    return RatePair(float(roc.alphas[i]), float(roc.betas[i])), values[i]


# -- CSV interchange ---------------------------------------------------
#
# Format: header  threshold,fpr,tpr  with one row per vertex, ordered by
# strictly decreasing threshold.  Values are written in the shortest form
# that parses back to the same float: adjacent scores may differ only in
# their last digits, and a rounded form would merge them.

_ROC_HEADER = ("threshold", "fpr", "tpr")


def write_roc_csv(path, roc: RocCurve) -> None:
    write_rows(path, _ROC_HEADER, "%r,%r,%r\r\n", [roc.thresholds, roc.alphas, roc.betas])


def read_roc_csv(path) -> RocCurve:
    rows = read_table(path, _ROC_HEADER, lambda row: [parse_float(v) for v in row])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    arr = np.asarray(rows)
    try:
        return RocCurve(arr[:, 0], arr[:, 1], arr[:, 2])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
