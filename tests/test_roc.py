"""Curve construction, evaluation, geometry queries, CSV interchange."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rocbench.core import ConfusionCounts, RatePair, tally_confusion
from rocbench.roc import (
    RocCurve,
    build_roc,
    np_best_vertex,
    np_objective,
    read_roc_csv,
    write_roc_csv,
)


def two_segment():
    return RocCurve.from_pairs([(0.0, 0.0), (0.2, 0.8), (1.0, 1.0)])


def diagonal():
    return RocCurve.from_pairs([(0.0, 0.0), (1.0, 1.0)])


def hand_curve():
    """Six distinct scores, labels 1,1,0,1,0,0 in score order."""
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
    labels = np.array([1, 1, 0, 1, 0, 0])
    return build_roc(scores, labels)


class TestBuildRoc:
    def test_perfect_separation(self):
        roc = build_roc([0.9, 0.1], [1, 0])
        np.testing.assert_array_equal(roc.alphas, [0, 0, 1])
        np.testing.assert_array_equal(roc.betas, [0, 1, 1])
        assert roc.auc() == 1.0

    def test_constant_scores(self):
        roc = build_roc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert roc.n_points == 2
        assert roc.auc() == 0.5

    def test_hand_curve_vertices(self):
        roc = hand_curve()
        np.testing.assert_allclose(roc.thresholds, [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, -0.6])
        np.testing.assert_allclose(roc.alphas, [0, 0, 0, 1 / 3, 1 / 3, 2 / 3, 1])
        np.testing.assert_allclose(roc.betas, [0, 1 / 3, 2 / 3, 2 / 3, 1, 1, 1])

    def test_hand_curve_auc(self):
        assert hand_curve().auc() == pytest.approx(8 / 9, abs=1e-12)

    def test_vertices_match_brute_force_tally(self):
        rng = np.random.default_rng(5)
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        roc = build_roc(scores, labels)
        for c, a, b in zip(roc.thresholds, roc.alphas, roc.betas):
            counts = tally_confusion(labels, (scores > c).astype(int))
            assert a == pytest.approx(counts.n01 / (counts.n01 + counts.n00))
            assert b == pytest.approx(counts.n11 / (counts.n11 + counts.n10))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            build_roc([0.1, 0.9], [1, 1])

    def test_ties_group_into_one_vertex(self):
        roc = build_roc([0.5, 0.5, 0.9], [0, 1, 1])
        # distinct scores 0.9, 0.5 plus two anchors
        assert roc.n_points == 3
        np.testing.assert_allclose(roc.thresholds, [0.9, 0.5, -0.5])

    @pytest.mark.parametrize("low", [2.0**53 + 4, -(2.0**60), 1e300])
    def test_anchor_below_scores_past_2_to_53(self, low):
        # low - 1.0 rounds back to low; the anchor is the next double down
        roc = build_roc(np.array([low, low, 2 * abs(low)]), np.array([0, 1, 1]))
        assert roc.thresholds[-1] == np.nextafter(low, -np.inf)
        assert (roc.alphas[-1], roc.betas[-1]) == (1.0, 1.0)

    def test_no_finite_anchor_below_the_lowest_double(self):
        lowest = -np.finfo(np.float64).max
        with pytest.raises(ValueError, match="no finite threshold lies below the smallest score"):
            build_roc(np.array([lowest, 0.0]), np.array([0, 1]))


class TestCurveEvaluation:
    def test_diagonal(self):
        assert diagonal().tpr_at_fpr(0.3) == pytest.approx(0.3)

    def test_interpolation(self):
        assert two_segment().tpr_at_fpr(0.1) == pytest.approx(0.4)

    def test_generalized_inverse(self):
        assert two_segment().fpr_at_tpr(0.8) == pytest.approx(0.2)

    def test_vertical_run_takes_top(self):
        # alpha = 0 runs from beta 0 up to 2/3; the function value is the top
        assert hand_curve().tpr_at_fpr(0.0) == pytest.approx(2 / 3)

    def test_chord_spans_run_top_to_next_bottom(self):
        assert hand_curve().tpr_at_fpr(1 / 6) == pytest.approx(2 / 3)

    def test_inverse_prefers_smallest_alpha(self):
        # beta = 0.5 is reached inside the vertical run at alpha 0
        assert hand_curve().fpr_at_tpr(0.5) == 0.0

    def test_inverse_of_value_leq_identity(self):
        roc = two_segment()
        for a in np.linspace(0, 1, 23):
            assert roc.fpr_at_tpr(roc.tpr_at_fpr(a)) <= a + 1e-12

    def test_vectorized_matches_scalar(self):
        roc = hand_curve()
        grid = np.linspace(0, 1, 37)
        np.testing.assert_allclose(
            roc.tpr_at_fpr(grid), [roc.tpr_at_fpr(float(a)) for a in grid]
        )

    def test_auc_trapezoid(self):
        roc = RocCurve.from_pairs([(0, 0), (0.5, 0.75), (1, 1)])
        assert roc.auc() == pytest.approx(0.625)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 300))
    @settings(max_examples=50, deadline=None)
    def test_auc_equals_numpy_trapezoid_bitwise(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = np.r_[0, 1, rng.integers(0, 2, n - 2)]
        roc = build_roc(rng.random(n).round(2), labels)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert roc.auc() == float(trapezoid(roc.betas, roc.alphas))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_nondecreasing_at_and_just_below_knots(self, seed):
        # Each tied score level takes a random block of the negatives and
        # of the positives, so knots sit at rates i/n_neg and j/n_pos, and
        # a block without negatives makes a vertical run.  Rounding on a
        # long chord could put g an ulp above the next knot's value just
        # left of that knot, on about one such curve in 800: hence many
        # curves per example.
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n_neg, n_pos = (int(n) for n in rng.integers(1, 200, 2))
            levels = int(rng.integers(1, 6))
            neg = np.diff(np.r_[0, np.sort(rng.integers(0, n_neg + 1, levels - 1)), n_neg])
            pos = np.diff(np.r_[0, np.sort(rng.integers(0, n_pos + 1, levels - 1)), n_pos])
            level = np.arange(levels, 0, -1)
            roc = build_roc(
                np.r_[np.repeat(level, neg), np.repeat(level, pos)],
                np.r_[np.zeros(n_neg, int), np.ones(n_pos, int)],
            )
            knots = roc.knot_alphas
            a = np.sort(np.concatenate([knots, np.nextafter(knots, 0.0), rng.random(20)]))
            assert (np.diff(roc.tpr_at_fpr(a)) >= 0.0).all()

    def test_auc_ignores_collinear_points(self):
        a = RocCurve.from_pairs([(0, 0), (0.5, 0.5), (1, 1)])
        assert a.auc() == pytest.approx(diagonal().auc())


class TestSlope:
    def test_segment_slopes(self):
        roc = two_segment()
        assert roc.slope_at(0.1) == pytest.approx(4.0)
        assert roc.slope_at(0.5) == pytest.approx(0.25)

    def test_knot_uses_left_segment(self):
        assert two_segment().slope_at(0.2) == pytest.approx(4.0)

    def test_right_end(self):
        assert two_segment().slope_at(1.0) == pytest.approx(0.25)


class TestThresholds:
    def test_pair_at_threshold_vertex(self):
        roc = hand_curve()
        pair = roc.pair_at_threshold(0.6)
        assert pair == RatePair(pytest.approx(1 / 3), pytest.approx(2 / 3))

    def test_pair_at_threshold_interpolates(self):
        roc = hand_curve()
        pair = roc.pair_at_threshold(0.75)  # midway between 0.8 and 0.7
        assert pair.alpha == pytest.approx(0.0)
        assert pair.beta == pytest.approx(0.5)

    def test_threshold_at_point_on_vertical_run(self):
        assert hand_curve().threshold_at_point((0.0, 0.5)) == pytest.approx(0.75)

    def test_threshold_at_point_on_flat_segment(self):
        assert hand_curve().threshold_at_point((0.5, 1.0)) == pytest.approx(0.45)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_threshold_at_point_matches_the_run_scan(self, seed):
        # tied scores make vertical runs; points sit on vertices, inside runs and on chords
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        roc = build_roc(rng.integers(0, 6, n).astype(float), np.r_[0, 1, rng.integers(0, 2, n - 2)])
        pairs = [*zip(roc.alphas, roc.betas)]
        pairs += [(a, float(roc.tpr_at_fpr(a))) for a in rng.random(5)]
        pairs += [(roc.alphas[k], b) for k, b in zip(rng.integers(0, roc.n_points, 5), rng.random(5))]
        for pair in pairs:
            assert roc.threshold_at_point(pair) == _threshold_by_run_scan(roc, pair)

    def test_threshold_round_trip(self):
        roc = hand_curve()
        for c in np.linspace(-0.5, 0.85, 28):
            pair = roc.pair_at_threshold(float(c))
            c_back = roc.threshold_at_point(pair)
            pair_back = roc.pair_at_threshold(c_back)
            assert pair_back.alpha == pytest.approx(pair.alpha, abs=1e-9)
            assert pair_back.beta == pytest.approx(pair.beta, abs=1e-9)


def _threshold_by_run_scan(roc, pair) -> float:
    """``RocCurve.threshold_at_point`` with the top of a vertical run found one vertex at a time."""
    a, b = float(pair[0]), float(pair[1])
    al, be, th = roc.alphas, roc.betas, roc.thresholds
    n = al.size
    j = int(np.searchsorted(al, a, side="left"))
    if j < n and al[j] == a:
        k = j
        while k + 1 < n and al[k + 1] == a:
            k += 1
        if b <= be[j]:
            return float(th[j])
        if b >= be[k]:
            return float(th[k])
        m = j + int(np.searchsorted(be[j : k + 1], b, side="left"))
        s = (b - be[m - 1]) / (be[m] - be[m - 1])
        return float(th[m - 1] + s * (th[m] - th[m - 1]))
    s = (a - al[j - 1]) / (al[j] - al[j - 1])
    return float(th[j - 1] + s * (th[j] - th[j - 1]))


class TestDominatingSegment:
    def test_two_segment_example(self):
        seg = two_segment().dominating_segment((0.5, 0.5))
        assert seg.a_pair == RatePair(pytest.approx(0.5), pytest.approx(0.875))
        assert seg.b_pair == RatePair(pytest.approx(0.125), pytest.approx(0.5))
        assert seg.c_lower == pytest.approx(0.3125)
        assert seg.c_upper == pytest.approx(0.6875)

    def test_on_curve_point_has_no_segment(self):
        assert diagonal().dominating_segment((0.5, 0.5)) is None

    def test_above_curve_has_no_segment(self):
        assert two_segment().dominating_segment((0.1, 0.9)) is None

    def test_every_threshold_in_segment_dominates(self):
        roc = two_segment()
        q = (0.5, 0.5)
        seg = roc.dominating_segment(q)
        for c in np.linspace(seg.c_lower, seg.c_upper, 101):
            pair = roc.pair_at_threshold(float(c))
            assert pair.alpha <= q[0] + 1e-12
            assert pair.beta >= q[1] - 1e-12

    def test_matches_brute_force_on_random_curves(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            scores = rng.random(300)
            labels = (rng.random(300) < scores).astype(int)
            if labels.min() == labels.max():
                continue
            roc = build_roc(scores, labels)
            q = (float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.05, 0.4)))
            seg = roc.dominating_segment(q)
            if roc.tpr_at_fpr(q[0]) <= q[1] + 1e-12:
                assert seg is None
                continue
            # dense threshold sweep: dominating thresholds form [c_lower, c_upper]
            cs = np.linspace(roc.thresholds[-1], roc.thresholds[0], 10001)
            dom = []
            for c in cs:
                p = roc.pair_at_threshold(float(c))
                dom.append(p.alpha <= q[0] + 1e-9 and p.beta >= q[1] - 1e-9)
            dom = np.asarray(dom)
            lo, hi = cs[dom].min(), cs[dom].max()
            step = cs[1] - cs[0]
            assert abs(seg.c_lower - lo) <= step + 1e-9
            assert abs(seg.c_upper - hi) <= step + 1e-9


CHI2_95 = -2.0 * np.log(0.05)


def sampled_gap(roc, center, cov, q, n_points=2**16):
    """Dense oracle for ``ellipse_gap``: the largest gap over ``n_points`` boundary points.

    Each point's fpr is clipped to [0, 1] (``tpr_at_fpr`` does it) and its
    tpr up to 0, as ``ellipse_gap`` clips them.
    """
    w, v = np.linalg.eigh(cov)
    scale = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    t = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
    pts = np.asarray(center)[:, None] + np.sqrt(q) * scale @ np.vstack([np.cos(t), np.sin(t)])
    return float((np.maximum(pts[1], 0.0) - roc.tpr_at_fpr(pts[0])).max())


@st.composite
def ellipses_below_curves(draw):
    """(curve, center, cov): a curve and a 95 % ellipse centered 0-3 tpr radii below it."""
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):  # small integer scores tie, so the curve has vertical runs
        scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    else:
        scores = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    labels[:2] = [0, 1]
    roc = build_roc(np.asarray(scores, dtype=float), labels)
    # variances floored as confidence_ellipse floors them
    va, vb = (max(10.0 ** draw(st.floats(-14.0, -1.0)), 1e-12) for _ in range(2))
    rho = draw(st.floats(-(1 - 1e-9), 1 - 1e-9))
    cov = np.array([[va, rho * np.sqrt(va * vb)], [rho * np.sqrt(va * vb), vb]])
    ca = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    cb = max(roc.tpr_at_fpr(ca) - draw(st.floats(0.0, 3.0)) * np.sqrt(CHI2_95 * vb), 0.0)
    return roc, (ca, cb), cov


class TestEllipseGap:
    def test_disc_below_the_diagonal(self):
        # the top of tpr - fpr over a disc is its center's gap plus the radius along (-1, 1)
        cov = np.diag([4e-4, 4e-4])
        gap = diagonal().ellipse_gap((0.5, 0.43), cov, CHI2_95)
        assert gap == pytest.approx(-0.07 + np.sqrt(CHI2_95 * 8e-4), abs=1e-14)

    @given(ellipses_below_curves())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_boundary_sampling(self, case):
        roc, center, cov = case
        n_points = 2**16
        gap = roc.ellipse_gap(center, cov, CHI2_95)
        oracle = sampled_gap(roc, center, cov, CHI2_95, n_points)
        # Sampling can only miss the top.  Samples are dt apart in the
        # boundary's angle, along which a point moves at most
        # sqrt(q * largest eigenvalue) per radian.  From the maximizer, the
        # sample a step towards smaller fpr has a tpr within that distance
        # and no higher curve value (g is nondecreasing); the step can pass
        # the leftmost point, and then the sample's fpr exceeds the
        # maximizer's by at most ra * dt^2 / 2, over which g rises at most
        # its steepest chord slope times that (no vertical run sits in so
        # thin a sliver on these curves).
        dt = 2.0 * np.pi / n_points
        speed = np.sqrt(CHI2_95 * np.linalg.eigvalsh(cov).max())
        da, db = np.diff(roc.alphas), np.diff(roc.betas)
        steepest = (db[da > 0] / da[da > 0]).max()
        ra = np.sqrt(CHI2_95 * cov[0, 0])
        assert oracle - 1e-12 <= gap <= oracle + speed * dt + steepest * ra * dt * dt / 2 + 1e-12


class TestConcavity:
    def test_diagonal_clean(self):
        assert diagonal().concavity_violations() == []

    def test_violation_index(self):
        roc = RocCurve.from_pairs([(0, 0), (0.5, 0.2), (0.6, 0.9), (1, 1)])
        assert roc.concavity_violations() == [1]

    def test_concave_score_model_clean(self):
        rng = np.random.default_rng(3)
        x = rng.random(20000)
        roc = build_roc(x, (rng.random(20000) < x).astype(int))
        # empirical curves wiggle; the reference strictly concave family is clean
        grid = np.linspace(0, 1, 101)
        smooth = RocCurve.from_pairs(list(zip(grid, 2 * np.sqrt(grid) - grid)))
        assert smooth.concavity_violations() == []
        assert roc.auc() > 0.7


class TestNpObjective:
    def test_ideal_point(self):
        assert np_objective((0.0, 1.0), 1.0, 1.0) == 1.0

    def test_arithmetic(self):
        assert np_objective((0.2, 0.6), 2.0, 1.0) == pytest.approx(1.0)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            np_objective((0.2, 0.6), 0.0, 1.0)

    def test_dominance_implies_higher_payoff(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            better = (rng.uniform(0, 0.5), rng.uniform(0.5, 1))
            worse = (better[0] + rng.uniform(0, 0.4), better[1] - rng.uniform(0, 0.4))
            phi, eta = rng.uniform(0.1, 5, 2)
            assert np_objective(better, phi, eta) >= np_objective(worse, phi, eta)

    def test_best_vertex_is_max(self):
        roc = two_segment()
        pair, value = np_best_vertex(roc, 1.0, 1.0)
        assert pair == RatePair(0.2, 0.8)
        assert value == pytest.approx(0.6)


class TestJensenGap:
    @given(st.sets(st.integers(1, 99), min_size=2, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_average_of_curve_points_falls_below(self, knots):
        # two adjacent vertices share a straight segment: no strict gap there
        assume(max(knots) - min(knots) >= 2)
        grid = np.linspace(0, 1, 101)
        roc = RocCurve.from_pairs(list(zip(grid, 2 * np.sqrt(grid) - grid)))
        alphas = grid[sorted(knots)]
        betas = np.array([roc.tpr_at_fpr(float(a)) for a in alphas])
        a_bar, b_bar = alphas.mean(), betas.mean()
        assert b_bar < roc.tpr_at_fpr(float(a_bar)) - 1e-9


class TestCurveValidation:
    def test_needs_anchor_points(self):
        with pytest.raises(ValueError):
            RocCurve(thresholds=[1.0, 0.0], alphas=[0.0, 0.9], betas=[0.0, 1.0])

    def test_thresholds_strictly_decreasing(self):
        with pytest.raises(ValueError):
            RocCurve(thresholds=[1.0, 1.0, 0.0], alphas=[0, 0.5, 1], betas=[0, 0.5, 1])

    def test_extreme_thresholds_build_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roc = RocCurve([1e308, -1e308], [0, 1], [0, 1])
            assert roc.n_points == 2
            roc = build_roc(np.array([1e308, -1e308]), np.array([1, 0]))
            np.testing.assert_array_equal(roc.thresholds[:2], [1e308, -1e308])
            with pytest.raises(ValueError, match="thresholds must be strictly decreasing"):
                RocCurve([-1e308, 1e308], [0, 1], [0, 1])

    def test_threshold_between_extreme_thresholds_is_finite(self):
        # 1e308 - -1e308 overflows; the point's threshold still lies between its vertices'
        roc = build_roc(np.array([1e308, -1e308]), np.array([1, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pair, (hi, lo) in (((0.0, 0.5), (0, 1)), ((0.0, 0.25), (0, 1)), ((0.5, 1.0), (1, 2))):
                c = roc.threshold_at_point(pair)
                assert np.isfinite(c)
                assert roc.thresholds[lo] <= c <= roc.thresholds[hi]

    def test_rates_monotone(self):
        with pytest.raises(ValueError):
            RocCurve(thresholds=[1.0, 0.5, 0.0], alphas=[0, 0.6, 1], betas=[0, 1.0, 0.9])

    def test_from_pairs_adds_anchors(self):
        roc = RocCurve.from_pairs([(0.2, 0.8)])
        np.testing.assert_allclose(roc.alphas, [0, 0.2, 1])
        np.testing.assert_allclose(roc.betas, [0, 0.8, 1])


class TestRocCsv:
    def test_round_trip(self, tmp_path):
        roc = hand_curve()
        path = tmp_path / "roc.csv"
        write_roc_csv(path, roc)
        back = read_roc_csv(path)
        np.testing.assert_allclose(back.thresholds, roc.thresholds)
        np.testing.assert_allclose(back.alphas, roc.alphas)
        np.testing.assert_allclose(back.betas, roc.betas)

    def test_round_trip_is_exact_for_close_scores(self, tmp_path):
        # 0.5 and 0.5 + 1e-12 print alike under %.10g
        roc = build_roc(np.array([0.5 + 1e-12, 0.5, 0.25]), np.array([1, 0, 1]))
        path = tmp_path / "roc.csv"
        write_roc_csv(path, roc)
        back = read_roc_csv(path)
        for name in ("thresholds", "alphas", "betas"):
            np.testing.assert_array_equal(getattr(back, name), getattr(roc, name))

    def test_reemit_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        scores = rng.random(150)
        labels = rng.integers(0, 2, 150)
        roc = build_roc(scores, labels)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_roc_csv(p1, roc)
        write_roc_csv(p2, read_roc_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_roc_csv(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("abc,0.5,0.5", "line 3: non-numeric value 'abc'"),
            ("0.5,nan,0.5", "line 3: non-finite value 'nan'"),
            ("inf,0.5,0.5", "line 3: non-finite value 'inf'"),
            ("0.5,0.5", "line 3: expected 3 fields, got 2"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"threshold,fpr,tpr\n2,0,0\n{bad}\n0,1,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_roc_csv(path)

    def test_invalid_curve_names_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("threshold,fpr,tpr\n0,0,0\n1,1,1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: thresholds must be strictly decreasing")):
            read_roc_csv(path)

    def test_empty_file_and_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_roc_csv(path)
        path.write_text("threshold,fpr,tpr\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_roc_csv(path)
