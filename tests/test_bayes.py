"""Posterior sampling, dominance mass, the loss catalog, retention, CSV."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench import bayes
from rocbench.bayes import (
    CostBenefitLoss,
    DirichletParams,
    LossKind,
    PosteriorDraws,
    RetentionMethod,
    _benefit_means,
    benchmark_maker_bayesian,
    curve_candidate_grid,
    loss_eval,
    max_dominance,
    min_posterior_loss,
    posterior_params,
    prob_below_roc,
    read_bayesian_csv,
    replace_decision,
    reversed_null_retain,
    sample_posterior,
    write_bayesian_csv,
)
from rocbench.core import ConfusionCounts, RatePair
from rocbench.replacement import Verdicts
from rocbench.roc import RocCurve, build_roc, read_roc_csv


def steep_curve():
    return RocCurve.from_pairs([(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)])


def two_segment():
    return RocCurve.from_pairs([(0.0, 0.0), (0.2, 0.8), (1.0, 1.0)])


def make_draws(pairs):
    """Synthetic posterior draws with the stated rate pairs (base rate 1/2)."""
    pairs = np.asarray(pairs, dtype=float)
    a, b = pairs[:, 0].copy(), pairs[:, 1].copy()
    t = np.column_stack([0.5 * b, 0.5 * a, 0.5 * (1 - b), 0.5 * (1 - a)])
    return PosteriorDraws(t=t, alphas=a, betas=b)


def dense_mass(cand_a, cand_b, alphas, betas):
    """Mass each candidate weakly dominates, from the candidate x draw mask.

    Reference for the run counting in ``bayes``: a row sum of exact
    1.0s divided by n_draws.
    """
    dom = (alphas[None, :] >= cand_a[:, None]) & (betas[None, :] <= cand_b[:, None])
    return np.where(dom, 1.0, 0.0).sum(axis=1) / alphas.size


def dense_reverse_mass(cand_a, cand_b, alphas, betas):
    """Mass dominating each candidate, from the candidate x draw mask."""
    return ((alphas[None, :] <= cand_a[:, None]) & (betas[None, :] >= cand_b[:, None])).mean(axis=1)


@st.composite
def curves_and_draws(draw):
    """Empirical curves with tied scores and rates such as i/97, and draws
    on knots, one ulp below knots, on the curve and anywhere."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_neg = draw(st.sampled_from([1, 3, 10, 97]))
    n_pos = draw(st.sampled_from([1, 4, 97]))
    labels = np.r_[np.zeros(n_neg, int), np.ones(n_pos, int)]
    # few score levels: ties, and runs of positives that make vertical runs
    roc = build_roc(rng.integers(0, draw(st.integers(1, 30)), labels.size), labels)
    n = draw(st.integers(1, 60))
    k = rng.integers(0, roc.n_points, n)
    ka, kb = roc.alphas[k], roc.betas[k]
    below = np.nextafter(ka, 0.0)
    u, v = rng.random(n), rng.random(n)
    pairs = np.stack([
        np.column_stack([ka, kb]),  # on a vertex
        np.column_stack([below, roc.tpr_at_fpr(below)]),  # on the curve one ulp left of a knot
        np.column_stack([below, kb]),
        np.column_stack([ka, np.nextafter(kb, 0.0)]),
        np.column_stack([u, roc.tpr_at_fpr(u)]),  # on the curve
        np.column_stack([u, v]),
    ])
    source = rng.integers(0, pairs.shape[0], n)
    return roc, make_draws(pairs[source, np.arange(n)])


class TestDirichletParams:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            DirichletParams(np.ones(3))

    def test_positivity_validated(self):
        with pytest.raises(ValueError):
            DirichletParams(np.array([1.0, 0.0, 1.0, 1.0]))

    def test_mean(self):
        np.testing.assert_allclose(
            DirichletParams(np.array([1.0, 2.0, 3.0, 4.0])).mean(),
            [0.1, 0.2, 0.3, 0.4],
        )

    def test_read_only(self):
        p = DirichletParams(np.ones(4))
        with pytest.raises(ValueError):
            p.gamma[0] = 2.0


class TestPosteriorParams:
    def test_default_prior_update(self):
        counts = ConfusionCounts(n11=3, n01=1, n10=2, n00=4)
        np.testing.assert_allclose(
            posterior_params(counts).gamma, [3.1, 1.1, 2.1, 4.1]
        )

    def test_explicit_prior_object(self):
        counts = ConfusionCounts(n11=3, n01=1, n10=2, n00=4)
        prior = DirichletParams(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_allclose(
            posterior_params(counts, prior).gamma, [4.0, 2.0, 3.0, 5.0]
        )

    def test_zero_counts_keep_prior(self):
        counts = ConfusionCounts(n11=0, n01=0, n10=0, n00=0)
        np.testing.assert_allclose(posterior_params(counts, 0.5).gamma, [0.5] * 4)


def posterior_loop(gamma, n_draws, seed):
    """Reference for ``sample_posterior``'s rows: the reject-and-redraw loop written out, with its redraw count."""
    rng = np.random.default_rng(seed)
    kept = []
    short = n_draws
    redrawn = 0
    while short > 0:
        t = rng.dirichlet(gamma, size=short)
        ok = (t > 0.0).all(axis=1)
        kept.append(t[ok])
        bad = short - int(ok.sum())
        redrawn += bad
        short = bad
        if redrawn > 10 * n_draws:
            raise RuntimeError("posterior sampling rejected too many zero-cell draws")
    return np.concatenate(kept), redrawn


class TestSamplePosterior:
    # about 0.1 % and 73 % of these weights' draws have a zero cell
    @pytest.mark.parametrize("gamma, n_draws", [((0.01, 0.01, 5, 5), 20_000), ((1e-3, 1e-3, 5, 5), 2_000)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_redrawn_rows_match_the_loop_written_out(self, gamma, n_draws, seed):
        t, redrawn = posterior_loop(np.array(gamma), n_draws, seed)
        assert redrawn > 0
        draws = sample_posterior(DirichletParams(np.array(gamma)), n_draws, seed)
        np.testing.assert_array_equal(draws.t, t)
        np.testing.assert_array_equal(draws.alphas, t[:, 1] / (t[:, 1] + t[:, 3]))
        np.testing.assert_array_equal(draws.betas, t[:, 0] / (t[:, 0] + t[:, 2]))

    def test_too_many_zero_cell_draws_abort(self):
        gamma = np.array([1e-4, 1e-4, 5, 5])  # about 99.5 % of the draws have a zero cell
        message = "^posterior sampling rejected too many zero-cell draws$"
        with pytest.raises(RuntimeError, match=message):
            posterior_loop(gamma, 50, 0)
        with pytest.raises(RuntimeError, match=message):
            sample_posterior(DirichletParams(gamma), 50, 0)

    def test_deterministic(self):
        params = DirichletParams(np.array([3.1, 1.1, 2.1, 4.1]))
        a = sample_posterior(params, 500, 7)
        b = sample_posterior(params, 500, 7)
        np.testing.assert_array_equal(a.t, b.t)

    def test_rates_follow_marginal_betas(self):
        # cell aggregation: alpha ~ Beta(1.1, 4.1), beta ~ Beta(3.1, 2.1)
        params = DirichletParams(np.array([3.1, 1.1, 2.1, 4.1]))
        draws = sample_posterior(params, 20_000, 1)
        assert draws.alphas.mean() == pytest.approx(1.1 / 5.2, abs=0.005)
        assert draws.betas.mean() == pytest.approx(3.1 / 5.2, abs=0.005)

    def test_simplex_rows(self):
        params = DirichletParams(np.ones(4))
        draws = sample_posterior(params, 300, 0)
        np.testing.assert_allclose(draws.t.sum(axis=1), 1.0, rtol=1e-12)
        assert (draws.t > 0).all()
        assert draws.n_draws == 300

    def test_rate_map(self):
        params = DirichletParams(np.ones(4))
        d = sample_posterior(params, 100, 2)
        np.testing.assert_allclose(d.alphas, d.t[:, 1] / (d.t[:, 1] + d.t[:, 3]))
        np.testing.assert_allclose(d.betas, d.t[:, 0] / (d.t[:, 0] + d.t[:, 2]))

    def test_n_draws_validated(self):
        with pytest.raises(ValueError):
            sample_posterior(DirichletParams(np.ones(4)), 0, 0)


class TestProbBelow:
    def test_all_below(self):
        draws = make_draws([(0.5, 0.1), (0.6, 0.2)])
        assert prob_below_roc(draws, steep_curve()) == 1.0

    def test_all_above(self):
        draws = make_draws([(0.1, 0.9), (0.05, 0.5)])
        assert prob_below_roc(draws, steep_curve()) == 0.0

    def test_on_curve_counts_as_below(self):
        draws = make_draws([(0.3, 0.54)])  # exactly on the first segment
        assert prob_below_roc(draws, steep_curve()) == 1.0


class TestCandidateGrid:
    def test_contains_knots_and_draw_alphas(self):
        draws = make_draws([(0.37, 0.1)])
        grid = curve_candidate_grid(steep_curve(), draws)
        for v in (0.0, 0.5, 1.0, 0.37):
            assert v in grid

    def test_sorted_unique(self):
        grid = curve_candidate_grid(steep_curve())
        assert (np.diff(grid) > 0).all()

    def test_size_validated(self):
        with pytest.raises(ValueError):
            curve_candidate_grid(steep_curve(), grid_size=1)

    @staticmethod
    def assert_np_unique(roc, draws, grid_size=512):
        """The grid is ``np.unique`` of its parts, bit for bit (the sign of a zero included)."""
        parts = [np.linspace(0.0, 1.0, grid_size), roc.knot_alphas] + ([] if draws is None else [draws.alphas])
        got = curve_candidate_grid(roc, draws, grid_size)
        want = np.unique(np.concatenate(parts))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(curves_and_draws(), st.integers(2, 600))
    @settings(max_examples=150, deadline=None)
    def test_matches_np_unique(self, case, grid_size):
        roc, draws = case
        self.assert_np_unique(roc, draws, grid_size)
        self.assert_np_unique(roc, None, grid_size)

    def test_repeated_knots_and_draws_on_knots(self):
        # vertical runs repeat fprs among the vertices; draws repeat knots and grid points
        roc = RocCurve.from_pairs([(0.0, 0.0), (0.0, 0.3), (0.25, 0.5), (0.25, 0.9), (1.0, 1.0)])
        draws = make_draws([(0.25, 0.1), (0.25, 0.95), (0.0, 0.0), (1.0, 1.0), (0.5, 0.2), (0.5, 0.2)])
        self.assert_np_unique(roc, draws, 5)
        assert curve_candidate_grid(roc, draws, 5).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        grid = curve_candidate_grid(roc, None, 5)
        grid[0] = 0.5  # the caller's own copy, though the curve's knots are read-only

    def test_negative_zero_knot_from_a_csv(self, tmp_path):
        path = tmp_path / "roc.csv"
        path.write_text("threshold,fpr,tpr\n1.0,-0.0,-0.0\n0.5,0.25,0.5\n0.0,1.0,1.0\n")
        roc = read_roc_csv(path)
        assert np.signbit(roc.knot_alphas[0])
        for draws in (None, make_draws([(0.0, 0.0), (0.25, 0.2), (0.7, 0.9)])):
            self.assert_np_unique(roc, draws)
            self.assert_np_unique(roc, draws, 2)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_draws_on_knots_and_grid_points_match_np_unique(self, data):
        # draw fprs on knots, on uniform-grid points, at 0 and 1, and repeated
        roc, draws = data.draw(curves_and_draws())
        grid_size = data.draw(st.integers(2, 600))
        on = st.sampled_from([*np.linspace(0.0, 1.0, grid_size).tolist(), *roc.knot_alphas.tolist(), 0.0, 1.0])
        alphas = np.r_[draws.alphas, data.draw(st.lists(on, max_size=12)), draws.alphas[: data.draw(st.integers(0, 5))]]
        draws = make_draws(np.column_stack([alphas, np.random.default_rng(alphas.size).random(alphas.size)]))
        self.assert_np_unique(roc, draws, grid_size)


class TestMaxDominance:
    def test_hand_example(self):
        # only (0.6, 0.5) can be dominated, from fpr 0.5/1.8 rightward;
        # the smallest uniform grid point at or past that is index 142
        draws = make_draws([(0.6, 0.5), (0.2, 0.8)])
        res = max_dominance(draws, steep_curve())
        assert res.q_max == 0.5
        assert res.alpha_d == float(np.linspace(0.0, 1.0, 512)[142])

    def test_all_mass_above(self):
        draws = make_draws([(0.05, 0.8), (0.1, 0.9)])
        res = max_dominance(draws, steep_curve())
        assert res.q_max == 0.0
        assert res.alpha_d is None

    def test_point_mass_below(self):
        draws = make_draws([(0.5, 0.36)] * 4)
        res = max_dominance(draws, steep_curve())
        assert res.q_max == 1.0
        # smallest dominating fpr solves g(a) = 0.36 at a = 0.2
        assert res.alpha_d == pytest.approx(0.2, abs=2 / 511)

    def test_matches_grid_brute_force(self):
        params = posterior_params(ConfusionCounts(n11=40, n01=60, n10=60, n00=140))
        draws = sample_posterior(params, 400, 5)
        roc = steep_curve()
        res = max_dominance(draws, roc)
        grid = curve_candidate_grid(roc, draws)
        g = roc.tpr_at_fpr(grid)
        q = [
            np.mean((draws.alphas >= a) & (draws.betas <= b))
            for a, b in zip(grid, g)
        ]
        assert res.q_max == max(q)
        assert res.alpha_d == grid[int(np.argmax(q))]

    def test_draws_one_ulp_below_knot(self):
        # an unclamped chord puts g(a0) one ulp above g(11/97); g is then
        # not monotone, the dominating candidates are no longer one run,
        # and the run count gives q_max 1/3
        roc = RocCurve([3, 2, 1, 0], [0, 4 / 97, 11 / 97, 1], [0, 1 / 97, 12 / 97, 1])
        a0 = np.nextafter(11 / 97, 0.0)
        g0 = roc.tpr_at_fpr(a0)
        assert g0 <= roc.tpr_at_fpr(11 / 97)
        draws = make_draws([(a0, g0), (a0, g0), (0.9, 0.99)])
        assert max_dominance(draws, roc, grid_size=8).q_max == 2 / 3

    @given(curves_and_draws(), st.integers(2, 600))
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_mask(self, case, grid_size):
        roc, draws = case
        cand = curve_candidate_grid(roc, draws, grid_size)
        q = dense_mass(cand, roc.tpr_at_fpr(cand), draws.alphas, draws.betas)
        i = int(np.argmax(q))
        want = (0.0, None) if q[i] == 0.0 else (float(q[i]), float(cand[i]))
        res = max_dominance(draws, roc, grid_size)
        assert (res.q_max, res.alpha_d) == want

    def test_lower_curve_never_helps(self):
        params = posterior_params(ConfusionCounts(n11=40, n01=60, n10=60, n00=140))
        draws = sample_posterior(params, 500, 8)
        hi = two_segment()
        lo = RocCurve.from_pairs([(0.0, 0.0), (0.2, 0.8**1.5), (1.0, 1.0)])
        assert max_dominance(draws, lo).q_max <= max_dominance(draws, hi).q_max


class TestLossCatalog:
    """One dominating on-curve candidate against one below-curve maker."""

    ROC = RocCurve.from_pairs([(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)])
    TM = (0.28, 0.504)
    TH = (0.3, 0.5)

    def test_baseline(self):
        assert loss_eval(LossKind.BASELINE, self.TM, self.TH, self.ROC) == 0.0

    def test_euclidean(self):
        v = loss_eval(LossKind.EUCLIDEAN, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.9805742827528547, rel=1e-12)

    def test_complement_distance(self):
        v = loss_eval(LossKind.COMPLEMENT_DISTANCE, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.996, rel=1e-12)

    def test_diagonal_vertical(self):
        v = loss_eval(LossKind.DIAGONAL_VERTICAL, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.8333333333333333, rel=1e-12)

    def test_diagonal_horizontal(self):
        v = loss_eval(LossKind.DIAGONAL_HORIZONTAL, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.9000000000000001, rel=1e-12)

    def test_complement_vertical(self):
        v = loss_eval(LossKind.COMPLEMENT_VERTICAL, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.9821428571428571, rel=1e-12)

    def test_complement_horizontal(self):
        v = loss_eval(LossKind.COMPLEMENT_HORIZONTAL, self.TM, self.TH, self.ROC)
        assert v == pytest.approx(0.9107142857142859, rel=1e-12)

    def test_diagonal_horizontal_rounded_gap(self):
        # tpr_at_fpr(a) rounds up to the knot (1, 1), so the maker at (a, 1) is dominated with a zero gap
        roc = RocCurve.from_pairs([(0.0, 0.0), (0.01, 0.5), (1.0, 1.0)])
        a = np.nextafter(1.0, 0.0)
        assert loss_eval(LossKind.DIAGONAL_HORIZONTAL, (a, roc.tpr_at_fpr(a)), (a, 1.0), roc) == 1.0

    def test_no_domination_costs_one_everywhere(self):
        tm = (0.32, self.ROC.tpr_at_fpr(0.32))  # right of the maker: no domination
        for kind in LossKind:
            assert loss_eval(kind, tm, self.TH, self.ROC) == 1.0

    def test_diagonal_maker_fully_covered(self):
        # maker on the chance line: the vertical-share loss vanishes
        v = loss_eval(LossKind.DIAGONAL_VERTICAL, self.TM, (0.3, 0.3), self.ROC)
        assert v == 0.0

    def test_candidate_must_sit_on_curve(self):
        with pytest.raises(ValueError):
            loss_eval(LossKind.BASELINE, (0.28, 0.6), self.TH, self.ROC)

    def test_share_losses_bounded(self):
        rng = np.random.default_rng(6)
        roc = self.ROC
        kinds = (
            LossKind.DIAGONAL_VERTICAL,
            LossKind.DIAGONAL_HORIZONTAL,
            LossKind.COMPLEMENT_VERTICAL,
            LossKind.COMPLEMENT_HORIZONTAL,
        )
        for _ in range(60):
            a_h = rng.uniform(0.05, 0.95)
            gap = roc.tpr_at_fpr(a_h) - a_h
            b_h = a_h + rng.uniform(0.01, 0.99) * gap
            a_m = rng.uniform(0.02, a_h)
            tm = (a_m, roc.tpr_at_fpr(a_m))
            for kind in kinds:
                v = loss_eval(kind, tm, (a_h, b_h), roc)
                assert 0.0 <= v <= 1.0


class TestMinPosteriorLoss:
    def posterior(self, n_draws=800, seed=5):
        params = posterior_params(ConfusionCounts(n11=40, n01=60, n10=60, n00=140))
        return sample_posterior(params, n_draws, seed)

    def test_baseline_duality_is_exact(self):
        draws = self.posterior()
        roc = steep_curve()
        dom = max_dominance(draws, roc)
        value, theta = min_posterior_loss(draws, roc, LossKind.BASELINE)
        assert value == 1.0 - dom.q_max
        assert theta.alpha == dom.alpha_d

    @given(curves_and_draws(), st.integers(2, 600))
    @settings(max_examples=150, deadline=None)
    def test_baseline_matches_dense_mask(self, case, grid_size):
        roc, draws = case
        cand = curve_candidate_grid(roc, draws, grid_size)
        g = roc.tpr_at_fpr(cand)
        q = dense_mass(cand, g, draws.alphas, draws.betas)
        i = int(np.argmax(q))
        value, theta = min_posterior_loss(draws, roc, LossKind.BASELINE, grid_size)
        assert value == float(1.0 - q[i])
        assert theta == RatePair(float(cand[i]), float(g[i]))

    @given(curves_and_draws(), st.integers(2, 600))
    @settings(max_examples=150, deadline=None)
    def test_benefit_means_in_unit_interval(self, case, grid_size):
        roc, draws = case
        cand = curve_candidate_grid(roc, draws, grid_size)
        g = roc.tpr_at_fpr(cand)
        for kind in LossKind:
            mean = _benefit_means(cand, g, draws.alphas, draws.betas, kind, roc)
            assert np.isfinite(mean).all() and (mean >= 0.0).all() and (mean <= 1.0).all(), kind

    @given(curves_and_draws(), st.integers(2, 600), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_chunking_changes_no_bit(self, case, grid_size, cells):
        roc, draws = case
        cand = curve_candidate_grid(roc, draws, grid_size)
        g = roc.tpr_at_fpr(cand)
        assert cand.size * draws.n_draws <= bayes._CHUNK_CELLS  # so the unpatched call runs one chunk
        hook = CostBenefitLoss(
            cost=lambda tm, a, b: 1.0 + tm.alpha * a,
            benefit=lambda tm, b: tm.beta - b,
        )
        for kind in [*LossKind, hook]:
            whole = _benefit_means(cand, g, draws.alphas, draws.betas, kind, roc)
            # chunks of max(1, cells // n_draws) candidates
            with mock.patch.object(bayes, "_CHUNK_CELLS", cells):
                chunked = _benefit_means(cand, g, draws.alphas, draws.betas, kind, roc)
            assert chunked.tobytes() == whole.tobytes(), kind

    def test_point_mass_fully_dominated(self):
        draws = make_draws([(0.5, 0.36)] * 3)
        value, theta = min_posterior_loss(draws, steep_curve())
        assert value == 0.0
        assert theta.beta == pytest.approx(steep_curve().tpr_at_fpr(theta.alpha))

    def test_grid_refinement_stable(self):
        draws = self.posterior(2000, 3)
        for kind in (LossKind.BASELINE, LossKind.DIAGONAL_VERTICAL):
            coarse = min_posterior_loss(draws, steep_curve(), kind, 512)[0]
            fine = min_posterior_loss(draws, steep_curve(), kind, 1024)[0]
            assert abs(coarse - fine) <= 1e-3

    def test_weighted_losses_dominate_baseline(self):
        # every per-draw benefit is <= 1, so no loss can dip below baseline
        draws = self.posterior()
        roc = steep_curve()
        base = min_posterior_loss(draws, roc, LossKind.BASELINE)[0]
        for kind in (LossKind.EUCLIDEAN, LossKind.DIAGONAL_VERTICAL):
            assert min_posterior_loss(draws, roc, kind)[0] >= base - 1e-12

    def test_minimizer_on_curve(self):
        draws = self.posterior()
        roc = steep_curve()
        _, theta = min_posterior_loss(draws, roc, LossKind.DIAGONAL_VERTICAL)
        assert theta.beta == pytest.approx(roc.tpr_at_fpr(theta.alpha))


class TestRowsOfEveryLossKind:
    """Rows pinned from before the shared candidate grid and its curve values were cached per curve."""

    # replace, then min_loss, threshold, theta0_alpha and theta0_beta as float.hex
    ROWS = {
        LossKind.EUCLIDEAN: (
            False, "0x1.9a037161c9f27p-1", "0x1.2492492492492p-1",
            "0x1.0000000000000p-3", "0x1.4000000000000p-1",
        ),
        LossKind.COMPLEMENT_DISTANCE: (
            False, "0x1.ac943c75882dcp-1", "0x1.2492492492492p-1",
            "0x1.0000000000000p-3", "0x1.4000000000000p-1",
        ),
        LossKind.DIAGONAL_VERTICAL: (
            True, "0x1.0105950404ee0p-2", "0x1.2492492492492p-1",
            "0x1.0000000000000p-3", "0x1.4000000000000p-1",
        ),
        LossKind.DIAGONAL_HORIZONTAL: (
            False, "0x1.452026907163ep-2", "0x1.2492492492492p-1",
            "0x1.0000000000000p-3", "0x1.4000000000000p-1",
        ),
        LossKind.COMPLEMENT_VERTICAL: (
            False, "0x1.a579cb48a1462p-2", "0x1.0776c93ca25b4p-1",
            "0x1.cbc07f578f816p-3", "0x1.59780feaf1f03p-1",
        ),
        LossKind.COMPLEMENT_HORIZONTAL: (
            False, "0x1.0b675ea089866p-1", "0x1.75d75d75d75d8p-1",
            "0x1.c71c71c71c71cp-4", "0x1.e38e38e38e38ep-2",
        ),
    }

    @pytest.mark.parametrize("kind", [kind for kind in LossKind if kind is not LossKind.BASELINE], ids=str)
    def test_row_is_unchanged(self, kind):
        roc = RocCurve.from_pairs([(0.0, 0.25), (0.125, 0.5), (0.125, 0.625), (0.375, 0.75), (0.375, 0.8125),
                                   (0.75, 0.9375)])
        counts = ConfusionCounts(n11=40, n01=30, n10=60, n00=70)
        row = benchmark_maker_bayesian("m", counts, roc, n_draws=300, seed=7, credible_level=0.7, kind=kind,
                                       grid_size=64)
        replace, *floats = self.ROWS[kind]
        assert row["replace"] is replace
        assert [row[k].hex() for k in ("min_loss", "threshold", "theta0_alpha", "theta0_beta")] == floats
        assert [row[k] for k in ("q_max", "alpha_d", "prob_below")] == [1.0, 0.125, 1.0]


class TestCostBenefit:
    def test_unit_cost_zero_benefit_reproduces_baseline(self):
        params = posterior_params(ConfusionCounts(n11=40, n01=60, n10=60, n00=140))
        draws = sample_posterior(params, 600, 11)
        roc = steep_curve()
        hook = CostBenefitLoss(
            cost=lambda tm, a, b: np.ones_like(a),
            benefit=lambda tm, b: np.zeros_like(b),
        )
        base_v, base_t = min_posterior_loss(draws, roc, LossKind.BASELINE)
        hook_v, hook_t = min_posterior_loss(draws, roc, hook)
        assert hook_v == pytest.approx(base_v, abs=1e-12)
        assert hook_t == base_t

    def test_negative_benefit_inflates_loss(self):
        draws = make_draws([(0.5, 0.36)] * 3)
        hook = CostBenefitLoss(
            cost=lambda tm, a, b: np.full_like(a, 2.0),
            benefit=lambda tm, b: np.full_like(b, -0.5),
        )
        value, _ = min_posterior_loss(draws, steep_curve(), hook)
        # fully dominated point mass: loss = -benefit = 0.5
        assert value == pytest.approx(0.5, abs=1e-12)


class TestReplaceDecision:
    def test_replaces_clear_underperformer(self):
        draws = make_draws([(0.5, 0.36)] * 10)
        roc = steep_curve()
        v = replace_decision(draws, roc, maker_id="m0")
        assert v["replace"]
        assert v["maker_id"] == "m0"
        assert v["q_max"] == 1.0
        assert v["min_loss"] == 0.0
        theta = RatePair(v["theta0_alpha"], v["theta0_beta"])
        assert v["threshold"] == pytest.approx(roc.threshold_at_point(theta))

    def test_retains_maker_above_curve(self):
        draws = make_draws([(0.05, 0.8), (0.1, 0.9)])
        v = replace_decision(draws, steep_curve())
        assert not v["replace"]
        assert v["q_max"] == 0.0
        assert np.isnan(v["alpha_d"])
        assert v["prob_below"] == 0.0
        # no point dominates, so the grid's first candidate, fpr 0, sets the threshold
        assert v["theta0_alpha"] == curve_candidate_grid(steep_curve(), draws)[0] == 0.0
        assert v["theta0_beta"] == 0.0

    def test_borderline_mass_respects_level(self):
        below = [(0.5, 0.36)] * 94 + [(0.05, 0.9)] * 6
        draws = make_draws(below)
        assert not replace_decision(draws, steep_curve(), credible_level=0.95)["replace"]
        assert replace_decision(draws, steep_curve(), credible_level=0.94)["replace"]

    def test_share_loss_replaces_near_diagonal_maker(self):
        draws = make_draws([(0.3, 0.31)] * 8)
        v = replace_decision(draws, two_segment(), kind=LossKind.DIAGONAL_VERTICAL)
        assert v["min_loss"] <= 0.05
        assert v["replace"]
        assert v["loss_kind"] == "diagonal-vertical"

    def test_euclidean_kind_rarely_replaces(self):
        draws = make_draws([(0.5, 0.36)] * 8)
        v = replace_decision(draws, steep_curve(), kind=LossKind.EUCLIDEAN)
        assert not v["replace"]
        assert v["min_loss"] > 0.5

    def test_level_validated(self):
        with pytest.raises(ValueError):
            replace_decision(make_draws([(0.5, 0.36)]), steep_curve(), credible_level=1.0)


class TestReversedNullRetention:
    def test_confident_maker_retained_both_ways(self):
        draws = make_draws([(0.2, 0.9)] * 5)
        roc = two_segment()
        dom = reversed_null_retain(draws, roc, method=RetentionMethod.DOMINATE)
        above = reversed_null_retain(draws, roc, method=RetentionMethod.ABOVE)
        assert dom.retain and above.retain
        assert dom.support == 1.0 and above.support == 1.0
        assert dom.alpha_at == 0.2
        assert above.alpha_at is None

    def test_below_curve_maker_dropped_both_ways(self):
        draws = make_draws([(0.5, 0.5)] * 5)
        roc = two_segment()
        assert not reversed_null_retain(draws, roc, method=RetentionMethod.DOMINATE).retain
        assert not reversed_null_retain(draws, roc, method=RetentionMethod.ABOVE).retain

    def test_on_curve_mass_counts_for_dominate_not_above(self):
        draws = make_draws([(0.2, 0.8)] * 4)  # exactly the curve knot
        roc = two_segment()
        assert reversed_null_retain(draws, roc, method=RetentionMethod.DOMINATE).support == 1.0
        assert reversed_null_retain(draws, roc, method=RetentionMethod.ABOVE).support == 0.0

    def test_dominate_implies_above(self):
        rng = np.random.default_rng(10)
        roc = two_segment()
        for _ in range(20):
            center = rng.uniform(0.1, 0.9, 2)
            pairs = np.clip(center + rng.normal(0, 0.05, (200, 2)), 0.001, 0.999)
            draws = make_draws(pairs)
            dom = reversed_null_retain(draws, roc, 0.6, RetentionMethod.DOMINATE)
            above = reversed_null_retain(draws, roc, 0.6, RetentionMethod.ABOVE)
            assert dom.support <= above.support + 1e-12
            if dom.retain:
                assert above.retain

    @given(curves_and_draws(), st.integers(2, 600), st.sampled_from([0.05, 0.5, 0.95]))
    @settings(max_examples=150, deadline=None)
    def test_dominate_matches_dense_mask(self, case, grid_size, level):
        roc, draws = case
        cand = curve_candidate_grid(roc, draws, grid_size)
        mass = dense_reverse_mass(cand, roc.tpr_at_fpr(cand), draws.alphas, draws.betas)
        i = int(np.argmax(mass))
        support, alpha_at = (0.0, None) if mass[i] == 0.0 else (float(mass[i]), float(cand[i]))
        res = reversed_null_retain(draws, roc, level, RetentionMethod.DOMINATE, grid_size)
        assert (res.support, res.alpha_at, res.retain) == (support, alpha_at, support >= level)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            reversed_null_retain(make_draws([(0.5, 0.5)]), two_segment(), 0.0)


class TestRunShare:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_draws_on_candidate_keys_match_dense_masks(self, seed, n_cand, n):
        # every draw sits exactly on a candidate's fpr and on a (possibly other) candidate's curve
        # value, and the curve values tie in plateaus: the searchsorted sides decide every count
        rng = np.random.default_rng(seed)
        cand_a = np.unique(rng.integers(0, 2 * n_cand, n_cand) / (2 * n_cand))
        g = np.sort(rng.integers(0, 4, cand_a.size) / 3)
        alphas, betas = cand_a[rng.integers(0, cand_a.size, n)], g[rng.integers(0, cand_a.size, n)]
        forward = bayes._run_share(g, betas, cand_a, alphas)  # candidates dominating each draw
        assert forward.tobytes() == dense_mass(cand_a, g, alphas, betas).tobytes()
        mirrored = bayes._run_share(cand_a, alphas, g, betas)  # candidates each draw dominates
        assert mirrored.tobytes() == dense_reverse_mass(cand_a, g, alphas, betas).tobytes()


class TestBenchmarkBayesian:
    COUNTS = ConfusionCounts(n11=40, n01=60, n10=60, n00=140)

    def test_weak_maker_replaced_on_high_curve(self):
        roc = two_segment()  # g(0.3) = 0.825 far above beta 0.4
        v = benchmark_maker_bayesian("m7", self.COUNTS, roc, seed=3)
        assert list(v) == ["maker_id", "replace", "threshold", "q_max", "alpha_d", "loss_kind", "min_loss",
                           "prob_below", "theta0_alpha", "theta0_beta", "n"]
        assert v["replace"]
        assert v["maker_id"] == "m7"
        assert v["n"] == 300
        assert v["q_max"] >= 0.95

    def test_strong_maker_retained_on_diagonal(self):
        roc = RocCurve.from_pairs([(0.0, 0.0), (1.0, 1.0)])
        v = benchmark_maker_bayesian("m8", self.COUNTS, roc, seed=3)
        assert not v["replace"]  # (0.3, 0.4) sits above the chance line

    def test_rejected_sampling_names_the_maker(self):
        counts = ConfusionCounts(n11=1, n01=0, n10=0, n00=1)  # empty cells keep only the tiny prior
        with pytest.raises(RuntimeError, match=r"^maker 'm7': posterior sampling rejected"):
            benchmark_maker_bayesian("m7", counts, two_segment(), prior=1e-300, n_draws=10)

    def test_deterministic(self):
        roc = two_segment()
        a = benchmark_maker_bayesian("m", self.COUNTS, roc, seed=9)
        b = benchmark_maker_bayesian("m", self.COUNTS, roc, seed=9)
        assert a == b


class TestBayesianCsv:
    def make(self):
        roc = two_segment()
        v1 = benchmark_maker_bayesian("m1", TestBenchmarkBayesian.COUNTS, roc, seed=1)
        v2 = {**replace_decision(make_draws([(0.05, 0.8), (0.1, 0.9)]), roc, maker_id="m2"), "n": 2}
        return Verdicts.from_rows([v1, v2])

    def test_round_trip(self, tmp_path):
        verdicts = self.make()
        path = tmp_path / "verdicts.csv"
        write_bayesian_csv(path, verdicts)
        back = read_bayesian_csv(path)
        assert back["maker_id"].tolist() == ["m1", "m2"]
        assert back["replace"].tolist() == [True, False]
        assert back["q_max"][0] == pytest.approx(verdicts["q_max"][0], rel=1e-9)
        assert back["threshold"].tolist() == pytest.approx(verdicts["threshold"].tolist(), rel=1e-9)
        assert np.isnan(back["alpha_d"][1])
        assert back["loss_kind"].tolist() == ["baseline", "baseline"]
        with pytest.raises(ValueError, match="no prob_below column"):
            back["prob_below"]  # not a column of the file

    def test_reemit_identical_bytes(self, tmp_path):
        verdicts = self.make()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bayesian_csv(p1, verdicts)
        write_bayesian_csv(p2, read_bayesian_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_bayesian_csv(path)

    def test_bad_flag_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "maker_id,q_max,alpha_d,loss_kind,min_loss,replace,threshold\n"
            "m1,0.5,0.2,baseline,0.5,yes,0.3\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            read_bayesian_csv(path)

    HEADER = "maker_id,q_max,alpha_d,loss_kind,min_loss,replace,threshold\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("m2,0.5,0.2,baseline,0.5,true,nan", "line 3: non-finite value 'nan'"),
            ("m2,inf,0.2,baseline,0.5,false,0.3", "line 3: non-finite value 'inf'"),
            ("m2,abc,0.2,baseline,0.5,false,0.3", "line 3: non-numeric value 'abc'"),
            ("m2,0.5,nan,baseline,0.5,false,0.3", "line 3: non-finite value 'nan'"),
            ("m2,0.5,0.2,baseline,,false,0.3", "line 3: non-numeric value ''"),
            ("m2,0.5,0.2,baseline,0.5,yes,0.3", "line 3: replace must be true or false, got 'yes'"),
            ("m2,0.5", "line 3: expected 7 fields, got 2"),
            ("m1,0.5,0.2,baseline,0.5,false,0.3", "line 3: repeated maker_id 'm1'"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.HEADER}m1,0.9,0.2,baseline,0.1,true,0.3\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_bayesian_csv(path)

    def test_repeated_maker_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{self.HEADER}m1,0.9,0.2,baseline,0.1,true,0.3\n"
            "m2,0.5,,baseline,0.5,false,0.4\nm1,0.1,,baseline,0.9,false,0.2\n"
        )
        with pytest.raises(ValueError, match="line 4: repeated maker_id 'm1'"):
            read_bayesian_csv(path)

    def test_empty_file_and_header_only(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_bayesian_csv(path)
        path.write_text(self.HEADER)
        assert len(read_bayesian_csv(path)) == 0
