"""Sampling covariance, ellipse sets, three-way calls, delta test, CSV."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench.core import ConfusionCounts, RatePair
from rocbench.frequentist import (
    CaseLabel,
    asymptotic_covariance,
    benchmark_maker_frequentist,
    bootstrap_covariance,
    bootstrap_pairs,
    classify_maker,
    confidence_ellipse,
    delta_method_test,
    read_frequentist_csv,
    sample_thresholds,
    write_frequentist_csv,
)
from rocbench.replacement import Verdicts
from rocbench.roc import RocCurve

CHI2_2DF_95 = 5.991464547107979


def diagonal():
    return RocCurve.from_pairs([(0.0, 0.0), (1.0, 1.0)])


def two_segment():
    return RocCurve.from_pairs([(0.0, 0.0), (0.2, 0.8), (1.0, 1.0)])


class TestAsymptoticCovariance:
    def test_balanced_half_rates(self):
        counts = ConfusionCounts(n11=5, n01=5, n10=5, n00=5)
        np.testing.assert_allclose(asymptotic_covariance(counts), np.diag([0.5, 0.5]))

    def test_worked_example(self):
        # alpha 0.3, beta 0.6, base rate 0.1
        counts = ConfusionCounts(n11=12, n01=54, n10=8, n00=126)
        cov = asymptotic_covariance(counts)
        np.testing.assert_allclose(cov, np.diag([0.21 / 0.9, 0.24 / 0.1]))

    def test_boundary_rate_collapses_axis(self):
        counts = ConfusionCounts(n11=10, n01=0, n10=10, n00=20)
        cov = asymptotic_covariance(counts)
        assert cov[0, 0] == 0.0
        assert cov[1, 1] > 0.0

    def test_off_diagonal_zero(self):
        counts = ConfusionCounts(n11=30, n01=20, n10=20, n00=130)
        cov = asymptotic_covariance(counts)
        assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0


def bootstrap_loop(counts, n_resamples, seed):
    """Reference for ``bootstrap_pairs``: the reject-and-redraw loop written out."""
    n = counts.n
    t_hat = np.array([counts.n11, counts.n01, counts.n10, counts.n00]) / n
    rng = np.random.default_rng(seed)
    kept = []
    short = n_resamples
    n_redrawn = 0
    while short > 0:
        draw = rng.multinomial(n, t_hat, size=short)
        ok = ((draw[:, 0] + draw[:, 2]) > 0) & ((draw[:, 1] + draw[:, 3]) > 0)
        kept.append(draw[ok])
        bad = short - int(ok.sum())
        n_redrawn += bad
        short = bad
        if n_redrawn > n_resamples:
            raise RuntimeError(
                f"bootstrap aborted: {n_redrawn} degenerate resamples exceed the "
                f"{n_resamples} requested; counts {counts} are too unbalanced"
            )
    draws = np.concatenate(kept)
    return draws[:, 1] / (draws[:, 1] + draws[:, 3]), draws[:, 0] / (draws[:, 0] + draws[:, 2]), n_redrawn


class TestBootstrap:
    COUNTS = ConfusionCounts(n11=60, n01=40, n10=40, n00=160)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_redrawn_resamples_match_the_loop_written_out(self, seed):
        counts = ConfusionCounts(n11=1, n01=30, n10=0, n00=20)  # about 37 % of resamples lose the positive
        alphas, betas, n_redrawn = bootstrap_loop(counts, 200, seed)
        assert n_redrawn > 0
        boot = bootstrap_pairs(counts, 200, seed)
        np.testing.assert_array_equal(boot.alphas, alphas)
        np.testing.assert_array_equal(boot.betas, betas)
        assert boot.n_redrawn == n_redrawn

    def test_aborts_where_the_loop_written_out_does(self):
        counts = ConfusionCounts(n11=1, n01=0, n10=0, n00=1)  # half the resamples lose a class
        outcomes = set()
        for seed in range(12):
            try:
                alphas, betas, n_redrawn = bootstrap_loop(counts, 5, seed)
            except RuntimeError as exc:
                with pytest.raises(RuntimeError, match=f"^{re.escape(str(exc))}$"):
                    bootstrap_pairs(counts, 5, seed)
                outcomes.add("aborted")
                continue
            boot = bootstrap_pairs(counts, 5, seed)
            np.testing.assert_array_equal(boot.alphas, alphas)
            np.testing.assert_array_equal(boot.betas, betas)
            assert boot.n_redrawn == n_redrawn
            outcomes.add("kept")
        assert outcomes == {"aborted", "kept"}

    def test_rates_always_in_unit_square(self):
        boot = bootstrap_pairs(self.COUNTS, 200, 0)
        assert boot.alphas.min() >= 0 and boot.alphas.max() <= 1
        assert boot.betas.min() >= 0 and boot.betas.max() <= 1
        assert boot.alphas.size == 200

    def test_mean_near_sample_rates(self):
        boot = bootstrap_pairs(self.COUNTS, 2000, 1)
        se_a = boot.alphas.std(ddof=1) / np.sqrt(2000)
        se_b = boot.betas.std(ddof=1) / np.sqrt(2000)
        assert abs(boot.alphas.mean() - 0.2) < 3 * se_a
        assert abs(boot.betas.mean() - 0.6) < 3 * se_b

    def test_deterministic(self):
        a = bootstrap_pairs(self.COUNTS, 100, 42)
        b = bootstrap_pairs(self.COUNTS, 100, 42)
        np.testing.assert_array_equal(a.alphas, b.alphas)
        np.testing.assert_array_equal(a.betas, b.betas)
        assert a.n_redrawn == b.n_redrawn

    def test_all_cases_identical_gives_zero_variance(self):
        # every unit is a positive prediction: rates are (1, 1) in every resample
        counts = ConfusionCounts(n11=40, n01=60, n10=0, n00=0)
        boot = bootstrap_pairs(counts, 50, 0)
        assert set(boot.alphas.tolist()) == {1.0}
        assert set(boot.betas.tolist()) == {1.0}

    def test_degenerate_counts_abort(self):
        counts = ConfusionCounts(n11=1, n01=0, n10=0, n00=1)
        with pytest.raises(RuntimeError, match="degenerate"):
            bootstrap_pairs(counts, 1, 3)

    def test_covariance_matches_manual(self):
        boot = bootstrap_pairs(self.COUNTS, 300, 7)
        cov = bootstrap_covariance(self.COUNTS, 300, 7)
        manual = np.cov(np.vstack([boot.alphas, boot.betas]), ddof=1)
        np.testing.assert_allclose(cov, manual)

    def test_resample_count_validated(self):
        with pytest.raises(ValueError):
            bootstrap_pairs(self.COUNTS, 0, 0)

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(5, 60), st.integers(5, 60), st.integers(2, 400),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_covariance_is_np_cov_bit_for_bit(self, n11, n01, n10, n00, n_resamples, seed):
        # a zero n11 or n01 gives a rate that never moves, and a zero variance
        counts = ConfusionCounts(n11=n11, n01=n01, n10=n10, n00=n00)
        boot = bootstrap_pairs(counts, n_resamples, seed)
        want = np.cov(np.vstack([boot.alphas, boot.betas]), ddof=1)
        got = bootstrap_covariance(counts, n_resamples, seed)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestConfidenceEllipse:
    def test_quantile_value(self):
        e = confidence_ellipse(RatePair(0.5, 0.5), np.eye(2) * 1e-4, 0.95)
        assert e.chi2_quantile == pytest.approx(CHI2_2DF_95, abs=1e-12)
        assert e.chi2_quantile == pytest.approx(-2.0 * np.log(0.05), abs=1e-12)

    def test_reference_point_frozen(self):
        e = confidence_ellipse(RatePair(0.2, 0.3), np.diag([0.0004, 0.0009]), 0.95)
        p = e.reference_point()
        assert p.alpha == pytest.approx(0.15104506338638368, abs=1e-15)
        assert p.beta == pytest.approx(0.37343240492042445, abs=1e-15)

    @given(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)),
        st.one_of(st.just(0.0), st.floats(1e-14, 1.0)),
        st.one_of(st.just(0.0), st.floats(1e-14, 1.0)),
        st.floats(-1.0, 1.0),
        st.floats(0.01, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_reference_point_is_the_numpy_corner_bit_for_bit(self, ca, cb, va, vb, rho, level):
        e = confidence_ellipse(RatePair(ca, cb), [[va, rho * np.sqrt(va * vb)], [rho * np.sqrt(va * vb), vb]], level)
        r = np.sqrt(e.chi2_quantile * np.diag(e.cov))
        want = (np.clip(e.center.alpha - r[0], 0.0, 1.0), np.clip(e.center.beta + r[1], 0.0, 1.0))
        got = e.reference_point()
        assert type(got) is RatePair and [type(v) for v in got] == [float, float]
        assert [np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]

    def test_reference_point_clipped(self):
        e = confidence_ellipse(RatePair(0.01, 0.99), np.diag([0.01, 0.01]), 0.95)
        p = e.reference_point()
        assert p.alpha == 0.0 and p.beta == 1.0

    def test_zero_covariance_floors_to_point(self):
        e = confidence_ellipse(RatePair(0.4, 0.6), np.zeros((2, 2)), 0.95)
        p = e.reference_point()
        assert p.alpha == pytest.approx(0.4, abs=1e-4)
        assert p.beta == pytest.approx(0.6, abs=1e-4)

    def test_contains_center_not_far_point(self):
        e = confidence_ellipse(RatePair(0.5, 0.5), np.eye(2) * 1e-4, 0.95)
        assert e.contains((0.5, 0.5))
        assert not e.contains((0.9, 0.9))

    def test_singular_covariance_contains_along_its_axis(self):
        # perfectly correlated rates: inverting the covariance fails, so membership adds the variance floor to the
        # diagonal; points along the (1, 1) axis stay inside, points across it fall outside
        cov = [[1e-4, 1e-4], [1e-4, 1e-4]]
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            np.linalg.inv(np.array(cov))
        e = confidence_ellipse(RatePair(0.3, 0.7), cov, 0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = [e.contains(p) for p in [(0.3, 0.7), (0.31, 0.71), (0.31, 0.69), (0.9, 0.1)]]
        assert inside == [True, True, False, False]

    def test_level_validated(self):
        with pytest.raises(ValueError):
            confidence_ellipse(RatePair(0.5, 0.5), np.eye(2), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_refused(self, bad):
        # the sample covariance of one resample is NaN; a NaN variance would pass its floor
        with pytest.raises(ValueError, match="^cov must be a finite 2x2 matrix$"):
            confidence_ellipse(RatePair(0.3, 0.6), np.array([[1e-3, 0.0], [0.0, bad]]), 0.95)


class TestClassifyMaker:
    def test_case1_far_below(self):
        e = confidence_ellipse(RatePair(0.5, 0.3), np.diag([1e-6, 1e-6]), 0.95)
        assert classify_maker(e, diagonal()) is CaseLabel.CASE1
        assert CaseLabel.CASE1.replace

    def test_case2_corner_above_but_ellipse_below(self):
        # circle of radius ~0.049 centered 0.07 below the diagonal: the
        # bounding-box corner pokes above the line, the disc does not
        e = confidence_ellipse(RatePair(0.5, 0.43), np.diag([0.0004, 0.0004]), 0.95)
        label = classify_maker(e, diagonal())
        assert label is CaseLabel.CASE2
        assert not label.replace

    def test_case3_center_on_curve(self):
        e = confidence_ellipse(RatePair(0.5, 0.5), np.diag([1e-4, 1e-4]), 0.95)
        label = classify_maker(e, diagonal())
        assert label is CaseLabel.CASE3
        assert not label.replace

    def test_case1_reference_has_segment(self):
        e = confidence_ellipse(RatePair(0.5, 0.5), np.diag([1e-6, 1e-6]), 0.95)
        roc = two_segment()
        assert classify_maker(e, roc) is CaseLabel.CASE1
        assert roc.dominating_segment(e.reference_point()) is not None

    def test_shrinking_covariance_reaches_case1(self):
        # center strictly below the curve: small enough noise must replace
        center = RatePair(0.5, 0.6)
        labels = [
            classify_maker(
                confidence_ellipse(center, np.diag([s, s]), 0.95), two_segment()
            )
            for s in (1e-1, 1e-6)
        ]
        assert labels[-1] is CaseLabel.CASE1

    def test_thin_tip_between_boundary_samples_reaches_the_curve(self):
        # a needle whose farthest point across the diagonal lies 1e-7 above
        # it; 1024 evenly spaced boundary points all fall below the line
        theta = np.radians(78.0)
        u = np.array([np.cos(theta), np.sin(theta)])
        cov = 0.03**2 * np.outer(u, u) + 0.0003**2 * np.outer([-u[1], u[0]], [-u[1], u[0]])
        normal = np.array([-1.0, 1.0])
        reach = np.sqrt(CHI2_2DF_95 * normal @ cov @ normal)
        e = confidence_ellipse(RatePair(0.5, 0.5 - reach + 1e-7), cov, 0.95)
        tip = np.asarray(e.center) + 0.999999 * CHI2_2DF_95 * cov @ normal / reach
        assert e.contains(tip) and tip[1] > tip[0]
        assert classify_maker(e, diagonal()) is CaseLabel.CASE3

    def test_notch_left_of_a_vertical_run_reaches_the_curve(self):
        # the curve jumps from tpr 0.2 to 0.8 at fpr 0.5; just left of the
        # jump the circle's top (about 0.21) clears the chord
        roc = RocCurve.from_pairs([(0.0, 0.0), (0.5, 0.2), (0.5, 0.8), (1.0, 1.0)])
        e = confidence_ellipse(RatePair(0.52, 0.19), np.diag([1.5e-4, 1.5e-4]), 0.95)
        assert classify_maker(e, roc) is CaseLabel.CASE3

    def test_zero_tpr_beside_a_curve_flat_at_zero(self):
        # the curve is 0 up to fpr 0.3; the thin rising ellipse around
        # (0.35, 0) stays under the curve except where clipping raises its
        # lower-left end, left of fpr 0.3, to tpr 0
        roc = RocCurve.from_pairs([(0.0, 0.0), (0.3, 0.0), (1.0, 1.0)])
        cov = (0.1**2 / CHI2_2DF_95) * np.array([[1.0, 1 - 1e-6], [1 - 1e-6, 1.0]])
        e = confidence_ellipse(RatePair(0.35, 0.0), cov, 0.95)
        assert roc.ellipse_gap(e.center, cov, e.chi2_quantile) == 0.0
        assert classify_maker(e, roc) is CaseLabel.CASE3


class TestDeltaMethod:
    def test_on_curve_statistic_zero(self):
        counts = ConfusionCounts(n11=30, n01=30, n10=70, n00=70)
        res = delta_method_test(counts, diagonal())
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert not res.reject

    def test_critical_value(self):
        counts = ConfusionCounts(n11=30, n01=30, n10=70, n00=70)
        res = delta_method_test(counts, diagonal(), size=0.05)
        assert res.critical == pytest.approx(-1.6448536269514729, abs=1e-12)

    def test_far_below_rejects(self):
        counts = ConfusionCounts(n11=200, n01=500, n10=800, n00=500)
        res = delta_method_test(counts, diagonal())
        assert res.statistic < -5
        assert res.reject

    def test_statistic_formula(self):
        counts = ConfusionCounts(n11=60, n01=40, n10=40, n00=160)
        roc = two_segment()
        res = delta_method_test(counts, roc)
        sigma = asymptotic_covariance(counts)
        slope = roc.slope_at(0.2)
        expected = (
            np.sqrt(300)
            * (0.6 - roc.tpr_at_fpr(0.2))
            / np.sqrt(slope**2 * sigma[0, 0] + sigma[1, 1])
        )
        assert res.statistic == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_rejected(self):
        counts = ConfusionCounts(n11=50, n01=0, n10=0, n00=50)
        with pytest.raises(ValueError):
            delta_method_test(counts, diagonal())

    def test_size_validated(self):
        counts = ConfusionCounts(n11=30, n01=30, n10=70, n00=70)
        with pytest.raises(ValueError):
            delta_method_test(counts, diagonal(), size=0.0)


class TestSampleThresholds:
    def test_endpoints_and_spacing(self):
        roc = two_segment()
        seg = roc.dominating_segment((0.5, 0.5))
        out = sample_thresholds(roc, seg, 5)
        cs = [c for c, _ in out]
        np.testing.assert_allclose(cs, [0.3125, 0.40625, 0.5, 0.59375, 0.6875])

    def test_two_points_are_the_ends(self):
        roc = two_segment()
        seg = roc.dominating_segment((0.5, 0.5))
        out = sample_thresholds(roc, seg, 2)
        assert out[0][0] == pytest.approx(seg.c_lower)
        assert out[1][0] == pytest.approx(seg.c_upper)

    def test_sampled_pairs_dominate_query(self):
        roc = two_segment()
        q = (0.5, 0.5)
        seg = roc.dominating_segment(q)
        for _, pair in sample_thresholds(roc, seg, 33):
            assert pair.alpha <= q[0] + 1e-12
            assert pair.beta >= q[1] - 1e-12

    def test_count_validated(self):
        roc = two_segment()
        seg = roc.dominating_segment((0.5, 0.5))
        with pytest.raises(ValueError):
            sample_thresholds(roc, seg, 1)


class TestBenchmarkMaker:
    COUNTS = ConfusionCounts(n11=200, n01=240, n10=200, n00=560)  # (0.3, 0.5)

    def test_weak_maker_replaced(self):
        v = benchmark_maker_frequentist("m1", self.COUNTS, two_segment(), seed=0)
        assert list(v) == ["maker_id", "n", "alpha_hat", "beta_hat", "case_label", "c_lower", "c_upper", "replace", "threshold"]
        assert v["maker_id"] == "m1" and v["case_label"] == "case1"
        assert v["c_lower"] <= v["c_upper"]
        assert (v["alpha_hat"], v["beta_hat"]) == (pytest.approx(0.3), pytest.approx(0.5))
        assert v["n"] == 1200
        assert v["replace"]
        assert v["threshold"] == 0.5 * (v["c_lower"] + v["c_upper"])

    def test_asymptotic_covariance_route(self):
        v = benchmark_maker_frequentist(
            "m1", self.COUNTS, two_segment(), cov_method="asymptotic"
        )
        assert v["case_label"] == "case1"

    def test_on_curve_maker_retained(self):
        counts = ConfusionCounts(n11=240, n01=400, n10=160, n00=600)  # (0.4, 0.6)
        roc = RocCurve.from_pairs([(0.0, 0.0), (0.4, 0.6), (1.0, 1.0)])
        v = benchmark_maker_frequentist("m2", counts, roc, seed=5)
        assert v["case_label"] in ("case2", "case3")
        assert np.isnan([v["c_lower"], v["c_upper"], v["threshold"]]).all()
        assert not v["replace"]

    def test_unknown_cov_method(self):
        with pytest.raises(ValueError):
            benchmark_maker_frequentist("m", self.COUNTS, two_segment(), cov_method="exact")

    def test_aborted_bootstrap_names_the_maker(self):
        counts = ConfusionCounts(n11=1, n01=0, n10=0, n00=1)
        with pytest.raises(RuntimeError, match=r"^maker 'm7': bootstrap aborted"):
            benchmark_maker_frequentist("m7", counts, two_segment(), n_resamples=1, seed=3)

    def test_one_resample_is_refused_before_any_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.cov of one resample warns three times
            with pytest.raises(ValueError, match="^a bootstrap covariance needs at least 2 resamples, got 1$"):
                benchmark_maker_frequentist("m1", self.COUNTS, two_segment(), n_resamples=1, seed=3)
            with pytest.raises(ValueError, match="needs at least 2 resamples"):
                bootstrap_covariance(self.COUNTS, 1, 3)

    def test_deterministic(self):
        a = benchmark_maker_frequentist("m", self.COUNTS, two_segment(), seed=9)
        b = benchmark_maker_frequentist("m", self.COUNTS, two_segment(), seed=9)
        assert a == b


class TestFrequentistCsv:
    def make(self):
        roc = two_segment()
        v1 = benchmark_maker_frequentist(
            "m1", TestBenchmarkMaker.COUNTS, roc, seed=0
        )
        counts = ConfusionCounts(n11=240, n01=400, n10=160, n00=600)
        curve = RocCurve.from_pairs([(0.0, 0.0), (0.4, 0.6), (1.0, 1.0)])
        v2 = benchmark_maker_frequentist("m2", counts, curve, seed=5)
        return Verdicts.from_rows([v1, v2])

    def test_round_trip(self, tmp_path):
        verdicts = self.make()
        path = tmp_path / "verdicts.csv"
        write_frequentist_csv(path, verdicts)
        back = read_frequentist_csv(path)
        assert back["maker_id"].tolist() == ["m1", "m2"]
        assert back["case_label"].tolist() == ["case1", verdicts["case_label"][1]]
        assert back["replace"].tolist() == [True, False]
        for name in ("c_lower", "c_upper", "threshold"):
            assert back[name][0] == pytest.approx(verdicts[name][0])
            assert np.isnan(back[name][1])
        assert back["n"].tolist() == [1200, 1400]

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="header"):
            read_frequentist_csv(path)

    def test_short_row_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "maker_id,n,alpha_hat,beta_hat,case_label,c_lower,c_upper\nm1,5,0.1\n"
        )
        with pytest.raises(ValueError, match="line 2"):
            read_frequentist_csv(path)

    HEADER = "maker_id,n,alpha_hat,beta_hat,case_label,c_lower,c_upper\n"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("m2,1.5,0.1,0.6,case2,,", "line 3: invalid literal for int() with base 10: '1.5'"),
            ("m2,100,0.1,0.6,case9,,", "line 3: 'case9' is not a valid CaseLabel"),
            ("m2,100,nan,0.6,case2,,", "line 3: non-finite value 'nan'"),
            ("m2,100,0.1,abc,case2,,", "line 3: non-numeric value 'abc'"),
            ("m2,100,0.1,0.6,case1,inf,0.5", "line 3: non-finite value 'inf'"),
            ("m2,100,0.1,0.6,case1,0.4,x", "line 3: non-numeric value 'x'"),
            ("m2,100,0.1,0.6,case2,", "line 3: expected 7 fields, got 6"),
            ("m1,100,0.1,0.6,case2,,", "line 3: repeated maker_id 'm1'"),
            ("m2,100,0.1,0.6,case1,,", "line 3: case1 needs both cuts with c_lower <= c_upper, got nan and nan"),
            ("m2,100,0.1,0.6,case1,0.4,", "line 3: case1 needs both cuts with c_lower <= c_upper, got 0.4 and nan"),
            ("m2,100,0.1,0.6,case1,0.5,0.4", "line 3: case1 needs both cuts with c_lower <= c_upper, got 0.5 and 0.4"),
            ("m2,100,0.1,0.6,case3,0.4,", "line 3: case3 takes no cuts, got 0.4 and nan"),
            ("m2,100,0.1,0.6,case2,0.4,0.5", "line 3: case2 takes no cuts, got 0.4 and 0.5"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"{self.HEADER}m1,100,0.1,0.6,case1,0.4,0.5\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_frequentist_csv(path)

    def test_cuts_near_the_largest_double_keep_a_finite_threshold(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text(f"{self.HEADER}m1,100,0.1,0.6,case1,1.7e308,1.7976931348623157e308\n")
        assert read_frequentist_csv(path)["threshold"][0] == 1.7e308 / 2 + 1.7976931348623157e308 / 2

    def test_repeated_maker_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"{self.HEADER}m1,100,0.1,0.6,case1,0.4,0.5\n"
            "m2,80,0.2,0.5,case3,,\nm1,90,0.3,0.4,case2,,\n"
        )
        with pytest.raises(ValueError, match="line 4: repeated maker_id 'm1'"):
            read_frequentist_csv(path)

    def test_empty_file_and_header_only(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_frequentist_csv(path)
        path.write_text(self.HEADER)
        assert len(read_frequentist_csv(path)) == 0
