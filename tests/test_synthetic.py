"""Generator contracts: analytic anchors, determinism, manifests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit, ndtr

from rocbench.core import RatePair, rate_pair, tally_confusion
from rocbench.rng import substream
from rocbench.roc import build_roc
from rocbench.synthetic import (
    ComplementaritySpec,
    HeterogeneousCutoffsSpec,
    IncentiveSpec,
    PredictedDoctorSpec,
    _expit,
    concave_reference_roc,
    concave_reference_tpr,
    cutoff_pair,
    generate_complementarity,
    generate_heterogeneous_cutoffs,
    generate_incentive,
    generate_predicted_doctor,
    incentive_analytic,
    manifest_dict,
    write_manifest,
)


class TestComplementarity:
    SPEC = ComplementaritySpec(n_cases=20_000, n_makers=100, export_hidden=True)

    def test_default_spec(self):
        spec = ComplementaritySpec()
        assert spec.n_cases == 600_000
        assert spec.n_makers == 2_000
        assert spec.capable_fraction == 0.375

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ComplementaritySpec(n_cases=1001, n_makers=10)

    def test_group_sizes(self):
        res = generate_complementarity(self.SPEC)
        assert len(res.capable_ids) == round(0.375 * 100)
        assert len(res.capable_ids) + len(res.less_capable_ids) == 100
        assert not set(res.capable_ids) & set(res.less_capable_ids)

    def test_base_rate_balanced(self):
        res = generate_complementarity(self.SPEC)
        assert res.data.y.mean() == pytest.approx(0.5, abs=0.01)

    def test_feature_scales_are_variances(self):
        f = generate_complementarity(self.SPEC).data.features
        assert f.shape == (20_000, 3)
        assert f[:, 0].var() == pytest.approx(1.95, abs=0.15)
        assert f[:, 1].var() == pytest.approx(0.25, abs=0.03)
        assert f[:, 2].var() == pytest.approx(2.0, abs=0.15)

    def test_hidden_column_only_on_request(self):
        spec = ComplementaritySpec(n_cases=2_000, n_makers=10)
        assert generate_complementarity(spec).data.features.shape == (2_000, 2)

    def test_capable_group_reads_the_full_signal(self):
        res = generate_complementarity(self.SPEC)
        d = res.data
        f = d.features
        cap = np.isin(np.array(d.makers)[d.maker_index], res.capable_ids)
        auc_cap = build_roc(expit(f[cap, 0] + f[cap, 1] + f[cap, 2]), d.y[cap]).auc()
        auc_less = build_roc(
            expit(-f[~cap, 0] + f[~cap, 1] + f[~cap, 2]), d.y[~cap]
        ).auc()
        assert auc_cap - auc_less > 0.2

    def test_cost_floor_bounds_positive_calls(self):
        # decisions are score > cost with cost >= 0.4, so a capable
        # maker can never call positive on a case whose propensity is
        # at or below the floor
        res = generate_complementarity(self.SPEC)
        d = res.data
        f = d.features
        cap = np.isin(np.array(d.makers)[d.maker_index], res.capable_ids)
        p = expit(f[:, 0] + f[:, 1] + f[:, 2])
        assert not (d.y_hat[cap & (p <= 0.4)] == 1).any()

    def test_shuffle_groups_changes_membership(self):
        base = generate_complementarity(self.SPEC)
        spec = ComplementaritySpec(
            n_cases=20_000, n_makers=100, export_hidden=True, shuffle_groups=True
        )
        assert generate_complementarity(spec).capable_ids != base.capable_ids

    def test_deterministic(self):
        a = generate_complementarity(self.SPEC)
        b = generate_complementarity(self.SPEC)
        np.testing.assert_array_equal(a.data.features, b.data.features)
        np.testing.assert_array_equal(a.data.y_hat, b.data.y_hat)
        assert a.capable_ids == b.capable_ids


class TestPredictedDoctor:
    def test_single_maker(self):
        r = generate_predicted_doctor(PredictedDoctorSpec(n=500))
        assert r.data.makers == ("doctor",)
        assert r.data.n_cases == 500

    def test_decisions_reconstructed_from_scores(self):
        spec = PredictedDoctorSpec(scenario=1, n=2_000, c0=0.7)
        r = generate_predicted_doctor(spec)
        np.testing.assert_array_equal(
            r.data.y_hat, r.doctor_score(r.data.features, r.u) > 0.7
        )

    def test_predicted_propensity_in_unit_interval(self):
        for sc in (1, 2, 3):
            r = generate_predicted_doctor(PredictedDoctorSpec(scenario=sc, n=2_000))
            q = r.predicted_score(r.data.features)
            assert q.min() >= 0.0 and q.max() <= 1.0

    def test_predicted_monotone_in_feature(self):
        r = generate_predicted_doctor(PredictedDoctorSpec(scenario=1, n=2_000))
        x = r.data.features
        q = r.predicted_score(x)
        order = np.argsort(x[:, 0])
        assert (np.diff(q[order]) >= 0).all()

    def test_aligned_doctor_is_predicted_exactly(self):
        # scenario 1: the integrated propensity is increasing in the same
        # feature as the truth, so the two rankings coincide
        r = generate_predicted_doctor(PredictedDoctorSpec(scenario=1, n=30_000, seed=1))
        x = r.data.features
        auc_truth = build_roc(r.truth_score(x), r.data.y).auc()
        auc_pred = build_roc(r.predicted_score(x), r.data.y).auc()
        assert auc_pred == pytest.approx(auc_truth, abs=1e-12)

    def test_contrarian_doctor_ranks_backwards(self):
        r = generate_predicted_doctor(PredictedDoctorSpec(scenario=3, n=30_000, seed=1))
        x = r.data.features
        auc_truth = build_roc(r.truth_score(x), r.data.y).auc()
        auc_doc = build_roc(r.doctor_score(x, r.u), r.data.y).auc()
        auc_pred = build_roc(r.predicted_score(x), r.data.y).auc()
        assert auc_truth > auc_doc + 0.02
        assert auc_doc > auc_pred + 0.02
        assert auc_pred == pytest.approx(1.0 - auc_truth, abs=1e-12)

    def test_two_feature_scenario(self):
        r = generate_predicted_doctor(PredictedDoctorSpec(scenario=2, n=30_000, seed=1))
        x = r.data.features
        assert x.shape == (30_000, 2)
        auc_truth = build_roc(r.truth_score(x), r.data.y).auc()
        auc_doc = build_roc(r.doctor_score(x, r.u), r.data.y).auc()
        auc_pred = build_roc(r.predicted_score(x), r.data.y).auc()
        assert auc_truth > auc_pred + 0.02
        assert auc_pred > auc_doc + 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictedDoctorSpec(scenario=4)
        with pytest.raises(ValueError):
            PredictedDoctorSpec(n=0)
        with pytest.raises(ValueError):
            PredictedDoctorSpec(c0=1.0)

    def test_deterministic(self):
        a = generate_predicted_doctor(PredictedDoctorSpec(n=1_000, seed=3))
        b = generate_predicted_doctor(PredictedDoctorSpec(n=1_000, seed=3))
        np.testing.assert_array_equal(a.data.features, b.data.features)
        np.testing.assert_array_equal(a.data.y_hat, b.data.y_hat)


class TestIncentive:
    def test_analytic_values(self):
        moments, pair = incentive_analytic()
        assert moments == (0.125, 0.375)
        assert pair == RatePair(alpha=0.75, beta=0.25)

    def test_rule_applied_exactly(self):
        r = generate_incentive(IncentiveSpec(n=5_000))
        np.testing.assert_array_equal(r.data.y_hat, r.data.features[:, 0] < 0.5)
        assert r.data.makers == ("rule",)

    def test_monte_carlo_matches_analytic(self):
        r = generate_incentive(IncentiveSpec(n=200_000))
        pair = rate_pair(tally_confusion(r.data.y, r.data.y_hat))
        assert pair.alpha == pytest.approx(0.75, abs=0.005)
        assert pair.beta == pytest.approx(0.25, abs=0.005)
        m1 = np.mean(r.data.y & r.data.y_hat)
        m2 = np.mean(r.data.y & (1 - r.data.y_hat))
        assert m1 == pytest.approx(0.125, abs=0.004)
        assert m2 == pytest.approx(0.375, abs=0.004)

    def test_result_carries_analytic_anchors(self):
        r = generate_incentive(IncentiveSpec(n=100))
        assert r.moments == (0.125, 0.375)
        assert r.pair == RatePair(0.75, 0.25)


class TestHeterogeneousCutoffs:
    def test_cutoff_pair_closed_form(self):
        assert cutoff_pair(0.3) == RatePair(
            pytest.approx(0.49), pytest.approx(0.91)
        )
        assert cutoff_pair(0.0) == RatePair(1.0, 1.0)
        assert cutoff_pair(1.0) == RatePair(0.0, 0.0)

    def test_reference_curve_values(self):
        assert concave_reference_tpr(0.25) == pytest.approx(0.75)
        assert concave_reference_tpr(0.0) == 0.0
        assert concave_reference_tpr(1.0) == 1.0

    def test_reference_roc_matches_function(self):
        roc = concave_reference_roc(129)
        assert roc.n_points == 129
        np.testing.assert_allclose(roc.betas, concave_reference_tpr(roc.alphas))
        assert roc.auc() == pytest.approx(5 / 6, abs=1e-3)

    def test_cutoff_pairs_sit_on_reference_curve(self):
        for c in (0.2, 0.5, 0.8):
            p = cutoff_pair(c)
            assert p.beta == pytest.approx(concave_reference_tpr(p.alpha))

    def test_per_maker_rates_near_analytic(self):
        spec = HeterogeneousCutoffsSpec(n_makers=10, cases_per_maker=4_000, seed=2)
        r = generate_heterogeneous_cutoffs(spec)
        for j in range(10):
            mask = r.data.maker_index == j
            pair = rate_pair(tally_confusion(r.data.y[mask], r.data.y_hat[mask]))
            ref = cutoff_pair(r.cutoffs[j])
            assert pair.alpha == pytest.approx(ref.alpha, abs=0.04)
            assert pair.beta == pytest.approx(ref.beta, abs=0.04)

    def test_pooled_cohort_falls_below_curve(self):
        spec = HeterogeneousCutoffsSpec(
            n_makers=2, cases_per_maker=4_000, cutoffs=(0.2, 0.8), seed=1
        )
        r = generate_heterogeneous_cutoffs(spec)
        pooled = rate_pair(tally_confusion(r.data.y, r.data.y_hat))
        gap = concave_reference_tpr(pooled.alpha) - pooled.beta
        assert gap > 0.1

    def test_constant_cutoffs_rejected(self):
        spec = HeterogeneousCutoffsSpec(
            n_makers=5, cases_per_maker=10, cutoffs=(0.5, 0.5, 0.5, 0.5, 0.5)
        )
        with pytest.raises(ValueError, match="constant"):
            generate_heterogeneous_cutoffs(spec)

    def test_cutoff_list_length_checked(self):
        spec = HeterogeneousCutoffsSpec(n_makers=5, cases_per_maker=10, cutoffs=(0.2, 0.8))
        with pytest.raises(ValueError):
            generate_heterogeneous_cutoffs(spec)

    def test_uniform_range_checked(self):
        spec = HeterogeneousCutoffsSpec(cutoffs=("uniform", 0.8, 0.2))
        with pytest.raises(ValueError):
            generate_heterogeneous_cutoffs(spec)

    def test_default_spec(self):
        spec = HeterogeneousCutoffsSpec()
        assert spec.n_makers == 50
        assert spec.cases_per_maker == 10_000
        assert spec.cutoffs == ("uniform", 0.2, 0.8)

    def test_deterministic(self):
        spec = HeterogeneousCutoffsSpec(n_makers=4, cases_per_maker=100, seed=9)
        a = generate_heterogeneous_cutoffs(spec)
        b = generate_heterogeneous_cutoffs(spec)
        np.testing.assert_array_equal(a.cutoffs, b.cutoffs)
        np.testing.assert_array_equal(a.data.y_hat, b.data.y_hat)


class TestManifest:
    def test_kind_tag_and_fields(self):
        d = manifest_dict(IncentiveSpec())
        assert d == {"kind": "incentive", "n": 1_000_000, "seed": 0}

    def test_tuples_become_lists(self):
        d = manifest_dict(HeterogeneousCutoffsSpec())
        assert d["cutoffs"] == ["uniform", 0.2, 0.8]

    def test_unknown_spec_rejected(self):
        with pytest.raises(TypeError):
            manifest_dict({"n": 3})

    def test_file_contents(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, IncentiveSpec(n=10, seed=4))
        assert json.loads(path.read_text()) == {"kind": "incentive", "n": 10, "seed": 4}
        assert path.read_text().endswith("\n")

    def test_stable_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(p1, ComplementaritySpec())
        write_manifest(p2, ComplementaritySpec())
        assert p1.read_bytes() == p2.read_bytes()


# -- the generators against per-maker preallocate-and-slice loops ------------
#
# Each reference fills preallocated columns row slice by row slice, as the
# generators once did; the generators now stack what each maker's draw
# returns, and must give the same arrays.


def reference_complementarity(spec):
    scales = np.sqrt([1.95, 0.25, 2.0])
    order = np.arange(spec.n_makers)
    if spec.shuffle_groups:
        order = substream(spec.seed, "groups").permutation(spec.n_makers)
    capable = np.zeros(spec.n_makers, dtype=bool)
    capable[order[: round(spec.capable_fraction * spec.n_makers)]] = True
    per = spec.n_cases // spec.n_makers
    features = np.empty((spec.n_cases, 3 if spec.export_hidden else 2))
    u_all = np.empty(spec.n_cases)
    y = np.empty(spec.n_cases, dtype=np.uint8)
    y_hat = np.empty(spec.n_cases, dtype=np.uint8)
    for j in range(spec.n_makers):
        g = substream(spec.seed, "maker", j)
        x1 = g.normal(0.0, scales[0], per)
        x2 = g.normal(0.0, scales[1], per)
        u = g.normal(0.0, scales[2], per)
        delta = g.random(per)
        cost = g.uniform(0.4, 1.0, per)
        p = expit(x1 + x2 + u)
        score = p if capable[j] else expit(-x1 + x2 + u)
        rows = slice(j * per, (j + 1) * per)
        features[rows, 0] = x1
        features[rows, 1] = x2
        if spec.export_hidden:
            features[rows, 2] = u
        u_all[rows] = u
        y[rows] = p > delta
        y_hat[rows] = score > cost
    index = np.repeat(np.arange(spec.n_makers, dtype=np.int64), per)
    return index, y, y_hat, features, u_all


def reference_predicted_doctor(spec):
    g = substream(spec.seed, "maker", 0)
    cut = float(logit(spec.c0))
    if spec.scenario in (1, 3):
        x = g.uniform(-1.0, 1.0, spec.n)[:, None]
        u = g.uniform(-2.0, 2.0, spec.n)
        sign = 1.0 if spec.scenario == 1 else -1.0
        truth, doctor = expit(x[:, 0]), expit(sign * x[:, 0] + u)
        predicted = np.clip((2.0 - (cut - sign * x[:, 0])) / 4.0, 0.0, 1.0)
    else:
        x1 = g.normal(0.0, 1.0, spec.n)
        x2 = g.normal(0.0, np.sqrt(0.5), spec.n)
        u = g.normal(0.0, 2.0, spec.n)
        x = np.column_stack([x1, x2])
        truth, doctor = expit(x1 + x2), expit(x1 - x2 + u)
        predicted = ndtr(-(cut - x1 + x2) / 2.0)
    delta = g.random(spec.n)
    y = (truth > delta).astype(np.uint8)
    y_hat = (doctor > spec.c0).astype(np.uint8)
    return np.zeros(spec.n, dtype=np.int64), y, y_hat, x, u, (truth, doctor, predicted)


def reference_incentive(spec):
    g = substream(spec.seed, "maker", 0)
    x = g.random(spec.n)
    delta = g.random(spec.n)
    return np.zeros(spec.n, dtype=np.int64), (x > delta).astype(np.uint8), (x < 0.5).astype(np.uint8), x[:, None]


def reference_heterogeneous_cutoffs(spec, cutoffs):
    per = spec.cases_per_maker
    n = spec.n_makers * per
    features = np.empty((n, 1))
    y = np.empty(n, dtype=np.uint8)
    y_hat = np.empty(n, dtype=np.uint8)
    for j in range(spec.n_makers):
        g = substream(spec.seed, "maker", j)
        x = g.random(per)
        delta = g.random(per)
        rows = slice(j * per, (j + 1) * per)
        features[rows, 0] = x
        y[rows] = x > delta
        y_hat[rows] = x > cutoffs[j]
    return np.repeat(np.arange(spec.n_makers, dtype=np.int64), per), y, y_hat, features


def assert_same_arrays(got, want):
    """Equal values, dtypes and shapes, array for array."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def columns(data):
    return data.maker_index, data.y, data.y_hat, data.features


SEEDS = st.integers(0, 2**32 - 1)


class TestAgainstSliceLoops:
    @given(SEEDS, st.integers(1, 12), st.integers(1, 9), st.floats(0.0, 1.0), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_complementarity(self, seed, n_makers, per, fraction, hidden, shuffle):
        spec = ComplementaritySpec(n_cases=n_makers * per, n_makers=n_makers, capable_fraction=fraction, seed=seed,
                                   export_hidden=hidden, shuffle_groups=shuffle)
        res = generate_complementarity(spec)
        *want, u = reference_complementarity(spec)
        assert_same_arrays([*columns(res.data), res.u], [*want, u])
        assert not res.u.flags.writeable

    @given(SEEDS, st.sampled_from([1, 2, 3]), st.integers(1, 40), st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_predicted_doctor(self, seed, scenario, n, c0):
        spec = PredictedDoctorSpec(scenario=scenario, n=n, c0=c0, seed=seed)
        res = generate_predicted_doctor(spec)
        *want, u, (truth, doctor, predicted) = reference_predicted_doctor(spec)
        assert res.data.makers == ("doctor",)
        assert_same_arrays([*columns(res.data), res.u], [*want, u])
        assert not res.u.flags.writeable
        x = res.data.features
        assert_same_arrays([res.truth_score(x), res.doctor_score(x, res.u), res.predicted_score(x)],
                           [truth, doctor, predicted])

    @given(SEEDS, st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_incentive(self, seed, n):
        res = generate_incentive(IncentiveSpec(n=n, seed=seed))
        assert res.data.makers == ("rule",)
        assert_same_arrays(columns(res.data), reference_incentive(IncentiveSpec(n=n, seed=seed)))

    @given(SEEDS, st.integers(2, 9), st.integers(1, 9), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_heterogeneous_cutoffs(self, seed, n_makers, per, explicit, data):
        if explicit:
            values = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n_makers, max_size=n_makers))
            cutoffs = tuple([0.0, 1.0] + values[2:])  # not constant
        else:
            lo = data.draw(st.floats(0.0, 0.9))
            cutoffs = ("uniform", lo, data.draw(st.floats(lo + 0.05, 1.0)))
        spec = HeterogeneousCutoffsSpec(n_makers=n_makers, cases_per_maker=per, cutoffs=cutoffs, seed=seed)
        res = generate_heterogeneous_cutoffs(spec)
        want = cutoffs[:n_makers] if explicit else substream(seed, "cutoffs").uniform(cutoffs[1], cutoffs[2], n_makers)
        assert_same_arrays([res.cutoffs], [np.asarray(want, dtype=np.float64)])
        assert not res.cutoffs.flags.writeable
        assert_same_arrays(columns(res.data), reference_heterogeneous_cutoffs(spec, res.cutoffs))


# the C library's exp overflows past ln(largest double) = 709.782712893384
OVERFLOW = 709.7827128933840
EXPIT_EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
    math.nextafter(2.2250738585072014e-308, 0.0), 709.0, -709.0, OVERFLOW, -OVERFLOW,
    math.nextafter(OVERFLOW, 0.0), math.nextafter(OVERFLOW, math.inf),
    -math.nextafter(OVERFLOW, 0.0), -math.nextafter(OVERFLOW, math.inf), 745.2, -745.2,
]


class TestExpit:
    """``synthetic._expit`` gives ``scipy.special.expit``'s bits, the cohorts' logistic."""

    @given(st.lists(st.one_of(st.sampled_from(EXPIT_EDGES), st.floats(), st.floats(-800.0, 800.0)), max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_bit_for_bit(self, values):
        x = np.array(values, dtype=np.float64)
        assert_same_arrays([_expit(x)], [expit(x)])

    def test_edges_and_shape(self):
        x = np.array(EXPIT_EDGES * 2).reshape(2, -1)
        assert_same_arrays([_expit(x)], [expit(x)])
        with np.errstate(over="raise", divide="raise", invalid="raise"):  # C's exp overflows silently
            assert _expit(np.array([-OVERFLOW, -1e308, -math.inf])).tolist() == [
                expit(-OVERFLOW), 0.0, 0.0
            ]
