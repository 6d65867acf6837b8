"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every criterion states its tolerance and runtime budget in the assert
messages; a failure prints the measured values.  These are slower than
the unit suites (criterion 5 trains five full pipelines) but the whole
file stays inside its stated budgets on a desktop machine.
"""

import time

import numpy as np

from rocbench import (
    AcceptanceSchedule,
    ComplementaritySpec,
    ConfusionCounts,
    ForestParams,
    HeterogeneousCutoffsSpec,
    IncentiveSpec,
    PredictedDoctorSpec,
    RatePair,
    RocCurve,
    Verdicts,
    asymptotic_covariance,
    benchmark_maker_bayesian,
    build_roc,
    combine_decisions,
    concave_reference_tpr,
    confidence_ellipse,
    delta_method_test,
    forest_to_json,
    generate_complementarity,
    generate_heterogeneous_cutoffs,
    generate_incentive,
    generate_predicted_doctor,
    incentive_analytic,
    max_dominance,
    min_posterior_loss,
    posterior_params,
    randomized_accept,
    rate_pair,
    sample_posterior,
    stratified_split,
    substream,
    train_forest,
)


def _counts_from_cells(cells) -> ConfusionCounts:
    return ConfusionCounts(
        n11=int(cells[0]), n01=int(cells[1]), n10=int(cells[2]), n00=int(cells[3])
    )


def _cell_probs(alpha: float, beta: float, p: float) -> np.ndarray:
    return np.array([p * beta, (1 - p) * alpha, p * (1 - beta), (1 - p) * (1 - alpha)])


def test_criterion_01_pooled_gap_below_concave_curve():
    t0 = time.perf_counter()
    het = generate_heterogeneous_cutoffs(
        HeterogeneousCutoffsSpec(n_makers=50, cases_per_maker=10_000, seed=0)
    )
    pooled = rate_pair(het.data.pooled_counts())
    gap = concave_reference_tpr(pooled.alpha) - pooled.beta
    elapsed = time.perf_counter() - t0
    assert gap > 0.01, f"pooled gap {gap:.4f} not > 0.01 (pooled pair {pooled})"
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget 10s"


def test_criterion_02_ellipse_coverage():
    t0 = time.perf_counter()
    truth = RatePair(alpha=0.3, beta=0.6)
    probs = _cell_probs(truth.alpha, truth.beta, p=0.1)
    rng = np.random.default_rng(42)
    draws = rng.multinomial(2000, probs, size=1000)
    covered = 0
    for cells in draws:
        counts = _counts_from_cells(cells)
        center = rate_pair(counts)
        cov = asymptotic_covariance(counts) / counts.n
        covered += confidence_ellipse(center, cov, 0.95).contains(truth)
    coverage = covered / 1000
    elapsed = time.perf_counter() - t0
    assert 0.93 <= coverage <= 0.97, f"95% ellipse coverage {coverage:.4f} outside [0.93, 0.97]"
    assert elapsed < 60.0, f"criterion 2 took {elapsed:.1f}s, budget 60s"


def test_criterion_03_posterior_mean_and_duality():
    t0 = time.perf_counter()
    counts = ConfusionCounts(n11=40, n01=60, n10=60, n00=140)
    params = posterior_params(counts)
    draws = sample_posterior(params, 100_000, seed=0)
    linf = float(np.abs(draws.t.mean(axis=0) - params.mean()).max())
    assert linf <= 0.005, f"posterior cell-mean Linf error {linf:.6f} > 0.005 at 1e5 draws"

    # exact duality: both searches share one candidate grid
    curve = RocCurve.from_pairs([(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)])
    small = sample_posterior(params, 2000, seed=1)
    dom = max_dominance(small, curve)
    value, theta = min_posterior_loss(small, curve)
    assert value == 1.0 - dom.q_max, f"min loss {value!r} != 1 - q_max {1.0 - dom.q_max!r}"
    assert theta.alpha == dom.alpha_d, f"minimizer fpr {theta.alpha!r} != {dom.alpha_d!r}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s, budget 10s"


def test_criterion_04_dominating_segment_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    grid = np.linspace(0.0, 1.0, 10_000)
    step = grid[1] - grid[0]
    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 8))
        alphas = np.sort(rng.uniform(0.02, 0.98, k))
        if np.diff(alphas).min(initial=1.0) < 0.01:
            continue
        widths = np.diff(np.concatenate([[0.0], alphas, [1.0]]))
        slopes = np.sort(rng.uniform(0.1, 5.0, k + 1))[::-1]
        if np.diff(slopes).max(initial=-1.0) > -1e-3:
            continue  # need strictly decreasing slopes for strict concavity
        betas = np.cumsum(widths * slopes)
        betas /= betas[-1]
        curve = RocCurve.from_pairs(
            [(0.0, 0.0)] + list(zip(alphas, betas[:-1])) + [(1.0, 1.0)]
        )
        assert curve.concavity_violations() == []
        qa = float(rng.uniform(0.05, 0.95))
        qb = float(rng.uniform(0.0, max(curve.tpr_at_fpr(qa) - 0.02, 0.0)))
        if curve.tpr_at_fpr(qa) - qb <= 0.02:
            continue
        seg = curve.dominating_segment((qa, qb))
        assert seg is not None
        mask = (grid <= qa + 1e-12) & (curve.tpr_at_fpr(grid) >= qb - 1e-12)
        brute = grid[mask]
        err_b = abs(seg.b_pair.alpha - brute[0])
        err_a = abs(seg.a_pair.alpha - brute[-1])
        assert err_b <= step + 1e-12, f"low endpoint off by {err_b:.2e} (> {step:.2e})"
        assert err_a <= step + 1e-12, f"high endpoint off by {err_a:.2e} (> {step:.2e})"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s, budget 30s"


def _complementarity_run(seed: int):
    res = generate_complementarity(
        ComplementaritySpec(n_cases=60_000, n_makers=200, seed=seed)
    )
    classification, performance = stratified_split(
        res.data, (7, 3), substream(seed, "split", "outer")
    )
    train, validation = stratified_split(
        classification, (4, 3), substream(seed, "split", "inner")
    )
    params = ForestParams(
        n_trees=50, max_features=2, min_samples_split=50,
        seed=int(substream(seed, "forest").integers(2**63)),
    )
    forest = train_forest(train.features, train.y, params)
    roc_val = build_roc(forest.predict_propensity(validation.features), validation.y)
    scores = forest.predict_propensity(performance.features)
    roc_perf = build_roc(scores, performance.y)
    counts = classification.counts_by_maker()
    verdicts = Verdicts.from_rows(
        (
            benchmark_maker_bayesian(
                m, counts[m], roc_val, n_draws=2000,
                seed=substream(seed, "posterior", m), credible_level=0.95,
            )
            for m in classification.makers
        )
    )
    combined = combine_decisions(performance, verdicts, scores)
    raw = rate_pair(performance.pooled_counts())
    above = combined.pair.beta > roc_perf.tpr_at_fpr(combined.pair.alpha)
    dominates = combined.pair.alpha <= raw.alpha and combined.pair.beta >= raw.beta
    return above, dominates, raw, combined.pair, combined.n_replaced


def test_criterion_05_complementarity_pipeline():
    t0 = time.perf_counter()
    runs = [(seed, *_complementarity_run(seed)) for seed in range(5)]
    successes = sum(1 for _, above, dominates, *_ in runs if above and dominates)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"seed {s}: above={a} dominates={d} raw=({r.alpha:.3f},{r.beta:.3f}) "
        f"combined=({c.alpha:.3f},{c.beta:.3f}) replaced={n}"
        for s, a, d, r, c, n in runs
    )
    assert successes >= 4, f"only {successes}/5 seeds beat the raw cohort: {detail}"
    assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s, budget 300s"


def test_criterion_06_predicted_doctor_scenarios():
    budgets = {}
    aucs = {}
    for scenario in (1, 2, 3):
        t0 = time.perf_counter()
        res = generate_predicted_doctor(PredictedDoctorSpec(scenario=scenario, n=100_000, seed=0))
        data = res.data
        auc_truth = build_roc(res.truth_score(data.features), data.y).auc()
        roc_pred = build_roc(res.predicted_score(data.features), data.y)
        auc_pred = roc_pred.auc()
        auc_doctor = build_roc(res.doctor_score(data.features, res.u), data.y).auc()
        if scenario == 1:
            assert abs(auc_pred - auc_truth) <= 0.01, (
                f"s1: |AUC(predicted) - AUC(truth)| = {abs(auc_pred - auc_truth):.4f} > 0.01"
            )
        elif scenario == 2:
            assert auc_truth > auc_pred, f"s2: truth {auc_truth:.4f} <= predicted {auc_pred:.4f}"
            doctor_pair = rate_pair(data.pooled_counts())
            seg = roc_pred.dominating_segment(doctor_pair)
            assert seg is not None, (
                f"s2: predicted-score curve has no segment dominating the doctor pair {doctor_pair}"
            )
        else:
            margin = auc_doctor - auc_pred
            assert margin > 0.02, (
                f"s3: full-information doctor AUC {auc_doctor:.4f} beats predicted "
                f"{auc_pred:.4f} by only {margin:.4f} (need > 0.02)"
            )
        budgets[scenario] = time.perf_counter() - t0
        aucs[scenario] = (auc_truth, auc_pred, auc_doctor)
    for scenario, elapsed in budgets.items():
        assert elapsed < 120.0, f"scenario {scenario} took {elapsed:.1f}s, budget 120s each"


def test_criterion_07_randomized_acceptance_boundaries():
    t0 = time.perf_counter()
    het = generate_heterogeneous_cutoffs(
        HeterogeneousCutoffsSpec(n_makers=10, cases_per_maker=200, seed=5)
    )
    data = het.data
    scores = data.features[:, 0]  # the score IS the feature
    verdicts = Verdicts({
        "maker_id": data.makers, "replace": np.asarray(het.cutoffs) > 0.5,
        "threshold": np.full(len(data.makers), 0.4), "min_loss": het.cutoffs,
    })
    raw_counts = data.pooled_counts()
    deterministic = combine_decisions(data, verdicts, scores)

    lam0 = randomized_accept(data, verdicts, AcceptanceSchedule.constant(0.0), scores, seed=0)
    lam1 = randomized_accept(data, verdicts, AcceptanceSchedule.constant(1.0), scores, seed=0)
    assert lam0.counts == raw_counts, f"lambda=0 counts {lam0.counts} != raw {raw_counts}"
    assert lam1.counts == deterministic.counts, (
        f"lambda=1 counts {lam1.counts} != deterministic replacement {deterministic.counts}"
    )

    tprs = np.array([
        randomized_accept(
            data, verdicts, AcceptanceSchedule.constant(0.5), scores, seed=s
        ).pair.beta
        for s in range(200)
    ])
    mean_tpr = float(tprs.mean())
    se = float(tprs.std(ddof=1) / np.sqrt(tprs.size))
    lo, hi = sorted((lam0.pair.beta, lam1.pair.beta))
    elapsed = time.perf_counter() - t0
    assert lo - 2 * se <= mean_tpr <= hi + 2 * se, (
        f"lambda=0.5 mean tpr {mean_tpr:.4f} outside [{lo:.4f}, {hi:.4f}] +- 2se ({2 * se:.5f})"
    )
    assert elapsed < 120.0, f"criterion 7 took {elapsed:.1f}s, budget 120s"


def test_criterion_08_delta_test_size():
    t0 = time.perf_counter()
    curve = RocCurve.from_pairs([(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)])
    # least favorable null: the maker sits exactly on the curve's interior
    probs = _cell_probs(alpha=0.25, beta=float(curve.tpr_at_fpr(0.25)), p=0.5)
    rng = np.random.default_rng(0)
    draws = rng.multinomial(5000, probs, size=10_000)
    rejects = 0
    for cells in draws:
        rejects += delta_method_test(_counts_from_cells(cells), curve).reject
    rate = rejects / 10_000
    elapsed = time.perf_counter() - t0
    assert 0.04 <= rate <= 0.06, f"on-curve rejection rate {rate:.4f} outside 5% +- 1%"
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s, budget 120s"


def test_criterion_09_forest_sanity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    X = rng.standard_normal((4000, 4))
    y_sep = (X[:, 0] + X[:, 1] > 0).astype(np.uint8)
    y_noise = rng.integers(0, 2, 4000).astype(np.uint8)
    params = ForestParams(n_trees=30, max_features=2, min_samples_split=20, seed=3)

    forest = train_forest(X[:3000], y_sep[:3000], params)
    auc_sep = build_roc(forest.predict_propensity(X[3000:]), y_sep[3000:]).auc()
    assert auc_sep > 0.95, f"held-out AUC {auc_sep:.4f} on separable data not > 0.95"

    noise_forest = train_forest(X[:3000], y_noise[:3000], params)
    auc_noise = build_roc(noise_forest.predict_propensity(X[3000:]), y_noise[3000:]).auc()
    assert 0.45 <= auc_noise <= 0.55, f"held-out AUC {auc_noise:.4f} on noise outside [0.45, 0.55]"

    retrained = train_forest(X[:3000], y_sep[:3000], params)
    assert forest_to_json(retrained) == forest_to_json(forest), "fixed seed retrain not bit-identical"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.1f}s, budget 60s"


def test_criterion_10_incentive_oracle():
    inc = generate_incentive(IncentiveSpec(n=1_000_000, seed=0))
    data = inc.data
    moments_exact, pair_exact = incentive_analytic()
    m1 = float((data.y * data.y_hat).mean())
    m2 = float(((1 - data.y) * data.y_hat).mean())
    emp = rate_pair(data.pooled_counts())
    assert abs(emp.beta - pair_exact.beta) <= 0.002, (
        f"Monte Carlo tpr {emp.beta:.5f} vs closed form {pair_exact.beta} (tol 0.002)"
    )
    assert abs(emp.alpha - pair_exact.alpha) <= 0.002, (
        f"Monte Carlo fpr {emp.alpha:.5f} vs closed form {pair_exact.alpha} (tol 0.002)"
    )
    assert abs(m1 - moments_exact[0]) <= 0.002, (
        f"moment E[y*yhat] {m1:.5f} vs {moments_exact[0]} (tol 0.002)"
    )
    assert abs(m2 - moments_exact[1]) <= 0.002, (
        f"moment E[(1-y)*yhat] {m2:.5f} vs {moments_exact[1]} (tol 0.002)"
    )
