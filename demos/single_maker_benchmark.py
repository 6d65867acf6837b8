"""Benchmark one decision maker against a machine's ROC curve, two ways.

The machine's curve comes from its scores on labeled cases.  The maker
contributes only a confusion table — we never see their reasoning.  The
frequentist route asks whether a 95% confidence ellipse around the
maker's rate pair clears the curve; the Bayesian route asks how much
posterior mass a single curve point can dominate.
"""

import numpy as np

from rocbench import (
    ConfusionCounts,
    Verdicts,
    asymptotic_covariance,
    benchmark_maker_bayesian,
    benchmark_maker_frequentist,
    build_roc,
    classify_maker,
    confidence_ellipse,
    rate_pair,
)

# -- the machine: scores on 2000 held-out cases -------------------------
rng = np.random.default_rng(7)
quality = rng.random(2000)
labels = (rng.random(2000) < quality).astype(int)
scores = np.clip(quality + rng.normal(0, 0.15, 2000), 0, 1)
roc = build_roc(scores, labels)
print(f"machine curve: {roc.n_points} vertices, AUC {roc.auc():.4f}")

# -- the maker: one confusion table --------------------------------------
counts = ConfusionCounts(n11=110, n01=140, n10=90, n00=460)
pair = rate_pair(counts)
print(f"\nmaker rates over {counts.n} cases: fpr={pair.alpha:.3f} tpr={pair.beta:.3f}")
print(f"curve tpr at that fpr: {roc.tpr_at_fpr(pair.alpha):.3f}")

# frequentist: where does the ellipse sit relative to the curve?
cov = asymptotic_covariance(counts) / counts.n
ellipse = confidence_ellipse(pair, cov, 0.95)
label = classify_maker(ellipse, roc)
print(f"\nellipse verdict: {label.value} (replace={label.replace})")

# each route gives one verdict row per maker; rows stack into one Verdicts table
verdict_f = benchmark_maker_frequentist("maker-a", counts, roc, seed=0)
if verdict_f["replace"]:
    print(f"dominating thresholds: [{verdict_f['c_lower']:.3f}, {verdict_f['c_upper']:.3f}]")

# Bayesian: posterior mass one curve point can dominate
verdict_b = benchmark_maker_bayesian("maker-a", counts, roc, n_draws=5000, seed=0)
print(f"\nposterior dominance mass q_max = {verdict_b['q_max']:.4f} at fpr {verdict_b['alpha_d']:.4f}")
print(f"minimum posterior loss = {verdict_b['min_loss']:.4f} (baseline loss = 1 - q_max)")
print(f"bayesian verdict: replace={verdict_b['replace']}, machine threshold {verdict_b['threshold']:.4f}")

# a strong maker for contrast: well above the curve, both routes retain
strong = ConfusionCounts(n11=170, n01=40, n10=30, n00=560)
sp = rate_pair(strong)
ell = confidence_ellipse(rate_pair(strong), asymptotic_covariance(strong) / strong.n, 0.95)
vb = benchmark_maker_bayesian("maker-b", strong, roc, n_draws=5000, seed=0)
print(f"\nstrong maker fpr={sp.alpha:.3f} tpr={sp.beta:.3f}: "
      f"ellipse={classify_maker(ell, roc).value}, q_max={vb['q_max']:.4f}, replace={vb['replace']}")

# the two makers' Bayesian rows as one table, indexed by maker position
table = Verdicts.from_rows([verdict_b, vb])
for m, q, replace in zip(table["maker_id"], table["q_max"], table["replace"]):
    print(f"  {m}: q_max={q:.4f} replace={replace}")
