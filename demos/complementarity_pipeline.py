"""Full pipeline: find the makers a model beats, replace only them.

The cohort has two kinds of makers.  Capable ones read the full case
signal, including a private component the model never sees; less
capable ones misread one public feature.  A forest trained on public
features cannot beat the capable group — but replacing just the weak
group moves the pooled cohort above the model's own curve: the mixed
bench beats both the humans and the machine.
"""

import numpy as np

from rocbench import (
    ComplementaritySpec,
    ForestParams,
    Verdicts,
    benchmark_maker_bayesian,
    build_roc,
    combine_decisions,
    generate_complementarity,
    rate_pair,
    stratified_split,
    substream,
    train_forest,
)

seed = 0
cohort = generate_complementarity(
    ComplementaritySpec(n_cases=20_000, n_makers=100, seed=seed)
)
data = cohort.data
print(f"{data.n_cases} cases, {len(data.makers)} makers "
      f"({len(cohort.capable_ids)} capable, {len(cohort.less_capable_ids)} less capable)")

# hold out a performance split; split the rest into train/validation
classification, performance = stratified_split(data, (7, 3), substream(seed, "split", "outer"))
train, validation = stratified_split(classification, (4, 3), substream(seed, "split", "inner"))

forest = train_forest(
    train.features, train.y,
    ForestParams(n_trees=30, max_features=2, min_samples_split=50,
                 seed=int(substream(seed, "forest").integers(2**63))),
)
roc_val = build_roc(forest.predict_propensity(validation.features), validation.y)
print(f"forest validation AUC: {roc_val.auc():.4f}")

# benchmark every maker on their classification-split confusion table
counts = classification.counts_by_maker()
verdicts = Verdicts.from_rows(
    benchmark_maker_bayesian(m, counts[m], roc_val, n_draws=2000,
                             seed=substream(seed, "posterior", m))
    for m in classification.makers
)
replaced = set(verdicts["maker_id"][verdicts["replace"]])
hit_capable = len(replaced & set(cohort.capable_ids))
hit_weak = len(replaced & set(cohort.less_capable_ids))
print(f"\nreplaced {len(replaced)} makers: {hit_weak} less capable, {hit_capable} capable")

# score the mixed bench on the held-out performance split
raw = rate_pair(performance.pooled_counts())
scores = forest.predict_propensity(performance.features)
combined = combine_decisions(performance, verdicts, scores)
roc_perf = build_roc(scores, performance.y)

print(f"\nraw cohort pair:      fpr={raw.alpha:.4f} tpr={raw.beta:.4f}")
print(f"combined bench pair:  fpr={combined.pair.alpha:.4f} tpr={combined.pair.beta:.4f}")
print(f"model curve tpr at the combined fpr: {roc_perf.tpr_at_fpr(combined.pair.alpha):.4f}")
above = combined.pair.beta > roc_perf.tpr_at_fpr(combined.pair.alpha)
print(f"\ncombined bench above the model's own curve: {above}")
print("(the capable makers' private information is what lifts it)")
