"""Soft replacement: accept the machine's call on a coin flip per case.

Hard replacement hands every case of a flagged maker to the machine.
A gentler rollout mixes per case: with probability lambda the machine
decides, otherwise the maker does.  lambda = 0 is the raw cohort,
lambda = 1 is full replacement, and the pooled rates drift monotonely
between those endpoints as lambda rises.
"""

import numpy as np

from rocbench import (
    AcceptanceSchedule,
    HeterogeneousCutoffsSpec,
    Verdicts,
    combine_decisions,
    generate_heterogeneous_cutoffs,
    randomized_accept,
    rate_pair,
)

het = generate_heterogeneous_cutoffs(
    HeterogeneousCutoffsSpec(n_makers=12, cases_per_maker=500, seed=5)
)
data = het.data
scores = data.features[:, 0]  # the case score is the single feature

# verdicts, one column each: swap out makers whose cutoff is far from the sweet spot
distance = np.abs(np.asarray(het.cutoffs) - 0.45)
verdicts = Verdicts({
    "maker_id": data.makers,
    "replace": distance > 0.2,
    "threshold": np.full(len(data.makers), 0.45),
    "min_loss": distance,
})
n_flagged = int(verdicts["replace"].sum())
raw = rate_pair(data.pooled_counts())
full = combine_decisions(data, verdicts, scores)
print(f"{len(data.makers)} makers, {n_flagged} flagged for replacement")
print(f"raw cohort:        fpr={raw.alpha:.4f} tpr={raw.beta:.4f}")
print(f"hard replacement:  fpr={full.pair.alpha:.4f} tpr={full.pair.beta:.4f}")

print("\nlambda     fpr      tpr")
for lam in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
    result = randomized_accept(
        data, verdicts, AcceptanceSchedule.constant(lam), scores, seed=0
    )
    print(f"  {lam:.1f}    {result.pair.alpha:.4f}   {result.pair.beta:.4f}")

print("\nendpoints are exact: lambda=0 reproduces the makers, lambda=1 the")
print("hard-replacement bench; in between, one uniform draw per case decides.")

# a rank-based schedule: the weakest makers get the highest lambda
sched = AcceptanceSchedule.linear_by_rank(direction="less-capable-more", scope="all-makers")
result = randomized_accept(data, verdicts, sched, scores, seed=0)
spread = np.sort(result.lambdas)  # one lambda per maker
print(f"\nrank schedule lambdas: min={spread[0]:.2f} median={spread[len(spread)//2]:.2f} max={spread[-1]:.2f}")
print(f"rank schedule pooled pair: fpr={result.pair.alpha:.4f} tpr={result.pair.beta:.4f}")
