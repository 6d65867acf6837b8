"""Why averaging decision makers understates them.

Fifty makers share one scoring rule but apply different cutoffs, so
each maker's (fpr, tpr) sits exactly on a strictly concave curve.  The
cohort's pooled pair averages those points — and an average of points
on a strictly concave arc falls strictly below it.  Benchmarking the
*average* maker against the curve would call the whole cohort worse
than every single member.
"""

import numpy as np

from rocbench import (
    ConfusionCounts,
    HeterogeneousCutoffsSpec,
    concave_reference_tpr,
    cutoff_pair,
    generate_heterogeneous_cutoffs,
    rate_pair,
)

spec = HeterogeneousCutoffsSpec(n_makers=50, cases_per_maker=10_000, seed=0)
result = generate_heterogeneous_cutoffs(spec)
data = result.data

# every maker individually lands on the curve (up to sampling noise)
print("maker    cutoff    fpr_hat  tpr_hat   curve tpr at fpr")
# one row of confusion counts per maker, in the order of data.makers
table = data.counts_by_maker()
for m, c, row in list(zip(data.makers, result.cutoffs, table))[:5]:
    pair = rate_pair(ConfusionCounts(*row.tolist()))
    print(f"{m}    {c:.3f}    {pair.alpha:.4f}   {pair.beta:.4f}    {concave_reference_tpr(pair.alpha):.4f}")
print("... (45 more, all the same story)")

# the population pair for a cutoff c is ((1-c)^2, 1-c^2); check one
print("\npopulation pair at cutoff 0.3:", cutoff_pair(0.3))

# pooling the cohort mixes the cutoffs and drops below the curve
pooled = rate_pair(data.pooled_counts())
gap = concave_reference_tpr(pooled.alpha) - pooled.beta
print(f"\npooled pair: fpr={pooled.alpha:.4f} tpr={pooled.beta:.4f}")
print(f"curve tpr at the pooled fpr: {concave_reference_tpr(pooled.alpha):.4f}")
print(f"gap below the curve: {gap:.4f}  (every individual maker is ON the curve)")

# the gap is a property of cutoff spread, not noise: widen the spread
wide = generate_heterogeneous_cutoffs(
    HeterogeneousCutoffsSpec(n_makers=50, cases_per_maker=10_000,
                             cutoffs=("uniform", 0.05, 0.95), seed=0)
)
pooled_wide = rate_pair(wide.data.pooled_counts())
gap_wide = concave_reference_tpr(pooled_wide.alpha) - pooled_wide.beta
print(f"\nsame cohort with cutoffs U(0.05, 0.95): gap {gap_wide:.4f} (wider spread, bigger gap)")
