"""Combining, forced sweeps, and randomized acceptance on a hand cohort."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench.core import CohortDataset, RatePair, rate_pair, tally_confusion
from rocbench.replacement import (
    AcceptanceSchedule,
    Verdicts,
    combine_decisions,
    randomized_accept,
    replacement_path,
    write_combined_csv,
    write_path_csv,
    write_randomized_csv,
)


def cohort():
    """Three makers, four cases each; machine at threshold 0.5 is perfect."""
    y = [1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0]
    y_hat = [0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1]  # a all wrong, b all right, c half
    x = [0.9, 0.8, 0.1, 0.2, 0.7, 0.3, 0.6, 0.4, 0.6, 0.55, 0.45, 0.35]
    return CohortDataset(
        makers=["a", "b", "c"],
        maker_index=np.repeat([0, 1, 2], 4),
        y=np.array(y),
        y_hat=np.array(y_hat),
        features=np.array(x).reshape(-1, 1),
    )


NAN = float("nan")


def table(replace, threshold, makers="abc", **named):
    """A verdict table of ``makers``; NaN stands for no threshold."""
    return Verdicts({"maker_id": list(makers), "replace": replace, "threshold": threshold, **named})


def verdicts():
    return table([True, False, True], [0.5, 0.5, 0.5], min_loss=[0.0, 0.9, 0.3])


class TestVerdict:
    def test_replace_needs_threshold(self):
        with pytest.raises(ValueError, match="maker b: replacement requires a threshold"):
            table([False, True], [NAN, NAN], "ab")
        with pytest.raises(ValueError, match="maker a: replacement requires a threshold"):
            table([True], [float("inf")], "a")

    def test_retain_may_skip_threshold(self):
        v = table([False], [NAN], "a")
        assert np.isnan(v["threshold"][0]) and not v["replace"][0]

    def test_repeated_maker_rejected(self):
        with pytest.raises(ValueError, match="repeated maker_id 'b'"):
            table([False] * 4, [NAN] * 4, ["a", "b", "c", "b"])

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="1-d and of one length"):
            table([False, False], [NAN, NAN], "ab", min_loss=[0.1])

    def test_from_rows_stacks_named_columns(self):
        rows = [{"maker_id": "b", "replace": True, "threshold": 0.5, "q": 1, "x": "y"},
                {"maker_id": "a", "replace": False, "threshold": NAN, "q": 2, "x": "z"}]
        v = Verdicts.from_rows(iter(rows), ["maker_id", "replace", "threshold", "q"])
        assert len(v) == 2 and v["maker_id"].tolist() == ["b", "a"] and v["q"].tolist() == [1, 2]
        assert v["replace"].dtype == bool and np.isnan(v["threshold"][1])
        with pytest.raises(ValueError, match="no x column"):
            v["x"]
        with pytest.raises(ValueError):
            v["q"][0] = 3  # read-only
        assert Verdicts.from_rows(rows)["x"].tolist() == ["y", "z"]  # by default the first row's columns
        assert len(Verdicts.from_rows([])) == 0

    def test_positions_follow_maker_order(self):
        v = table([False] * 3, [NAN] * 3, ["c", "a", "b"])
        assert v.positions(["a", "b", "c", "a"]).tolist() == [1, 2, 0, 1]
        with pytest.raises(ValueError, match=r"no verdict for makers: \['d'\]"):
            v.positions(["a", "d"])


class TestCombineDecisions:
    def test_pooled_pair_recomputed_by_hand(self):
        data = cohort()
        res = combine_decisions(data, verdicts(), data.features[:, 0])
        # makers a and c go to the machine, which is perfect here;
        # b keeps its own (also perfect) calls
        assert res.pair == RatePair(0.0, 1.0)
        assert res.replaced == ("a", "c")
        assert res.n_replaced == 2
        assert res.counts == tally_confusion(data.y, [1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 0])

    def test_no_replacements_equals_raw(self):
        data = cohort()
        keep = table([False] * 3, [NAN] * 3)
        res = combine_decisions(data, keep, data.features[:, 0])
        assert res.pair == RatePair(0.5, 0.5)
        assert res.counts == tally_confusion(data.y, data.y_hat)
        assert res.replaced == ()

    def test_mixed_replacement_oracle(self):
        data = cohort()
        only_a = table([True, False, False], [0.5, NAN, NAN])
        res = combine_decisions(data, only_a, data.features[:, 0])
        # a fixed (4 right), b right, c half wrong: alpha 1/6, beta 5/6
        assert res.pair == RatePair(pytest.approx(1 / 6), pytest.approx(5 / 6))

    def test_missing_verdict_rejected(self):
        data = cohort()
        with pytest.raises(ValueError, match="no verdict"):
            combine_decisions(data, table([True, False], [0.5, 0.5], "ab"), data.features[:, 0])

    def test_scores_shape_validated(self):
        data = cohort()
        with pytest.raises(ValueError, match="one score per case"):
            combine_decisions(data, verdicts(), data.features[:2, 0])
        with pytest.raises(ValueError, match="one score per case"):
            replacement_path(data, verdicts(), [0.0], data.features)
        with pytest.raises(ValueError, match="one score per case"):
            randomized_accept(data, verdicts(), AcceptanceSchedule.constant(0.5), data.features[1:, 0], seed=0)

    def test_threshold_rule_is_strict_greater(self):
        data = cohort()
        # threshold exactly at a feature value: that case stays negative
        v = table([True, False, False], [0.9, NAN, NAN])
        res = combine_decisions(data, v, data.features[:, 0])
        # a's machine calls are 0,0,0,0: two misses join c's errors
        assert res.counts.n10 == 3
        assert res.pair.beta == pytest.approx(0.5)


class TestReplacementPath:
    def test_sweep_points(self):
        data = cohort()
        pts = replacement_path(data, verdicts(), [0.0, 1 / 3, 2 / 3, 1.0], data.features[:, 0])
        assert [p.n_replaced for p in pts] == [0, 1, 2, 3]
        assert pts[0].pair == RatePair(0.5, 0.5)
        # lowest-loss maker a is swapped first
        assert pts[1].pair == RatePair(pytest.approx(1 / 6), pytest.approx(5 / 6))
        assert pts[2].pair == RatePair(0.0, 1.0)
        assert pts[3].pair == RatePair(0.0, 1.0)

    def test_halves_round_up(self):
        data = cohort()
        pts = replacement_path(data, verdicts(), [0.5], data.features[:, 0])
        assert pts[0].n_replaced == 2  # 1.5 rounds to 2

    def test_rank_ties_break_by_maker_id(self):
        data = cohort()
        tied = table([True] * 3, [0.5] * 3, "cab", min_loss=[0.0] * 3)
        pts = replacement_path(data, tied, [1 / 3], data.features[:, 0])
        # only "a" replaced: same pooled pair as the single-maker oracle
        assert pts[0].pair == RatePair(pytest.approx(1 / 6), pytest.approx(5 / 6))

    def test_every_maker_needs_threshold(self):
        bad = table([True, False, True], [0.5, NAN, 0.5], min_loss=[0.0, 0.9, 0.3])
        data = cohort()
        with pytest.raises(ValueError, match="maker b has no threshold"):
            replacement_path(data, bad, [0.0], data.features[:, 0])

    def test_min_loss_diagnostic_required(self):
        bad = table([True, False, True], [0.5] * 3)
        data = cohort()
        with pytest.raises(ValueError, match="verdicts have no min_loss column"):
            replacement_path(data, bad, [0.0], data.features[:, 0])

    def test_fraction_range_validated(self):
        data = cohort()
        with pytest.raises(ValueError):
            replacement_path(data, verdicts(), [1.5], data.features[:, 0])


class TestAcceptanceSchedule:
    def test_constant_resolve(self):
        lams = AcceptanceSchedule.constant(0.25, scope="all-makers").resolve(["a", "b", "c"], verdicts())
        assert lams.tolist() == [0.25, 0.25, 0.25]

    def test_scope_zeroes_retained_makers(self):
        lams = AcceptanceSchedule.constant(0.25).resolve(["b", "a", "c"], verdicts())
        assert lams.tolist() == [0.0, 0.25, 0.25]

    def test_linear_by_rank(self):
        lams = AcceptanceSchedule.linear_by_rank("less-capable-more").resolve(["a", "b", "c"], verdicts())
        # rank by descending loss: b, c, a -> weights 0, 1/2, 1
        assert lams.tolist() == [1.0, 0.0, 0.5]

    def test_linear_by_rank_reversed(self):
        lams = AcceptanceSchedule.linear_by_rank("reverse").resolve(["a", "b", "c"], verdicts())
        assert lams.tolist() == [0.0, 1.0, 0.5]

    def test_rank_needs_two_makers(self):
        with pytest.raises(ValueError):
            AcceptanceSchedule.linear_by_rank().resolve(["a"], verdicts())

    def test_validation(self):
        with pytest.raises(ValueError):
            AcceptanceSchedule(kind="quadratic", lam=0.5)
        with pytest.raises(ValueError):
            AcceptanceSchedule.constant(1.5)
        with pytest.raises(ValueError):
            AcceptanceSchedule(kind="linear-by-rank")
        with pytest.raises(ValueError):
            AcceptanceSchedule.constant(0.5, scope="everyone")


class TestRandomizedAccept:
    def test_lambda_zero_equals_raw_exactly(self):
        data = cohort()
        sched = AcceptanceSchedule.constant(0.0, scope="all-makers")
        res = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=123)
        assert res.counts == tally_confusion(data.y, data.y_hat)
        assert res.pair == RatePair(0.5, 0.5)

    def test_lambda_one_equals_machine_exactly(self):
        data = cohort()
        sched = AcceptanceSchedule.constant(1.0, scope="all-makers")
        res = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=77)
        assert res.pair == RatePair(0.0, 1.0)

    def test_lambda_one_in_scope_equals_combined(self):
        data = cohort()
        sched = AcceptanceSchedule.constant(1.0)  # less-capable-only
        res = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=5)
        combined = combine_decisions(data, verdicts(), data.features[:, 0])
        assert res.counts == combined.counts

    def test_deterministic_in_seed(self):
        data = cohort()
        sched = AcceptanceSchedule.constant(0.5, scope="all-makers")
        a = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=11)
        b = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=11)
        assert a.counts == b.counts

    def test_reports_resolved_lambdas(self):
        data = cohort()
        sched = AcceptanceSchedule.constant(0.25)
        res = randomized_accept(data, verdicts(), sched, data.features[:, 0], seed=0)
        assert res.lambdas.tolist() == [0.25, 0.0, 0.25]

    def test_positive_lambda_needs_threshold(self):
        data = cohort()
        bad = table([False] * 3, [0.5, NAN, 0.5])
        sched = AcceptanceSchedule.constant(1.0, scope="all-makers")
        with pytest.raises(ValueError, match="maker b has positive lambda but no threshold"):
            randomized_accept(data, bad, sched, data.features[:, 0], seed=0)

    def test_missing_verdict_rejected(self):
        sched = AcceptanceSchedule.constant(0.5)
        data = cohort()
        with pytest.raises(ValueError, match="no verdict"):
            randomized_accept(data, table([True], [0.5], "a"), sched, data.features[:, 0], seed=0)


# -- per-case loop references ---------------------------------------------


def verdict_of(verdicts, maker):
    """(replace, threshold) of ``maker``, found by a scan of the id column."""
    i = verdicts["maker_id"].tolist().index(maker)
    return bool(verdicts["replace"][i]), float(verdicts["threshold"][i])


def loop_combined_counts(data, verdicts, scores, replaced=None):
    """Counts with the ``replaced`` makers (by default those the table flags) run by the machine."""
    final = []
    for i in range(data.n_cases):
        m = data.makers[data.maker_index[i]]
        flag, thr = verdict_of(verdicts, m)
        if replaced is not None:
            flag = m in replaced
        final.append(int(scores[i] > thr) if flag else int(data.y_hat[i]))
    return tally_confusion(data.y, np.array(final))


def loop_randomized_counts(data, verdicts, lam, scope, scores, seed):
    """Counts of a constant schedule; None where a maker with a positive lambda has no threshold."""
    lams = {m: lam if scope == "all-makers" or verdict_of(verdicts, m)[0] else 0.0 for m in data.makers}
    u = np.random.default_rng(seed).random(data.n_cases)
    final = []
    for i in range(data.n_cases):
        m = data.makers[data.maker_index[i]]
        if lams[m] > 0.0 and u[i] <= lams[m]:
            if any(lams[k] > 0.0 and np.isnan(verdict_of(verdicts, k)[1]) for k in data.makers):
                return None  # the fast path must refuse this schedule
            final.append(int(scores[i] > verdict_of(verdicts, m)[1]))
        else:
            final.append(int(data.y_hat[i]))
    return tally_confusion(data.y, np.array(final))


GRID = [0.0, 0.25, 0.5, 0.75, 1.0]  # scores and thresholds tie often


@st.composite
def scored_cohorts(draw):
    """Cohort with both outcomes, a score per case and a verdict table.

    The table lists the makers in a drawn order, with an extra maker the
    cohort does not have, so lookups go by maker id, not by position.
    """
    n_makers = draw(st.integers(1, 5))
    n = draw(st.integers(2, 40))
    ints = lambda lo, hi: draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))  # noqa: E731
    y = ints(0, 1)
    y[:2] = [0, 1]
    data = CohortDataset(
        [f"m{k}" for k in range(n_makers)], np.array(ints(0, n_makers - 1)), np.array(y),
        np.array(ints(0, 1)),
    )
    scores = np.array(draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n)))
    rows = []
    for m in draw(st.permutations([*data.makers, "extra"])):
        replace = draw(st.booleans())
        thr = draw(st.sampled_from(GRID) if replace else st.sampled_from([NAN, *GRID]))
        rows.append({"maker_id": m, "replace": replace, "threshold": thr, "min_loss": draw(st.sampled_from(GRID))})
    return data, Verdicts.from_rows(rows, ["maker_id", "replace", "threshold", "min_loss"]), scores


class TestMatchesPerCaseLoop:
    @given(scored_cohorts())
    @settings(max_examples=200, deadline=None)
    def test_combine_decisions(self, case):
        data, verdicts, scores = case
        res = combine_decisions(data, verdicts, scores)
        assert res.counts == loop_combined_counts(data, verdicts, scores)
        assert res.replaced == tuple(sorted(m for m in data.makers if verdict_of(verdicts, m)[0]))

    @given(
        scored_cohorts(),
        st.sampled_from(GRID),
        st.sampled_from(["less-capable-only", "all-makers"]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_randomized_accept(self, case, lam, scope, seed):
        data, verdicts, scores = case
        sched = AcceptanceSchedule.constant(lam, scope=scope)
        want = loop_randomized_counts(data, verdicts, lam, scope, scores, seed)
        if want is None:
            with pytest.raises(ValueError, match="positive lambda but no threshold"):
                randomized_accept(data, verdicts, sched, scores, seed=seed)
        else:
            assert randomized_accept(data, verdicts, sched, scores, seed=seed).counts == want

    @given(scored_cohorts(), st.sampled_from([0.0, 0.2, 0.5, 0.7, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_replacement_path(self, case, fraction):
        data, verdicts, scores = case
        if any(np.isnan(verdict_of(verdicts, m)[1]) for m in data.makers):
            with pytest.raises(ValueError, match="has no threshold"):
                replacement_path(data, verdicts, [fraction], scores)
            return
        loss = dict(zip(verdicts["maker_id"].tolist(), verdicts["min_loss"].tolist()))
        ranked = sorted(data.makers, key=lambda m: (loss[m], m))
        k = int(math.floor(fraction * len(ranked) + 0.5))
        point = replacement_path(data, verdicts, [fraction], scores)[0]
        assert point.n_replaced == k
        assert point.pair == rate_pair(loop_combined_counts(data, verdicts, scores, set(ranked[:k])))


class TestCsvWriters:
    def test_combined_rows(self, tmp_path):
        path = tmp_path / "combined.csv"
        write_combined_csv(path, [("raw", RatePair(0.5, 0.5), 0), ("bayes", RatePair(0.0, 1.0), 2)])
        assert path.read_bytes() == (
            b"label,fpr,tpr,n_replaced\r\nraw,0.5,0.5,0\r\nbayes,0,1,2\r\n"
        )

    def test_path_rows(self, tmp_path):
        data = cohort()
        pts = replacement_path(data, verdicts(), [0.0, 1.0], data.features[:, 0])
        path = tmp_path / "path.csv"
        write_path_csv(path, pts)
        assert path.read_bytes() == b"fraction,fpr,tpr\r\n0,0.5,0.5\r\n1,0,1\r\n"

    def test_randomized_rows(self, tmp_path):
        path = tmp_path / "rand.csv"
        write_randomized_csv(path, [(0.25, RatePair(0.125, 0.875), 42)])
        assert path.read_bytes() == b"lambda,fpr,tpr,seed\r\n0.25,0.125,0.875,42\r\n"
