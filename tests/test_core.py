"""Confusion tallies, cohort storage, stratified splitting, case CSV."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench import core
from rocbench.core import (
    CohortDataset,
    ConfusionCounts,
    DegenerateMakerError,
    RatePair,
    rate_pair,
    read_cases_csv,
    stratified_split,
    tally_confusion,
    write_cases_csv,
)


def brute_counts(y, y_hat):
    """Independent recount by explicit iteration."""
    n11 = n01 = n10 = n00 = 0
    for yi, hi in zip(y, y_hat):
        if yi == 1 and hi == 1:
            n11 += 1
        elif yi == 0 and hi == 1:
            n01 += 1
        elif yi == 1 and hi == 0:
            n10 += 1
        else:
            n00 += 1
    return ConfusionCounts(n11=n11, n01=n01, n10=n10, n00=n00)


class TestConfusionCounts:
    def test_total(self):
        c = ConfusionCounts(n11=3, n01=1, n10=2, n00=4)
        assert c.n == 10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 1)

    def test_bool_rejected(self):
        # bool is an int subclass; True would count as 1 and give rates of bools
        with pytest.raises(ValueError, match="^n11 must be a non-negative integer, got True$"):
            ConfusionCounts(True, False, True, 2)
        with pytest.raises(ValueError, match="^n00 must be a non-negative integer, got False$"):
            ConfusionCounts(1, 1, 1, False)

    def test_tally_matches_brute_force(self):
        rng = np.random.default_rng(7)
        y = rng.integers(0, 2, 500)
        y_hat = rng.integers(0, 2, 500)
        assert tally_confusion(y, y_hat) == brute_counts(y, y_hat)

    def test_tally_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tally_confusion(np.array([0, 2]), np.array([0, 1]))


class TestRatePair:
    def test_arithmetic(self):
        c = ConfusionCounts(n11=30, n01=20, n10=20, n00=130)
        pair = rate_pair(c)
        assert pair == RatePair(alpha=pytest.approx(20 / 150), beta=pytest.approx(0.6))

    def test_all_positive_calls(self):
        # flags everything: fpr 1, tpr 1
        assert rate_pair(ConfusionCounts(5, 5, 0, 0)) == RatePair(1.0, 1.0)

    def test_degenerate_no_negatives(self):
        with pytest.raises(DegenerateMakerError):
            rate_pair(ConfusionCounts(n11=5, n01=0, n10=5, n00=0))

    def test_degenerate_no_positives(self):
        with pytest.raises(DegenerateMakerError):
            rate_pair(ConfusionCounts(n11=0, n01=5, n10=0, n00=5))


def small_cohort():
    return CohortDataset(
        makers=["beta", "alfa"],
        maker_index=np.array([0, 1, 0, 1, 1]),
        y=np.array([1, 0, 0, 1, 1]),
        y_hat=np.array([1, 1, 0, 0, 1]),
        features=np.array([[0.5, 1.0], [0.1, 2.0], [0.7, 0.5], [0.9, 0.0], [0.2, 0.3]]),
    )


class TestCohortDataset:
    def test_first_appearance_order(self):
        data = small_cohort()
        assert data.makers == ("beta", "alfa")

    def test_counts_by_maker(self):
        data = small_cohort()
        counts = data.counts_by_maker()
        assert counts["beta"] == ConfusionCounts(1, 0, 0, 1)
        assert counts["alfa"] == ConfusionCounts(1, 1, 1, 0)

    def test_pooled_counts_is_sum(self):
        data = small_cohort()
        per_maker = data.counts_by_maker().values()
        fields = ("n11", "n01", "n10", "n00")
        assert data.pooled_counts() == ConfusionCounts(*(sum(getattr(c, f) for c in per_maker) for f in fields))

    def test_subset_orders_makers_by_first_appearance(self):
        data = small_cohort()
        sub = data.subset(np.array([1, 2, 4]))
        assert sub.makers == ("alfa", "beta")  # row 1 is alfa's; the parent lists beta first
        np.testing.assert_array_equal(sub.maker_index, [0, 1, 0])
        np.testing.assert_array_equal(sub.y, [0, 0, 1])

    def test_subset_matches_csv_round_trip(self, tmp_path):
        data = small_cohort()
        sub = data.subset(np.array([3, 0, 1, 2]))
        write_cases_csv(tmp_path / "sub.csv", sub)
        back = read_cases_csv(tmp_path / "sub.csv")
        assert back.makers == sub.makers == ("alfa", "beta")
        np.testing.assert_array_equal(back.maker_index, sub.maker_index)

    def test_duplicate_maker_ids_rejected(self):
        with pytest.raises(ValueError):
            CohortDataset(["a", "a"], np.array([0, 1]), np.array([0, 1]), np.array([0, 1]))

    def test_columns_read_only(self):
        data = small_cohort()
        with pytest.raises(ValueError):
            data.y[0] = 0


class TestStratifiedSplit:
    def make(self, n_per_cell=10):
        y, y_hat, idx = [], [], []
        for cell in range(4):
            for _ in range(n_per_cell):
                y.append(cell // 2)
                y_hat.append(cell % 2)
                idx.append(0)
        return CohortDataset(["m"], np.array(idx), np.array(y), np.array(y_hat))

    def test_cell_quotas_exact(self):
        data = self.make(10)
        left, right = stratified_split(data, (7, 3), seed=0)
        # every cell of 10 splits exactly 7:3
        for c, m in left.counts_by_maker()["m"].__dict__.items():
            assert m == 7
        for c, m in right.counts_by_maker()["m"].__dict__.items():
            assert m == 3

    def test_rates_preserved(self):
        data = self.make(20)
        left, right = stratified_split(data, (1, 1), seed=3)
        assert rate_pair(left.pooled_counts()) == rate_pair(data.pooled_counts())
        assert rate_pair(right.pooled_counts()) == rate_pair(data.pooled_counts())

    def test_partition_is_exact(self):
        rng = np.random.default_rng(11)
        n = 200
        data = CohortDataset(
            ["a", "b", "c"],
            rng.integers(0, 3, n),
            rng.integers(0, 2, n),
            rng.integers(0, 2, n),
            rng.random((n, 2)),
        )
        left, right = stratified_split(data, (4, 3), seed=5)
        assert left.n_cases + right.n_cases == n
        merged = np.sort(np.concatenate([left.features[:, 0], right.features[:, 0]]))
        np.testing.assert_array_equal(merged, np.sort(data.features[:, 0]))

    def test_leftover_joins_first_part(self):
        # 5 cases in one cell at 1:1 -> 3 left, 2 right
        data = CohortDataset(["m"], np.zeros(5, int), np.ones(5, int), np.ones(5, int))
        left, right = stratified_split(data, (1, 1), seed=0)
        assert (left.n_cases, right.n_cases) == (3, 2)

    def test_deterministic(self):
        data = self.make(9)
        a1, b1 = stratified_split(data, (7, 3), seed=42)
        a2, b2 = stratified_split(data, (7, 3), seed=42)
        np.testing.assert_array_equal(a1.y_hat, a2.y_hat)
        np.testing.assert_array_equal(b1.y, b2.y)

    def test_one_sided_ratio_allowed(self):
        data = self.make(4)
        left, right = stratified_split(data, (1, 0), seed=0)
        assert (left.n_cases, right.n_cases) == (16, 0)

    def test_bad_ratio_rejected(self):
        data = self.make(2)
        with pytest.raises(ValueError):
            stratified_split(data, (0, 0), seed=0)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_quota_property(self, seed, a, b):
        data = self.make(13)
        left, right = stratified_split(data, (a, b), seed=seed)
        # per cell: the second side gets floor(m*b/(a+b)), the rest go left
        want_right = (13 * b) // (a + b)
        for m in right.counts_by_maker()["m"].__dict__.values():
            assert m == want_right
        assert left.n_cases == 4 * (13 - want_right)


# -- loop references ------------------------------------------------------
#
# The per-maker mask and per-case loop versions the grouped code replaced;
# the property tests below require the fast paths to match them exactly.


def loop_iter_makers(data):
    for code, maker in enumerate(data.makers):
        yield maker, np.flatnonzero(data.maker_index == code)


def loop_counts_by_maker(data):
    out = {}
    for maker, rows in loop_iter_makers(data):
        if rows.size:
            out[maker] = tally_confusion(data.y[rows], data.y_hat[rows])
    return out


def loop_subset(data, rows):
    rows = np.asarray(rows, dtype=np.int64)
    sub_idx = data.maker_index[rows]
    kept_codes = list(dict.fromkeys(sub_idx.tolist()))  # first appearance in the kept rows
    remap = {code: i for i, code in enumerate(kept_codes)}
    makers = [data.makers[c] for c in kept_codes]
    new_idx = np.fromiter((remap[c] for c in sub_idx), dtype=np.int64, count=rows.size)
    return CohortDataset(makers, new_idx, data.y[rows], data.y_hat[rows], data.features[rows])


def loop_stratified_split(data, ratio, seed):
    a, b = ratio
    rng = np.random.default_rng(seed)
    cell = 2 * data.y.astype(np.int64) + data.y_hat
    first, second = [], []
    for _, rows in loop_iter_makers(data):
        for c in range(4):
            group = rows[cell[rows] == c]
            if group.size == 0:
                continue
            take = group.size - (group.size * b) // (a + b)
            perm = rng.permutation(group.size)
            first.append(group[perm[:take]])
            second.append(group[perm[take:]])
    one = np.sort(np.concatenate(first)) if first else np.empty(0, dtype=np.int64)
    two = np.sort(np.concatenate(second)) if second else np.empty(0, dtype=np.int64)
    return loop_subset(data, one), loop_subset(data, two)


@st.composite
def cohorts(draw):
    """Random cohorts; some makers may have no cases at all."""
    n_makers = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    column = lambda elements: np.array(  # noqa: E731
        draw(st.lists(elements, min_size=n, max_size=n)), dtype=np.int64
    )
    makers = draw(st.permutations([f"m{k}" for k in range(n_makers)]))
    return CohortDataset(
        makers,
        column(st.integers(0, n_makers - 1)),
        column(st.integers(0, 1)),
        column(st.integers(0, 1)),
        np.arange(n, dtype=np.float64).reshape(-1, 1),
    )


def assert_same_cohort(got, want):
    assert got.makers == want.makers
    for name in ("maker_index", "y", "y_hat", "features"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestGroupingMatchesLoops:
    @given(cohorts())
    @settings(max_examples=200, deadline=None)
    def test_counts_by_maker(self, data):
        got = data.counts_by_maker()
        want = loop_counts_by_maker(data)
        assert list(got.items()) == list(want.items())

    @given(cohorts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_subset(self, data, pick):
        rows = pick.draw(st.lists(st.integers(0, max(data.n_cases - 1, 0)), max_size=data.n_cases))
        assert_same_cohort(data.subset(rows), loop_subset(data, rows))

    @given(cohorts(), st.integers(0, 2**31 - 1), st.integers(0, 5), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_stratified_split(self, data, seed, a, b):
        got = stratified_split(data, (a, b), seed)
        want = loop_stratified_split(data, (a, b), seed)
        for g, w in zip(got, want):
            assert_same_cohort(g, w)


class TestCasesCsv(object):
    def test_round_trip_values(self, tmp_path):
        data = small_cohort()
        path = tmp_path / "cases.csv"
        write_cases_csv(path, data)
        back = read_cases_csv(path)
        assert back.makers == data.makers
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.y_hat, data.y_hat)
        np.testing.assert_allclose(back.features, data.features, rtol=1e-9)

    def test_reemit_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 60
        data = CohortDataset(
            ["a", "b"], rng.integers(0, 2, n), rng.integers(0, 2, n),
            rng.integers(0, 2, n), rng.standard_normal((n, 3)),
        )
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_cases_csv(p1, data)
        write_cases_csv(p2, read_cases_csv(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_features(self, tmp_path):
        data = CohortDataset(["m"], np.zeros(3, int), np.array([0, 1, 1]), np.array([1, 1, 0]))
        path = tmp_path / "cases.csv"
        write_cases_csv(path, data)
        back = read_cases_csv(path)
        assert back.features is None
        np.testing.assert_array_equal(back.y_hat, data.y_hat)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("maker,y\n")
        with pytest.raises(ValueError, match="header"):
            read_cases_csv(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("maker_id,y,y_hat\nm,1,1\nm,2,0\n")
        with pytest.raises(ValueError, match="line 3"):
            read_cases_csv(path)

    def test_undecodable_byte_names_file(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_bytes(b"maker_id,y,y_hat,x1\n" + b"m,1,0,0.5\n" * 2000 + b"m,1,0,\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not valid UTF-8 (")):
            read_cases_csv(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("maker_id,y,y_hat,f1\nm,1,1,nan\n")
        with pytest.raises(ValueError, match="line 2"):
            read_cases_csv(path)

    def test_non_finite_feature_line_after_good_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "maker_id,y,y_hat,f1,f2\nm,1,1,0.5,1\nm,0,1,2,-3\nm,1,0,nan,inf\nm,0,0,1,inf\n"
        )
        with pytest.raises(ValueError, match="line 4: non-finite"):
            read_cases_csv(path)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("m,1,1,abc", "line 3: non-numeric value 'abc'"),
            ("m,1,1,nan", "line 3: non-finite value 'nan'"),
            ("m,1,1,-inf", "line 3: non-finite value '-inf'"),
            ("m,1,x,0.5", "line 3: y and y_hat must be literal 0 or 1"),
            ("m,1,1", "line 3: expected 4 fields, got 3"),
            ("m,1,1,0.5,2", "line 3: expected 4 fields, got 5"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"maker_id,y,y_hat,f1\nm,0,1,0.25\n{bad}\nm,1,1,nan\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_cases_csv(path)

    def test_rows_checked_in_file_order(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("maker_id,y,y_hat,f1\nm,1,1,nan\nm,1\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            read_cases_csv(path)

    def test_empty_file_and_header_only(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            read_cases_csv(path)
        path.write_text("maker_id,y,y_hat,f1\n")
        with pytest.raises(ValueError, match="no case rows"):
            read_cases_csv(path)

    def test_makers_in_order_of_first_row(self, tmp_path):
        path = tmp_path / "cases.csv"
        path.write_text("maker_id,y,y_hat\nb,1,0\na,0,0\nb,1,1\n")
        data = read_cases_csv(path)
        assert data.makers == ("b", "a")
        np.testing.assert_array_equal(data.maker_index, [0, 1, 0])
        np.testing.assert_array_equal(data.y_hat, [0, 0, 1])


# -- the confusion-cell layout ---------------------------------------------
#
# core alone knows that the cells are stored n11, n01, n10, n00; these tests
# check its helpers against the arithmetic written out field by field.

FIELD_OF = {(1, 1): 0, (0, 1): 1, (1, 0): 2, (0, 0): 3}


def case_loop_counts(data):
    """Per maker with cases, its counts from one pass over the cases, in maker order."""
    cells = {m: [0, 0, 0, 0] for m in data.makers}
    for code, yi, hi in zip(data.maker_index.tolist(), data.y.tolist(), data.y_hat.tolist()):
        cells[data.makers[code]][FIELD_OF[yi, hi]] += 1
    return {m: ConfusionCounts(*c) for m, c in cells.items() if any(c)}


def old_key_split(data, ratio, seed):
    """The split rows as drawn with the key 4 * maker + 2 * y + y_hat spelled out."""
    a, b = ratio
    rng = np.random.default_rng(seed)
    key = 4 * data.maker_index + 2 * data.y.astype(np.int64) + data.y_hat
    order = np.argsort(key, kind="stable")
    first, second = [], []
    for group in np.split(order, np.cumsum(np.bincount(key, minlength=4 * len(data.makers)))[:-1]):
        if group.size:
            take = group.size - (group.size * b) // (a + b)
            perm = rng.permutation(group.size)
            first.append(group[perm[:take]])
            second.append(group[perm[take:]])
    return [np.sort(np.concatenate(part)) if part else np.empty(0, np.int64) for part in (first, second)]


def dict_coder(values):
    """Distinct values in order of first appearance, and each value's code, by a dict."""
    codes = {}
    coded = [codes.setdefault(v, len(codes)) for v in values]
    return list(codes), coded


BIT_DTYPES = [bool, np.uint8, np.int64, np.float64]


class TestCellLayout:
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=60),
           st.sampled_from(BIT_DTYPES), st.sampled_from(BIT_DTYPES))
    @settings(max_examples=200, deadline=None)
    def test_tally_matches_case_loop(self, pairs, y_dtype, hat_dtype):
        y = np.array([p[0] for p in pairs], dtype=y_dtype)
        y_hat = np.array([p[1] for p in pairs], dtype=hat_dtype)
        got = tally_confusion(y, y_hat)
        assert got == brute_counts([p[0] for p in pairs], [p[1] for p in pairs])
        assert all(type(v) is int for v in vars(got).values())

    @given(cohorts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_counts_by_maker_matches_case_loop(self, data, pick):
        # cohorts() leaves some makers without cases; a subset drops some more
        rows = pick.draw(st.lists(st.integers(0, max(data.n_cases - 1, 0)), max_size=data.n_cases))
        for cohort in (data, data.subset(rows)):
            got = cohort.counts_by_maker()
            assert list(got.items()) == list(case_loop_counts(cohort).items())
            assert all(type(v) is int for c in got.values() for v in vars(c).values())

    @pytest.mark.parametrize("draw", [
        lambda rng: rng.dirichlet([0.1, 3.0, 0.5, 20.0], size=2000),
        lambda rng: rng.multinomial(40, [0.1, 0.3, 0.2, 0.4], size=2000),
    ], ids=["dirichlet", "multinomial"])
    def test_rows_helpers_match_column_formulas(self, draw):
        t = draw(np.random.default_rng(4))
        t = t[(t[:, 0] + t[:, 2] > 0) & (t[:, 1] + t[:, 3] > 0)]
        positives, negatives = core._class_sums(*t.T)
        alphas, betas = core._rates(*t.T)
        for got, want in [
            (positives, t[:, 0] + t[:, 2]),
            (negatives, t[:, 1] + t[:, 3]),
            (alphas, t[:, 1] / (t[:, 1] + t[:, 3])),
            (betas, t[:, 0] / (t[:, 0] + t[:, 2])),
        ]:
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_rate_pair_matches_field_formulas(self, n11, n01, n10, n00):
        counts = ConfusionCounts(n11, n01, n10, n00)
        assert core._cells(counts) == (n11, n01, n10, n00)
        if n01 + n00 == 0 or n11 + n10 == 0:
            with pytest.raises(DegenerateMakerError, match=f"positives={n11 + n10}, negatives={n01 + n00}"):
                rate_pair(counts)
            return
        pair = rate_pair(counts)
        assert pair == RatePair(n01 / (n01 + n00), n11 / (n11 + n10))
        assert type(pair.alpha) is float and type(pair.beta) is float

    @given(cohorts(), st.sampled_from([0, 1, 12345]), st.integers(0, 5), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_split_rows_match_old_key(self, data, seed, a, b):
        got = stratified_split(data, (a, b), seed)
        for part, want in zip(got, old_key_split(data, (a, b), seed)):
            np.testing.assert_array_equal(part.features[:, 0], want)  # features hold the row number

    @given(st.lists(st.sampled_from(["a", "b", "é", "ß", "日本", "m,1", "", "a "]), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_first_appearance_matches_dict_coder(self, ids):
        want_ids, want_codes = dict_coder(ids)
        encoded = np.array([m.encode() for m in ids], dtype=bytes)  # as the bulk reader holds maker ids
        got_ids, got_codes = core._first_appearance(encoded)
        assert [m.decode() for m in got_ids.tolist()] == want_ids
        assert got_codes.tolist() == want_codes
        numbered = np.array([7 * want_ids.index(m) for m in ids], dtype=np.int64)
        got_ids, got_codes = core._first_appearance(numbered)
        assert got_ids.tolist() == [7 * k for k in range(len(want_ids))]
        assert got_codes.tolist() == want_codes

    def test_bulk_and_row_readers_code_non_ascii_makers_alike(self, tmp_path):
        path = tmp_path / "cases.csv"
        names = ["日本", "b", "é", "b", "日本", "ß", "é"]
        rows = "".join(f"{m},{k % 2},1\r\n" for k, m in enumerate(names))
        path.write_bytes(("maker_id,y,y_hat\r\n" + rows).encode())
        bulk, parsed = core._decode_cases(path), core._parse_cases(path)
        assert bulk is not None
        assert bulk.makers == parsed.makers == ("日本", "b", "é", "ß")
        np.testing.assert_array_equal(bulk.maker_index, [0, 1, 2, 1, 0, 3, 2])
        np.testing.assert_array_equal(parsed.maker_index, bulk.maker_index)
