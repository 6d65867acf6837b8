"""The interchange codec: header and width checks, line-numbered errors, bytes."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rocbench import bayes, core, csvio, frequentist
from rocbench.core import CohortDataset, read_cases_csv, write_cases_csv
from rocbench.csvio import format_float, parse_float, read_table, write_json, write_table
from rocbench.replacement import Verdicts
from rocbench.roc import RocCurve, write_roc_csv


def write(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    return path


class TestReadTable:
    def test_rows_parsed_in_order(self, tmp_path):
        path = write(tmp_path, "a,b\r\n1,x\r\n2,y\r\n")
        assert read_table(path, ("a", "b"), tuple) == [("1", "x"), ("2", "y")]

    def test_header_only_reads_no_rows(self, tmp_path):
        assert read_table(write(tmp_path, "a,b\r\n"), ("a", "b"), tuple) == []

    @pytest.mark.parametrize("text", ["a,c\r\n", "a\r\n", "a,b,c\r\n", "b,a\r\n"])
    def test_exact_header_mismatch(self, tmp_path, text):
        with pytest.raises(ValueError, match="malformed header"):
            read_table(write(tmp_path, text), ("a", "b"), tuple)

    def test_prefix_header_allows_extra_columns(self, tmp_path):
        path = write(tmp_path, "a,b,f1,f2\r\n1,2,3,4\r\n")
        assert read_table(path, ("a", "b"), tuple, prefix=True) == [("1", "2", "3", "4")]

    @pytest.mark.parametrize("text", ["a,x,f1\r\n", "a\r\n", "b,a,f1\r\n"])
    def test_prefix_header_mismatch(self, tmp_path, text):
        with pytest.raises(ValueError, match="malformed header"):
            read_table(write(tmp_path, text), ("a", "b"), tuple, prefix=True)

    def test_width_follows_the_files_header(self, tmp_path):
        path = write(tmp_path, "a,b,f1\r\n1,2,3\r\n1,2\r\n")
        with pytest.raises(ValueError, match="line 3: expected 3 fields, got 2"):
            read_table(path, ("a", "b"), tuple, prefix=True)

    def test_short_row(self, tmp_path):
        path = write(tmp_path, "a,b,c\r\n1,2\r\n")
        with pytest.raises(ValueError, match=r"t\.csv: line 2: expected 3 fields, got 2$"):
            read_table(path, ("a", "b", "c"), tuple)

    def test_long_row(self, tmp_path):
        path = write(tmp_path, "a,b,c\r\n1,2,3\r\n1,2,3,4\r\n")
        with pytest.raises(ValueError, match=r"t\.csv: line 3: expected 3 fields, got 4$"):
            read_table(path, ("a", "b", "c"), tuple)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(ValueError, match=r"t\.csv: empty file$"):
            read_table(path, ("a",), tuple)

    def test_parse_error_names_its_line(self, tmp_path):
        path = write(tmp_path, "a\r\n1\r\n2\r\n3\r\nbad\r\n5\r\n")

        def parse(row):
            if row[0] == "bad":
                raise ValueError("no good")
            return int(row[0])

        with pytest.raises(ValueError, match=r"^.*t\.csv: line 5: no good$"):
            read_table(path, ("a",), parse)

    def test_other_exceptions_pass_through(self, tmp_path):
        path = write(tmp_path, "a\r\n1\r\n")

        def parse(row):
            raise KeyError(row[0])

        with pytest.raises(KeyError):
            read_table(path, ("a",), parse)

    def test_undecodable_file_is_not_given_a_row_line(self, tmp_path):
        # text is decoded in blocks, ahead of the row being parsed
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\r\n" + b"1\r\n" * 3000 + b"\xff\r\n")
        with pytest.raises(ValueError, match=r"t\.csv: not valid UTF-8 \(invalid start byte, byte 0xff\)$"):
            read_table(path, ("a",), tuple)

    def test_repeated_unique_column(self, tmp_path):
        path = write(tmp_path, "id,v\r\nm1,1\r\nm2,2\r\nm1,3\r\n")
        with pytest.raises(ValueError, match="line 4: repeated id 'm1'"):
            read_table(path, ("id", "v"), tuple, unique="id")
        assert len(read_table(path, ("id", "v"), tuple)) == 3


class TestCells:
    @pytest.mark.parametrize("cell, value", [("0", 0.0), ("-1.5", -1.5), ("1e-300", 1e-300), (" 2 ", 2.0)])
    def test_parse_float(self, cell, value):
        assert parse_float(cell) == value

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_parse_float_non_finite(self, cell):
        with pytest.raises(ValueError, match=f"non-finite value {cell!r}"):
            parse_float(cell)

    @pytest.mark.parametrize("cell", ["abc", "", "1,5", "0x10"])
    def test_parse_float_non_numeric(self, cell):
        with pytest.raises(ValueError, match=f"non-numeric value {cell!r}"):
            parse_float(cell)

    @pytest.mark.parametrize(
        "value, cell",
        [
            (0.0, "0"), (1.0, "1"), (0.1, "0.1"), (1 / 3, "0.3333333333"),
            (1e-20, "1e-20"), (-2.5e12, "-2.5e+12"), (math.pi, "3.141592654"),
            # ten digits would round these past the largest double, to 1.797693135e+308
            (1.7976931348623157e308, "1.7976931348623157e+308"), (-1.7976931345e308, "-1.7976931345e+308"),
            (1.7976931344999998e308, "1.797693134e+308"),
        ],
    )
    def test_format_float(self, value, cell):
        assert format_float(value) == cell


class TestWriters:
    def test_write_table_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("label", "x", "n"), iter([["raw", format_float(0.25), 3], ["a,b", "", "7"]]))
        assert path.read_bytes() == b'label,x,n\r\nraw,0.25,3\r\n"a,b",,7\r\n'

    def test_write_table_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("a", "b"), [])
        assert path.read_bytes() == b"a,b\r\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["m 1", "0.5"], ['q"uote', "1e-07"]]
        write_table(path, ("id", "v"), rows)
        assert read_table(path, ("id", "v"), list) == rows

    def test_write_json_bytes(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": [1, 2], "a": {"d": 0.5, "c": None}})
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "c": null,\n    "d": 0.5\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
        )

    def test_write_json_failure_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "t.json"
        with pytest.raises(TypeError, match="int64"):
            write_json(path, {"a": 1, "b": np.int64(2)})
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(TypeError, match="int64"):
            write_json(path, {"a": 1, "b": np.int64(2)})
        assert path.read_text() == "kept\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite_floats(self, tmp_path, value):
        # strict JSON: a reader such as JSON.parse or jq rejects NaN and Infinity
        path = tmp_path / "t.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, {"a": [0.5, value]})
        assert not path.exists()
        path.write_text("kept\n")
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, {"a": [0.5, value]})
        assert path.read_text() == "kept\n"


# -- the bulk cases/ROC codec against the row codec ------------------------

ROW_ENDS = ["\n", "\r\n"]
GOOD_IDS = ["m1", "m#1", "#", "a b", " m", "m ", "é", "医生甲", "m x", "", "3f2c9a1e-7b4d-4e1a-9c3b-52d8e6f0a7b1"]
ODD_IDS = ['"q"', '"a,b"', 'a"b', "x\ty", "x\x00y"]
GOOD_BITS = ["0", "1"]
ODD_BITS = [" 1", "1 ", "2", "0.0", "", "x", "01", '"1"']
GOOD_FEATURES = ["0.5", "-1e-3", " 2 ", "2\t", "1e-320", "-0", "+.5", "5.", "1.7976931348623157e308"]
ODD_FEATURES = [
    "nan", "inf", "-Infinity", "1e400", "1_0", "abc", "", "0x10", "1d3", "\u0661", "1\u00a0", "#1", "1,5", '"2"',
]
ODDITIES = ["cells", "width", "blank", "ends", "quoted", "bytes", "header"]


def outcome(read, path):
    """What a reader makes of a file: the cohort's columns or its error text."""
    try:
        data = read(path)
    except (ValueError, csv.Error) as exc:  # the csv module of Python 3.10 refuses NUL
        return f"{type(exc).__name__}: {exc}"
    feats = None if data.features is None else (data.features.shape, data.features.tobytes())
    return data.makers, data.maker_index.tolist(), data.y.tolist(), data.y_hat.tolist(), feats


@st.composite
def cases_files(draw):
    """Bytes of a cases file: plain, or with a few kinds of oddity, not all of them errors."""
    odd = draw(st.sets(st.sampled_from(ODDITIES), max_size=2))
    d = draw(st.integers(0, 3))
    header = ["maker_id", "y", "y_hat", *(f"f{j + 1}" for j in range(d))]
    if "header" in odd:
        header = draw(st.sampled_from([["maker_id", "y"], ["maker", "y", "y_hat"], ["maker_id", "y", "y_hat "]]))

    def cell(good, bad):
        return draw(st.sampled_from(bad if "cells" in odd and draw(st.integers(0, 3)) == 0 else good))

    def number():
        if draw(st.booleans()):
            return cell(GOOD_FEATURES, ODD_FEATURES)
        return draw(st.sampled_from([repr, "%.10g".__mod__]))(draw(st.floats(allow_nan=False, allow_infinity=False)))

    rows = []
    for _ in range(draw(st.integers(0, 8))):
        rows.append([cell(GOOD_IDS, ODD_IDS), cell(GOOD_BITS, ODD_BITS), cell(GOOD_BITS, ODD_BITS)])
        rows[-1] += [number() for _ in range(d)]
    if rows and "width" in odd:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row.append("1") if draw(st.booleans()) else row.pop()
    if rows and "quoted" in odd:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = [f'"{c}"' for c in rows[i]]  # csv reads the same cells
    lines = [",".join(header), *(",".join(row) for row in rows)]
    if "blank" in odd:
        lines.insert(draw(st.integers(1, len(lines))), "")
    if "ends" in odd:
        ends = [draw(st.sampled_from(ROW_ENDS + ["\r"])) for _ in lines]
    else:
        ends = [draw(st.sampled_from(ROW_ENDS))] * len(lines)
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last row
    raw = "".join(line + end for line, end in zip(lines, ends)).encode()
    if "bytes" in odd:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


class TestBulkDecoder:
    """``read_cases_csv`` (bulk, falling back to rows) equals the row parser: columns, maker order, error text."""

    @given(cases_files())
    @settings(max_examples=400, deadline=None)
    def test_property(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("bulk") / "cases.csv"
        path.write_bytes(raw)
        assert outcome(read_cases_csv, path) == outcome(core._parse_cases, path)

    @pytest.mark.parametrize("end", ROW_ENDS)
    def test_plain_file_decodes_in_bulk(self, tmp_path, end):
        # ids with ``#`` and spaces stay whole: loadtxt runs without comments
        text = end.join(["maker_id,y,y_hat,f1", "m#1,1,0,0.5", " b ,0,1, 2 ", "m#1,1,1,1e-320", "医生甲,0,0,3", ""])
        path = write(tmp_path, text)
        bulk = core._decode_cases(path)
        assert bulk is not None and bulk.makers == ("m#1", " b ", "医生甲")
        assert outcome(lambda p: bulk, path) == outcome(core._parse_cases, path)

    @pytest.mark.parametrize(
        "text",
        [
            'maker_id,y,y_hat\r\n"m",1,0\r\n',  # a quote
            "maker_id,y,y_hat\r\nm,1,0\nm,0,0\r\n",  # mixed line ends
            "maker_id,y,y_hat\r\nm,1,0\r\n\r\nm,0,0\r\n",  # a blank line
            "maker_id,y,y_hat\r\nm,1,0\r\n\r\n",  # a blank last line
            "maker_id,y,y_hat,f1\r\nm,1,0,1,2\r\n",  # a wide row
            "maker_id,y,y_hat,f1\r\nm,1,0,1_0\r\n",  # loadtxt refuses what float() takes
            "maker_id,y,y_hat,f1\r\nm,1,0,1e400\r\n",  # not finite
            "maker_id,y,y_hat\r\nm,1 ,0\r\n",  # not a literal bit
            "maker_id,y,y_hat\r\n",  # no rows
            "maker_id,y,y_hat\r\nm,0,1\r\nm,1,10",  # a last cell wider than the others, no line end
        ],
    )
    def test_odd_files_fall_back_to_rows(self, tmp_path, text):
        path = write(tmp_path, text)
        assert core._decode_cases(path) is None
        assert outcome(read_cases_csv, path) == outcome(core._parse_cases, path)


def cohort_of(makers, codes, features):
    n = len(codes)
    rng = np.random.default_rng(n)
    return CohortDataset(makers, codes, rng.integers(0, 2, n), rng.integers(0, 2, n), features)


def csv_writer_bytes(path, header, rows):
    write_table(path, header, rows)
    return path.read_bytes()


class TestBulkEncoders:
    """The ``%``-formatted writers give the bytes ``csv.writer`` gives."""

    @given(
        st.lists(st.text(alphabet=',"\r\n #éÿ\U0001f600ab1 ', max_size=6), min_size=1, max_size=4, unique=True),
        st.integers(0, 3),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_cases_bytes(self, tmp_path_factory, makers, d, data):
        n = data.draw(st.integers(1, 12))
        codes = np.array(data.draw(st.lists(st.integers(0, len(makers) - 1), min_size=n, max_size=n)))
        special = st.sampled_from([5e-324, 1e-310, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308, -0.0])
        values = data.draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), special),
                                    min_size=n * d, max_size=n * d))
        features = np.array(values).reshape(n, d) if d else None
        cohort = cohort_of(makers, codes, features)
        root = tmp_path_factory.mktemp("enc")
        write_cases_csv(root / "bulk.csv", cohort)
        rows = zip([makers[c] for c in codes], cohort.y.tolist(), cohort.y_hat.tolist(),
                   *(map(format_float, col) for col in (features.T.tolist() if d else [])))
        header = ["maker_id", "y", "y_hat", *(f"f{j + 1}" for j in range(d))]
        assert (root / "bulk.csv").read_bytes() == csv_writer_bytes(root / "rows.csv", header, rows)
        # read -> write -> read: both readers agree, every cell reads back as written (a
        # feature that %.10g would round past the largest double included), and what
        # reads back writes the same bytes
        first = outcome(read_cases_csv, root / "bulk.csv")
        assert first == outcome(core._parse_cases, root / "bulk.csv")
        back = read_cases_csv(root / "bulk.csv")
        assert [back.makers[c] for c in back.maker_index] == [makers[c] for c in codes]
        assert back.y.tolist() == cohort.y.tolist() and back.y_hat.tolist() == cohort.y_hat.tolist()
        if d:
            written = [[float(format_float(v)) for v in row] for row in features.tolist()]
            assert back.features.tolist() == written
        write_cases_csv(root / "again.csv", back)
        assert (root / "again.csv").read_bytes() == (root / "bulk.csv").read_bytes()
        assert outcome(read_cases_csv, root / "again.csv") == first

    def test_cases_bytes_across_chunks(self, tmp_path):
        n = csvio._CHUNK + 3
        rng = np.random.default_rng(4)
        makers = ["m0", "é1", "m 2"]
        cohort = cohort_of(makers, rng.integers(0, 3, n), rng.standard_normal((n, 2)))
        write_cases_csv(tmp_path / "bulk.csv", cohort)
        rows = zip([makers[c] for c in cohort.maker_index.tolist()], cohort.y.tolist(), cohort.y_hat.tolist(),
                   *(map(format_float, col) for col in cohort.features.T.tolist()))
        expected = csv_writer_bytes(tmp_path / "rows.csv", ["maker_id", "y", "y_hat", "f1", "f2"], rows)
        assert (tmp_path / "bulk.csv").read_bytes() == expected

    @given(
        st.lists(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([5e-324, -1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1 / 3]),
        ), min_size=2, max_size=30, unique=True),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_roc_bytes(self, tmp_path_factory, thresholds, data):
        n = len(thresholds)
        rates = st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2).map(lambda r: [0.0, *sorted(r), 1.0])
        roc = RocCurve(sorted(thresholds, reverse=True), data.draw(rates), data.draw(rates))
        root = tmp_path_factory.mktemp("roc")
        write_roc_csv(root / "bulk.csv", roc)
        rows = ([repr(v) for v in row] for row in zip(roc.thresholds.tolist(), roc.alphas.tolist(), roc.betas.tolist()))
        assert (root / "bulk.csv").read_bytes() == csv_writer_bytes(root / "rows.csv", ("threshold", "fpr", "tpr"), rows)


# -- verdict tables ---------------------------------------------------------

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1.7976931348623157e308, 5e-324]))


@st.composite
def frequentist_rows(draw, maker_id):
    label = draw(st.sampled_from(["case1", "case2", "case3"]))
    cuts = sorted(draw(st.lists(FINITE, min_size=2, max_size=2))) if label == "case1" else [math.nan] * 2
    return {"maker_id": maker_id, "n": draw(st.integers(0, 10**9)), "alpha_hat": draw(FINITE),
            "beta_hat": draw(FINITE), "case_label": label, "c_lower": cuts[0], "c_upper": cuts[1],
            "replace": label == "case1", "threshold": cuts[0] / 2 + cuts[1] / 2}


@st.composite
def bayesian_rows(draw, maker_id):
    return {"maker_id": maker_id, "q_max": draw(FINITE), "alpha_d": draw(st.one_of(st.just(math.nan), FINITE)),
            "loss_kind": draw(st.sampled_from(["baseline", "euclidean", "cost-benefit"])),
            "min_loss": draw(FINITE), "replace": draw(st.booleans()), "threshold": draw(FINITE)}


ROUTES = {
    "frequentist": (frequentist_rows, frequentist.write_frequentist_csv, frequentist.read_frequentist_csv),
    "bayesian": (bayesian_rows, bayes.write_bayesian_csv, bayes.read_bayesian_csv),
}


class TestVerdictFiles:
    @pytest.mark.parametrize("route", list(ROUTES))
    @given(
        st.lists(st.text(alphabet=',"\r\n #éÿ\U0001f600ab1 ', min_size=1, max_size=6), max_size=6, unique=True),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_write_read_write_same_bytes(self, tmp_path_factory, route, makers, data):
        rows_of, write_csv, read_csv = ROUTES[route]
        rows = [data.draw(rows_of(m)) for m in makers]
        names = list(rows[0]) if rows else list(data.draw(rows_of("m")))
        root = tmp_path_factory.mktemp("verdicts")
        write_csv(root / "a.csv", Verdicts.from_rows(rows, names))
        back = read_csv(root / "a.csv")
        assert back["maker_id"].tolist() == makers
        assert back["replace"].tolist() == [row["replace"] for row in rows]
        write_csv(root / "b.csv", back)
        assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()
