"""The interchange codec: header and width checks, line-numbered errors, bytes."""

import math

import pytest

from rocbench.csvio import format_float, parse_float, read_table, write_json, write_table


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
