"""The one codec for the package's CSV and JSON interchange files.

A CSV file is a header row and one record per row in the ``csv`` default
dialect (``\\r\\n`` row ends), floats as ``format_float`` writes them
unless a writer formats them itself.  Readers name the file and the line
of a row they reject.

Large tables go through bulk paths: ``write_rows`` formats rows with one
``%`` pass per chunk, and ``read_plain_table`` decodes a plain file (no
quotes, one kind of line end, no blank line, every row as wide as the
header) with one ``np.loadtxt`` call.  A reader that gets None from it,
or rejects what it decoded, re-reads the file with ``read_table``, so the
row path alone words every error.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Iterable, Sequence

import numpy as np

_CHUNK = 65_536  # rows formatted per ``%`` pass
_TEN_DIGIT_LIMIT = 1.7976931345e308  # ``%.10g`` rounds this magnitude and above past the largest double


def format_float(value: float) -> str:
    """``%.10g``, or ``%.17g`` where ten digits would read back as infinite."""
    return "%.10g" % value if abs(value) < _TEN_DIGIT_LIMIT else "%.17g" % value


def float_column(values: np.ndarray) -> tuple[str, np.ndarray]:
    """The ``%`` conversion and column with which ``write_rows`` writes ``values`` as ``format_float`` does."""
    if (np.abs(values) < _TEN_DIGIT_LIMIT).all():
        return "%.10g", values
    return "%s", np.array([format_float(v) for v in values.tolist()], dtype=object)


def parse_float(cell: str) -> float:
    """A finite float cell; anything else raises ValueError."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def format_optional(value: float) -> str:
    """``format_float``, or an empty cell for NaN."""
    return "" if math.isnan(value) else format_float(value)


def parse_optional(cell: str) -> float:
    """``parse_float``, or NaN for an empty cell."""
    return parse_float(cell) if cell else math.nan


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_rows(path, header: Sequence[str], row_format: str, columns: Sequence[np.ndarray]) -> None:
    """Row ``i`` as ``row_format % (columns[0][i], columns[1][i], ...)``.

    ``row_format`` ends in ``\\r\\n`` and must write each cell as
    ``csv.writer`` would: the caller quotes text cells that need it.
    """
    width, n = len(columns), len(columns[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            cells: list = [None] * ((hi - lo) * width)
            for j, col in enumerate(columns):
                cells[j::width] = col[lo:hi].tolist()
            fh.write(row_format * (hi - lo) % tuple(cells))


def read_plain_table(path, header: Sequence[str], n_text: int):
    """``(text, numbers)`` of a plain file whose header starts with ``header``.

    ``text`` holds the UTF-8 bytes of the first ``n_text`` cells of
    every row, one 1-D bytes array per column, each only as wide as its
    longest cell; ``numbers`` holds the rest as floats, an (n_rows, k)
    array.  None when the file is not plain: undecodable, holding a
    quote or a NUL, with a line end other than all ``\\r\\n`` or all
    ``\\n``, a line longer than the ``csv`` field limit, a header that
    does not match, no rows, a row of another width (a blank line
    included), or a cell that does not parse.  What comes back is
    exactly what ``read_table`` would have split; numbers are not
    checked for finiteness.
    """
    try:
        with open(path, newline="") as fh:
            # decoded as the row parser decodes it; commas and line ends are single bytes in UTF-8
            raw = fh.read().encode()
    except UnicodeDecodeError:
        return None
    crlf = b"\r" in raw
    if b'"' in raw or b"\0" in raw or (crlf and not raw.count(b"\r") == raw.count(b"\r\n") == raw.count(b"\n")):
        return None
    end = raw.find(b"\n")
    if end < 0:
        return None
    found = raw[: end - crlf].decode().split(",")
    if found[: len(header)] != list(header):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if raw[-1:] != b"\n":
        ends = np.append(ends, data.size)  # a last row without a line end
    commas = np.flatnonzero(data == ord(","))
    width = len(found)
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    if ends.size < 2 or (per_line[1:] != width - 1).any() or np.diff(ends, prepend=-1).max() > csv.field_size_limit():
        return None
    # cell j of a row lies between bounds j and j + 1: the line end before it, its commas, its
    # line end (past any \r, so a column's width may come out one too large, never too small)
    bounds = [ends[:-1], *commas[width - 1 :].reshape(-1, width - 1).T, ends[1:]]
    fields = [(f"t{j}", f"S{max(int((bounds[j + 1] - bounds[j]).max()) - 1, 1)}") for j in range(n_text)]
    if width > n_text:
        fields.append(("numbers", np.float64, (width - n_text,)))
    # latin-1 maps each byte to one character and back, so a bytes cell keeps its UTF-8 bytes (one
    # byte a character, not four) and a float cell with a non-ASCII byte fails to parse
    options = dict(delimiter=",", comments=None, quotechar=None, skiprows=1, ndmin=1, encoding="latin-1")
    try:
        table = np.loadtxt(io.BytesIO(raw), dtype=np.dtype(fields), **options)
    except ValueError:
        return None
    text = [table[f"t{j}"] for j in range(n_text)]
    numbers = np.ascontiguousarray(table["numbers"]) if width > n_text else np.empty((table.size, 0))
    return text, numbers


def read_table(path, header: Sequence[str], parse_row: Callable, *, prefix=False, unique=None) -> list:
    """``parse_row`` of every row under a checked header.

    The header must equal ``header`` (start with it if ``prefix``), rows
    must be as wide as it, and column ``unique`` must not repeat.  A
    ValueError raised for a row is re-raised as ``{path}: line N: ...``,
    and bytes that are not UTF-8 as ``{path}: not valid UTF-8 (...)``
    (text is decoded in blocks, so without a line number).
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            if found is None:
                raise ValueError(f"{path}: empty file")
            if (found[: len(header)] if prefix else found) != list(header):
                raise ValueError(f"{path}: malformed header {found!r}")
            key = None if unique is None else found.index(unique)
            seen: set[str] = set()
            out = []
            for lineno, row in enumerate(reader, start=2):
                try:
                    if len(row) != len(found):
                        raise ValueError(f"expected {len(found)} fields, got {len(row)}")
                    if key is not None:
                        if row[key] in seen:
                            raise ValueError(f"repeated {unique} {row[key]!r}")
                        seen.add(row[key])
                    out.append(parse_row(row))
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc.reason}, byte 0x{exc.object[exc.start]:02x})") from None
    return out


def write_fields(path, fields: Sequence[tuple], table) -> None:
    """A file of the ``(name, format, parse)`` ``fields``: column ``name`` is ``table[name]``, each cell ``format``-ed."""
    cells = [map(fmt, table[name].tolist()) for name, fmt, _ in fields]
    write_table(path, [name for name, _, _ in fields], zip(*cells))


def read_fields(path, fields: Sequence[tuple], finish: Callable = dict, *, unique=None) -> list:
    """``finish`` of each row of a ``fields`` file, as a dict of every cell's ``parse``, under ``read_table``'s checks."""
    def parse_row(row: list[str]):
        return finish({name: parse(cell) for (name, _, parse), cell in zip(fields, row)})

    return read_table(path, [name for name, _, _ in fields], parse_row, unique=unique)


def write_json(path, payload) -> None:
    """Sorted keys, two-space indent, and a final newline; NaN and infinities are refused."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"  # before the open, so a failure leaves no partial file
    with open(path, "w") as fh:
        fh.write(text)
