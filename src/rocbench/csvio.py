"""The one codec for the package's CSV and JSON interchange files.

A CSV file is a header row and one record per row in the ``csv`` default
dialect (``\\r\\n`` row ends), floats ``%.10g`` unless a writer formats
them itself.  Readers name the file and the line of a row they reject.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Callable, Iterable, Sequence


def format_float(value: float) -> str:
    return "%.10g" % value


def parse_float(cell: str) -> float:
    """A finite float cell; anything else raises ValueError."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric value {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def write_json(path, payload) -> None:
    """Sorted keys, two-space indent, and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
