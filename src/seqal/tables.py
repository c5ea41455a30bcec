"""The one CSV format every file seqal writes shares, and its row reader.

A table is a header row then data rows, in ``csv.writer``'s default dialect:
comma-separated, minimal quoting, every line ended by CRLF. A float cell is
written at six decimals and a missing value as an empty cell; trace files,
which must replay bit for bit, write full ``repr`` floats instead.
surrogate.write_traces writes trace.csv in this dialect without csv.writer
and reads it by columns; a trace.csv in another shape reads via parsed_rows.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable

from .errors import TraceError


def write_table(path: Path | str, header: Iterable, rows: Iterable[Iterable]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cell(value: float | None) -> str:
    return "" if value is None else "%.6f" % value


def unit(raw: str) -> float:
    """A probability or mAP cell; a non-finite value or one outside [0, 1]
    raises ValueError, which parsed_rows reports as a bad field."""
    if not 0.0 <= (value := float(raw)) <= 1.0:
        raise ValueError(raw)
    return value


def optional_unit(raw: str) -> float | None:
    return unit(raw) if raw else None


def hours(raw: str) -> float:
    """A finite cost cell >= 0."""
    if not 0.0 <= (value := float(raw)) < math.inf:
        raise ValueError(raw)
    return value


def count(raw: str) -> int:
    if (value := int(raw)) < 0:
        raise ValueError(raw)
    return value


def parsed_rows(path: Path | str, fields, unique: int = 0):
    """Each data row of a run's CSV file (a trace or records.csv) as a list
    of parsed fields. A missing column, a short row or an unparsable field
    raises TraceError naming the file, the line and the field; a byte that
    is not UTF-8 raises TraceError naming the file. With unique=k, a row
    whose first k fields repeat an earlier row's raises TraceError naming
    the file and its line."""
    seen = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for name, _ in fields:
                if name not in header:
                    raise TraceError(f"{path} line 1: no {name} column")
            columns = [(name, header.index(name), parse) for name, parse in fields]
            for row in filter(None, reader):
                values = []
                for name, index, parse in columns:
                    try:
                        values.append(parse(row[index]))
                    except IndexError:
                        raise TraceError(
                            f"{path} line {reader.line_num}: no {name} field"
                        ) from None
                    except ValueError:
                        raise TraceError(
                            f"{path} line {reader.line_num}: bad {name} {row[index]!r}"
                        ) from None
                key = tuple(values[:unique])
                if unique and key in seen:
                    named = ", ".join(f"{name} {v}" for (name, _), v in zip(fields, key))
                    raise TraceError(f"{path} line {reader.line_num}: repeats {named}")
                seen.add(key)
                yield values
        except UnicodeDecodeError:
            raise TraceError(f"{path}: not UTF-8 text") from None
        except csv.Error as exc:  # before Python 3.11, a NUL byte among others
            raise TraceError(f"{path} line {reader.line_num}: {exc}") from None
