"""The one CSV reader: typed columns, with owners numbered by first appearance.

Trajectories, raw records, prepared rows, scores and labels are CSVs whose
owner column (trajectory_id or subject_id) groups the rows. read_table parses
one with a single np.loadtxt call, numbers the owners in the order their ids
first appear, sorts each owner's rows, and checks that the columns holding one
value per owner agree on all of its rows. One grammar per kind of cell: an
integer is what np.loadtxt reads into int64 (ASCII digits, an optional sign and
surrounding whitespace, within int64) and a number what it reads into float64;
a finite number is a finite such float, and an optional one may be empty (NaN,
missing); a flag is empty, 0 or 1; a binary cell is the integer 0 or 1; a text
cell is anything, and an empty one is missing (None). Every row has the
header's number of fields, and blank lines are skipped. Parsing works on whole
columns; only when it fails does a scan of the file find the first bad cell in
file order, for one error: "{path}: {owner} {id}: {column} {cell!r} is not {kind}".
"""

from __future__ import annotations

import csv
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError


class Kind(NamedTuple):
    """How a column is read: np.loadtxt's field type, then its whole-column conversion."""

    name: str  # what an error says a bad cell is not
    dtype: type  # np.int64 and np.float64 parse natively; object reads the text
    convert: Callable  # the parsed column -> its values, or None if a cell is bad


def _optional_numbers(text):
    """NaN for an empty cell, the float of any other; None unless those are all finite."""
    empty = text == ""
    given = text[~empty].tolist()
    joined = "".join(given)
    if not joined.isascii() or "_" in joined:  # what np.loadtxt would reject
        return None
    values = np.full(len(text), np.nan)
    try:
        values[~empty] = np.fromiter(map(float, given), dtype=np.float64, count=len(given))
    except ValueError:
        return None
    return values if np.isfinite(values[~empty]).all() else None


def _flags(text):
    unset, values = (text == "") | (text == "0"), text == "1"
    return values if (unset | values).all() else None


INTEGER = Kind("an integer", np.int64, lambda v: v)
NUMBER = Kind("a number", np.float64, lambda v: v)
FINITE = Kind("a finite number", np.float64, lambda v: v if np.isfinite(v).all() else None)
OPTIONAL = Kind("a finite number", object, _optional_numbers)
FLAG = Kind("empty, 0 or 1", object, _flags)
BINARY = Kind(
    "0 or 1", np.int64, lambda v: v.astype(bool) if ((v == 0) | (v == 1)).all() else None
)
TEXT = Kind("text", object, lambda v: np.where(v == "", None, v))
_ID = Kind("an id", object, lambda v: v)  # an empty id is an id


class Table(NamedTuple):
    """The owners' ids by first appearance and their row counts; each column read
    per row, the owners' rows one after the other; and each owned column's one
    value per owner, in ids order."""

    ids: list
    lengths: np.ndarray
    columns: dict
    owned: dict


def read_table(
    path, owner: str, kinds: dict, rest: Kind | None = None, optional=None, owned=(),
    sort_by=None, one_row=False,
) -> Table:
    """Read the CSV at path, grouped by the owner column.

    kinds maps each required column to its Kind, and optional each column
    read if the header has it; every other column has the kind rest, or is
    not read when rest is None. Text columns and those named in owned hold one
    value per owner. Each owner's rows are sorted by the sort_by column, or
    kept in file order; with one_row, an owner may have only one. Errors name
    the owner by its column without `_id`.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        missing = [c for c in [owner, *kinds] if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        kinds = {**{c: rest for c in header}, **(optional or {}), **kinds, owner: _ID}
        dtype = [(f"c{j}", (kinds[c] or TEXT).dtype) for j, c in enumerate(header)]
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                # numpy releases that truncate "2.7" into an int64 warn: make that raise
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                table = np.loadtxt(
                    fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1
                )
        except ValueError as exc:
            raise _bad_cell(path, header, kinds, owner, exc) from None
    # a repeated column reads as its last copy
    columns = {c: table[f"c{j}"] for j, c in enumerate(header) if kinds[c]}
    for column, values in columns.items():
        columns[column] = kinds[column].convert(values)
        if columns[column] is None:
            raise _bad_cell(path, header, kinds, owner, f"a bad {column} cell")

    owners, label = columns.pop(owner), owner.removesuffix("_id")
    ids = list(dict.fromkeys(owners))
    number = {t: i for i, t in enumerate(ids)}
    who = np.fromiter(map(number.__getitem__, owners), dtype=np.int64, count=len(owners))
    lengths = np.bincount(who, minlength=len(ids))
    if one_row and (lengths > 1).any():
        raise SchemaError(f"{path}: {label} {ids[np.argmax(lengths > 1)]}: more than one row")
    order = np.lexsort((columns[sort_by], who) if sort_by else (who,))
    who, columns = who[order], {c: v[order] for c, v in columns.items()}
    shared = {c: columns.pop(c) for c in list(columns) if kinds[c] is TEXT or c in owned}
    for column, value in shared.items():
        differs = (who[1:] == who[:-1]) & (value[1:] != value[:-1])
        if differs.any():
            i = np.argmax(differs)
            raise SchemaError(
                f"{path}: {label} {ids[who[i]]}: {column} differs between rows "
                f"{value[i : i + 2].tolist()}; a {label} has one value"
            )
    firsts = np.cumsum(lengths) - lengths
    return Table(ids, lengths, columns, {c: v[firsts] for c, v in shared.items()})


def _accepts(kind: Kind, cell: str) -> bool:
    """Whether a column of kind takes this one cell: the whole-column rule, cell by cell."""
    try:
        if kind.dtype is not object:  # as np.loadtxt parses numbers
            if not cell.isascii() or "_" in cell:
                return False
            cell = (int if kind.dtype is np.int64 else float)(cell)
        return kind.convert(np.array([cell], dtype=kind.dtype)) is not None
    except (ValueError, OverflowError):
        return False


def _bad_cell(path, header, kinds, owner, reason) -> SchemaError:
    """The error naming the first row, in file order, that is too long or too short
    (with the first column it lacks), or else the first cell its kind rejects;
    failing both, the reason parsing failed."""
    at, label = header.index(owner), owner.removesuffix("_id")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if row)
        next(rows)  # the header
        for row in rows:
            who = f"{path}: {label} {row[at] if at < len(row) else ''}"
            if len(row) != len(header):
                gap = f"{header[len(row)]} is missing: " if len(row) < len(header) else ""
                return SchemaError(
                    f"{who}: {gap}a row has {len(row)} fields, not the header's {len(header)}"
                )
            for column, cell in zip(header, row):
                if kinds[column] and not _accepts(kinds[column], cell):
                    return SchemaError(f"{who}: {column} {cell!r} is not {kinds[column].name}")
    return SchemaError(f"{path}: {reason}")


def write_table(path, header, rows, note=None) -> None:
    """Write a CSV: an optional `# note` line, the header, then the rows.

    csv writes None as an empty cell, which read_table takes for a missing value.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if note:
            fh.write(f"# {note}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
