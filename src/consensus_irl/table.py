"""The one CSV reader and the one CSV writer: typed columns in, typed columns out;
and the one JSON reader and the one JSON writer.

Trajectories, raw records, prepared rows, scores and labels are CSVs whose
owner column (trajectory_id or subject_id) groups the rows. read_table parses
one with np.loadtxt, numbers the owners in sorted id order, whatever order
their rows come in, sorts each owner's rows, and checks that the columns
holding one value per owner agree on all of its rows. One grammar per
kind of cell: an integer is what np.loadtxt reads into int64 or int32 (ASCII
digits, an optional sign and surrounding whitespace, within the type's range:
int32 for the trajectory steps and ids), and a number what it reads into
float64; a finite number is a finite such float, and an optional one
may be empty (NaN, missing); a flag is empty, 0 or 1; a binary cell is the
integer 0 or 1; a text cell is anything, and an empty one is missing (None).
Every row has the header's number of fields, and blank lines are skipped.
Parsing works on whole columns; only when it fails does a scan of the file find
the first bad cell in file order, for one error:
"{path}: {owner} {id}: {column} {cell!r} is not {kind}".

Cells whose text repeats are parsed as codes: the owner ids, text, flag and
optional-number columns and the columns nobody reads come out of np.loadtxt as
int32 codes of their distinct texts, numbered in order of first appearance by
the C-level __getitem__ of a dict (_Codes). A column then holds one str per
distinct cell, not one per row. Each kind converts a column's distinct texts
once and its rows gather the result by code; the owners are numbered from their
sorted distinct ids, in place over their codes. A binary cell is parsed as int8.
Every column returned is its own contiguous array, in owner then sort order,
whatever order the file's rows come in.

The rows are parsed _READ_BLOCK at a time, each np.loadtxt call reading on
from the same handle, and copied into columns allocated once, as long as a
first binary pass over the file counts line breaks; once parsed, each column
shrinks in place to the rows read (ndarray.resize, no copy). A read thus holds
its columns and one block's parse, not a whole-file parse beside them; a column
it does not read is checked but not kept. Columns named in stack (the
trajectory triples, INT32) are parsed block by block in their kind's dtype,
so the grammar and every message stay the kind's, and copied into one (n, k)
array held as narrow as the values allow: int16 while every value read fits
int16, and from the first block holding one that does not, the kind's dtype,
into which the rows read so far are copied once. After the parse come the
owners' numbers and row counts, a block at a time, and, unless the rows
already come in (owner, sort key) order (_in_order: owner numbers never
decrease, and within an owner the key never does), the sort order and one
column's sorted copy at a time.
Rows already in that order are where a stable sort would leave them, so
skipping it gives the same table; the package's own writers write every file
in that order.

write_blocks writes every CSV the package makes, the same bytes csv.writer
would, from blocks of rows, each block one column per field (write_table: one
block of whole columns). A block's cells are made from that block alone, as a
cell's text depends only on its value and kind. An integer array's cells come
from one table of decimal strings: of every value from its least to its
greatest when that range is shorter than the column (states, actions, steps,
flags), so a cell is one subtraction and one lookup away with no sort;
otherwise of its distinct values (np.unique), since a timestamp column can
span 1e9. A bool array's cells are 0 and 1, as BINARY reads them. A float
array's cells are the repr of each value. Any other column holds text or None,
and each distinct value is quoted once by csv's own rule (quotes around a cell
holding a comma, a quote, CR or LF, with its quotes doubled), None being an
empty cell. Rows are joined into text 512 at a time (_BLOCK): a block's cell
strings are what the writer holds beyond the columns, and at 4,096 rows of a
scores table they raised a small pipeline's peak memory by most of a MiB.

read_json reads and write_json writes every JSON file but world.json, whose
kernel synth streams one state at a time through read_json's number hook. A
number is one RFC 8259 allows, within a double's range: NaN, Infinity and 1e999
are rejected, and a bad file is one error, "{path}: not valid JSON: {reason}".
write_json sorts keys and writes numpy arrays and scalars as lists and numbers.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from typing import Callable, NamedTuple

import numpy as np

from .errors import SchemaError


class Kind(NamedTuple):
    """How a column is read: np.loadtxt's field type, then its whole-column conversion."""

    name: str  # what an error says a bad cell is not
    dtype: type  # integer types and np.float64 parse natively; object reads the text as codes
    convert: Callable  # the parsed column, or its distinct texts -> values; None if one is bad


class _Codes(dict):
    """Each distinct text of a column -> its number, in order of first appearance.

    np.loadtxt calls the C-level __getitem__ per cell, so the column holds one
    str per distinct cell; only a new one reaches __missing__.
    """

    def __missing__(self, text):
        self[text] = code = len(self)
        return code


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
INT32 = Kind("an integer", np.int32, lambda v: v)  # an INTEGER within int32
NUMBER = Kind("a number", np.float64, lambda v: v)
FINITE = Kind("a finite number", np.float64, lambda v: v if np.isfinite(v).all() else None)
OPTIONAL = Kind("a finite number", object, _optional_numbers)
FLAG = Kind("empty, 0 or 1", object, _flags)
BINARY = Kind(  # an INTEGER within int8, which np.loadtxt parses with one byte a row
    "0 or 1", np.int8, lambda v: v.astype(bool) if ((v == 0) | (v == 1)).all() else None
)
TEXT = Kind("text", object, lambda v: np.where(v == "", None, v))
_ID = Kind("an id", object, lambda v: v)  # an empty id is an id


class Table(NamedTuple):
    """The owners' ids in sorted order and their row counts; each column read
    per row, the owners' rows one after the other; and each owned column's one
    value per owner, in ids order."""

    ids: list
    lengths: np.ndarray
    columns: dict
    owned: dict


_READ_BLOCK = 4096  # rows parsed per np.loadtxt call


def read_table(
    path, owner: str, kinds: dict, rest: Kind | None = None, optional=None, owned=(),
    sort_by=None, one_row=False, stack=(),
) -> Table:
    """Read the CSV at path, grouped by the owner column.

    kinds maps each required column to its Kind, and optional each column
    read if the header has it; every other column has the kind rest, or is
    not read when rest is None. Text columns and those named in owned hold one
    value per owner. Each owner's rows are sorted by the sort_by column, or
    kept in file order; with one_row, an owner may have only one. The required
    columns named in stack, of one kind that np.loadtxt parses natively, are
    parsed into one (n, len(stack)) array, columns[stack], held int16 while
    every value fits it when the kind is a wider integer. Errors name the
    owner by its column without `_id`.
    """
    bound = _line_breaks(path)  # a row takes at least one line, the header another
    with open(path, newline="", encoding="utf-8") as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            raise SchemaError(f"{path}: empty file")
        missing = [c for c in [owner, *kinds] if c not in header]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        kinds = {**{c: rest for c in header}, **(optional or {}), **kinds, owner: _ID}
        # every text column, read or not, is parsed as codes
        codes = {j: _Codes() for j, c in enumerate(header) if (kinds[c] or TEXT).dtype is object}
        fields = [
            (f"c{j}", np.int32 if j in codes else kinds[c].dtype) for j, c in enumerate(header)
        ]
        at = {c: j for j, c in enumerate(header)}  # a repeated column reads as its last copy
        # each column read is allocated once; the blocks are copied into it
        parsed = {
            j: np.empty(bound, fields[j][1]) for c, j in at.items() if kinds[c] and c not in stack
        }
        # stacked integers wider than int16 are held int16 while every value read fits
        wide = kinds[stack[0]].dtype if stack else None
        narrow = np.int16 if stack and np.dtype(wide).itemsize > 2 else wide
        stacked = np.empty((bound, len(stack)), narrow)
        converters = {j: texts.__getitem__ for j, texts in codes.items()}
        n_rows = 0
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data")
                # numpy releases that truncate "2.7" into an int64 warn: make that raise
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                while True:  # each call reads on from where the last one stopped
                    block = np.loadtxt(
                        fh, dtype=fields, delimiter=",", comments=None, quotechar='"', ndmin=1,
                        converters=converters,
                        encoding=None,  # numpy 1.x's default, 'bytes', hands converters bytes
                        max_rows=_READ_BLOCK,  # blank lines do not count toward it
                    )
                    for j, values in parsed.items():
                        values[n_rows : n_rows + len(block)] = block[f"c{j}"]
                    block_ids = [block[f"c{at[c]}"] for c in stack]
                    if stacked.dtype != wide and not all(_fits(v, narrow) for v in block_ids):
                        stacked = _widen(stacked, n_rows, wide)  # once, at the first such block
                    for i, values in enumerate(block_ids):
                        stacked[n_rows : n_rows + len(block), i] = values
                    n_rows += len(block)
                    if len(block) < _READ_BLOCK:
                        break
        except ValueError as exc:
            raise _bad_cell(path, header, kinds, owner, exc) from None
    del block, block_ids  # no view of a column is left, so each shrinks in place to the rows read
    for values in [stacked, *parsed.values()]:
        values.resize((n_rows, *values.shape[1:]), refcheck=False)
    owner_codes = parsed.pop(at[owner])
    columns = {}
    for column, j in at.items():
        if j in parsed:  # a coded column converts each distinct text once; its rows gather by code
            texts = codes.get(j)
            values = kinds[column].convert(
                parsed.pop(j) if texts is None else np.array(list(texts), dtype=object)
            )
            if values is None:
                raise _bad_cell(path, header, kinds, owner, f"a bad {column} cell")
            columns[column] = values if texts is None else values[parsed.pop(j)]
    if stack:
        columns[stack] = kinds[stack[0]].convert(stacked)
        if columns[stack] is None:
            raise _bad_cell(path, header, kinds, owner, f"a bad {stack[0]} cell")
    del stacked

    # the owners numbered in sorted id order, from their distinct ids
    label, distinct = owner.removesuffix("_id"), list(codes[at[owner]])
    ranked = sorted(range(len(distinct)), key=distinct.__getitem__)
    ids, who = [distinct[i] for i in ranked], owner_codes
    lengths = _number_owners(who, np.argsort(ranked).astype(np.int32))
    del owner_codes
    if one_row and (lengths > 1).any():
        raise SchemaError(f"{path}: {label} {ids[np.argmax(lengths > 1)]}: more than one row")
    if not _in_order(who, columns[sort_by] if sort_by else None):
        order = np.lexsort((columns[sort_by], who) if sort_by else (who,))
        del who
        for column in columns:  # one at a time: each old copy goes when replaced
            columns[column] = columns[column][order]
        del order
        who = np.repeat(np.arange(len(ids)), lengths)  # each row's owner, now in owner order
    shared = {c: columns.pop(c) for c in list(columns) if c in owned or kinds.get(c) is TEXT}
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


def _number_owners(who, rank) -> np.ndarray:
    """Renumber the owner codes who in place, each code c becoming rank[c], and
    count each owner's rows: a block at a time, as take and bincount convert
    their input to intp, and a block's counts start at its least owner."""
    lengths = np.zeros(len(rank), dtype=np.intp)
    for lo in range(0, len(who), _READ_BLOCK):
        block = who[lo : lo + _READ_BLOCK]
        np.take(rank, block, out=block, mode="clip")
        least = block.min()
        counts = np.bincount(block - least)
        lengths[least : least + len(counts)] += counts
    return lengths


def _fits(values, dtype) -> bool:
    """Whether every one of the integers values lies within dtype's range."""
    limits = np.iinfo(dtype)
    return not len(values) or (limits.min <= values.min() and values.max() <= limits.max)


def _widen(stacked, n_rows: int, dtype):
    """A new array of stacked's shape and the given dtype, its first n_rows rows
    those of stacked."""
    wide = np.empty(stacked.shape, dtype)
    wide[:n_rows] = stacked[:n_rows]
    return wide


def _in_order(who, key) -> bool:
    """Whether the stable lexsort by owner, then key, would leave every row in place:
    the owner numbers never decrease, and within an owner the key never does."""
    if not (who[1:] >= who[:-1]).all():
        return False
    return key is None or bool(((who[1:] > who[:-1]) | (key[1:] >= key[:-1])).all())


def _line_breaks(path) -> int:
    """How many line breaks the file holds, a CR LF, a lone CR or a lone LF each
    counting one, as the reader splits lines: one binary pass, 256 KiB at a time."""
    count, cr_last = 0, False
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 18), b""):
            text = np.frombuffer(chunk, dtype=np.uint8)
            cr, lf = text == 13, text == 10
            count += np.count_nonzero(cr) + np.count_nonzero(lf)
            count -= np.count_nonzero(cr[:-1] & lf[1:]) + (cr_last and lf[0])
            cr_last = cr[-1]
    return int(count)


def _accepts(kind: Kind, cell: str) -> bool:
    """Whether a column of kind takes this one cell: the whole-column rule, cell by cell."""
    try:
        if kind.dtype is not object:  # as np.loadtxt parses numbers
            if not cell.isascii() or "_" in cell:
                return False
            if np.issubdtype(kind.dtype, np.integer):  # the integer grammar, in the dtype's range
                cell, limits = int(cell), np.iinfo(kind.dtype)
                if not limits.min <= cell <= limits.max:
                    return False
            else:
                cell = float(cell)
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


_BLOCK = 512  # rows joined into one string per write


def _text_cell(value) -> str:
    """A cell as csv.writer writes it in the excel dialect: None is empty, and a
    cell holding a comma, quote, CR or LF is quoted with its quotes doubled."""
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(column, width: int):
    """The function of (lo, hi) that gives the CSV cells of rows lo..hi-1 of column."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "b":
        column = column.astype(np.int64)  # a flag is 0 or 1
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        low, high = (int(column.min()), int(column.max())) if len(column) else (0, -1)
        if high - low < len(column):  # a table of the range is no longer than the column
            decimals = np.array(list(map(str, range(low, high + 1))), dtype=object)
            return lambda lo, hi: decimals[column[lo:hi] - low].tolist()
        distinct, index = np.unique(column, return_inverse=True)
        decimals = np.array(list(map(str, distinct.tolist())), dtype=object)
        return lambda lo, hi: decimals[index[lo:hi]].tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return lambda lo, hi: list(map(repr, column[lo:hi].tolist()))
    text = {value: _text_cell(value) for value in dict.fromkeys(column)}
    if width == 1:  # csv quotes a row that is one empty cell, so that it is not blank
        text = {value: cell or '""' for value, cell in text.items()}
    return lambda lo, hi: list(map(text.__getitem__, column[lo:hi]))


def write_table(path, header, columns, note=None) -> None:
    """Write a CSV: an optional `# note` line, the header, then one row per
    position of the columns, each cell formatted by its column's kind (see above).
    """
    _block_rows(path, header, columns)  # a bad table raises before the file is opened
    write_blocks(path, header, [columns], note)


def write_blocks(path, header, blocks, note=None) -> None:
    """write_table's file from an iterable of blocks of rows, each block one column
    per header field: the bytes of one call on the blocks' columns joined end to
    end, as every cell's text depends on its value and kind alone."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if note:
            fh.write(f"# {note}\n")
        fh.write(",".join(_cells(header, len(header))(0, len(header))) + "\r\n")  # text cells
        for columns in blocks:
            n_rows = _block_rows(path, header, columns)
            cells = [_cells(column, len(header)) for column in columns]
            for lo in range(0, n_rows, _BLOCK):
                hi = min(lo + _BLOCK, n_rows)
                fh.write("\r\n".join(map(",".join, zip(*(cell(lo, hi) for cell in cells)))))
                fh.write("\r\n")
            del columns, cells  # the next block is built once this one is gone


def _block_rows(path, header, columns) -> int:
    """The number of rows of a block of columns; ValueError unless it has one column
    per header field, all of one length."""
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(
            f"{path}: {len(header)} header fields but {len(columns)} columns "
            f"of lengths {sorted(lengths)}; need one column per field, all one length"
        )
    return lengths.pop() if lengths else 0


def finite_number(literal: str) -> float:
    """json's parse_float and parse_constant hook: the literal's float, which must be
    finite, so NaN, Infinity, -Infinity and a literal such as 1e999 are rejected."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def read_json(path, expect=dict):
    """The JSON value in the file at path; SchemaError, naming the file, unless it
    is JSON and an expect (dict or list). An OSError passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh, parse_float=finite_number, parse_constant=finite_number)
        except ValueError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(value, expect):
        raise SchemaError(f"{path}: must hold a JSON {'object' if expect is dict else 'list'}")
    return value


def _plain(value):
    """json's default hook: a numpy array as its nested lists, a numpy scalar as its number."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path, payload, indent=2) -> None:
    """payload as JSON with sorted keys, so equal payloads give equal bytes;
    indent None writes it on one line."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=indent, sort_keys=True, default=_plain)
