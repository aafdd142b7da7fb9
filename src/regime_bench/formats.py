"""The file envelope shared by every versioned JSON file and every CSV file.

A JSON document is an object whose first key is ``schema_version``,
written with ``indent=2`` and a trailing newline. A CSV file starts with a
fixed header row. Readers name the file in every error they raise.

There is one reader loop per file shape, and it owns the error contract.
``read_csv`` checks the header, skips blank rows, checks each row's field
count and hands the row to the caller's ``parse``; every error it raises or
passes on reads ``<path>: line N: ...``, the ``csv`` module's own included.
``read_records`` checks a JSON document's record list and labels and hands
each record to the caller's ``parse``; every record error reads
``<path>: <list>[i]: ...``, and ``record_field`` checks a field's JSON type.

Every CSV file is written through ``write_lines``, or through ``line_file``
where one pass fills two files, each id and method passed through
``quote``, byte for byte as the ``csv`` module writes it. The
large CSV files also have a column path: ``read_columns`` reads a file in
canonical form block by block into arrays and declines anything else, ids
that need quoting included. The caller's row reader reads what it declines,
so every error that names a line comes from ``read_csv``. Each file is
parsed once per content: ``read_columns`` keeps its results in a cache
directory keyed by a hash of the file's bytes and of this module's code, and
serves a repeat read from there with the same arrays. A caller may pass a
``Finish``, what it makes of the arrays; then that is what is cached.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, RegimeBenchError

try:
    from _blake2 import blake2b  # hashlib would also map OpenSSL: megabytes of RSS
except ImportError:  # an interpreter built without the module
    from hashlib import blake2b

SCHEMA_VERSION = 1
JSON_BATCH = 4096  # encoder chunks joined per write: fewer calls than one each, little held


def write_json(path, doc: dict) -> None:
    """Write doc as a versioned JSON document, ``schema_version`` first.

    The bytes are ``json.dumps(doc, indent=2)`` and a newline, encoded and
    written JSON_BATCH chunks at a time, so the whole text is never held.
    """
    chunks = json.JSONEncoder(indent=2).iterencode({"schema_version": SCHEMA_VERSION, **doc})
    with Path(path).open("w") as fh:
        for batch in iter(lambda: list(islice(chunks, JSON_BATCH)), []):
            fh.write("".join(batch))
        fh.write("\n")


def read_json(path, error=ParseError) -> dict:
    """Read a versioned JSON document.

    Invalid JSON (``NaN``, ``Infinity`` and ``-Infinity`` included, and so
    are bytes that are not UTF-8, an integer over Python's digit limit and
    nesting past the recursion limit), a document that is not an object and
    an unsupported ``schema_version`` all raise ``error`` with the path in
    its message.
    """

    def reject_constant(name):
        raise error(f"{path}: invalid JSON: non-finite number {name}")

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=reject_constant)
    except (ValueError, RecursionError) as exc:  # ValueError covers the decode errors
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise error(f"{path}: unsupported schema {doc.get('schema_version')!r}")
    return doc


def read_records(path, name: str, parse, labels=()) -> tuple[dict, list]:
    """Read a versioned JSON document whose ``name`` key holds a list of records.

    Returns the document's other keys and ``parse(record)`` of each record.
    A missing or non-list ``name`` and a label in ``labels`` that is present
    but not a string raise ParseError naming the file. A record that is not
    an object raises ParseError ``<path>: <name>[i]: expected an object, got
    <type>``. A RegimeBenchError from ``parse`` comes back as ParseError
    ``<path>: <name>[i]: <message>``; a KeyError or TypeError, from indexing
    a record that lacks a field, as ``<path>: <name>[i]: missing or
    malformed field: ...``.
    """
    doc = read_json(path)
    records = doc.pop(name, None)
    if not isinstance(records, list):
        raise ParseError(f"{path}: {name!r} must be a list of records")
    for label in labels:
        if not isinstance(doc.get(label, ""), str):
            raise ParseError(f"{path}: {label!r} must be a string")
    parsed = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: {name}[{i}]: expected an object, got {type(rec).__name__}")
        try:
            parsed.append(parse(rec))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: {name}[{i}]: missing or malformed field: {exc}") from exc
        except RegimeBenchError as exc:
            raise ParseError(f"{path}: {name}[{i}]: {exc}") from exc
    return doc, parsed


def record_field(rec, name: str, kind):
    """rec[name] when it is an instance of kind and not a bool, else ParseError naming it."""
    value = rec[name]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"missing or malformed field: {name!r}")
    return value


def read_csv(path, header: list[str], parse) -> None:
    """Check the header, then call ``parse(row)`` on each data row.

    Empty rows and whitespace-only single-field rows are skipped; every
    other row must have one field per header column. Line numbers count
    the header as line 1. A RegimeBenchError from ``parse`` comes back as
    its own type with the message ``<path>: line N: <message>``; so do a
    wrong field count, a ``csv`` module error such as a field over its size
    limit, and bytes that do not decode, each as ParseError.
    """
    line_no = 0  # records read so far, the header included
    with Path(path).open(newline="") as fh:
        rows = csv.reader(fh)
        try:
            first = next(rows, None)
            line_no = 1
            if first is None or [h.strip() for h in first] != header:
                raise ParseError(f"expected header {','.join(header)}")
            for line_no, row in enumerate(rows, start=2):
                if row and (len(row) > 1 or row[0].strip()):
                    if len(row) != len(header):
                        raise ParseError(f"expected {len(header)} fields, got {len(row)}")
                    parse(row)
        except RegimeBenchError as exc:
            raise type(exc)(f"{path}: line {line_no}: {exc}") from exc
        except csv.Error as exc:  # raised while reading the record after line_no
            raise ParseError(f"{path}: line {line_no + 1}: {exc}") from exc
        except UnicodeDecodeError as exc:
            # the decoder reads ahead of the rows, so scan the bytes again for the first
            # line that does not decode: the one that dropping its bad bytes changes
            with Path(path).open("rb") as data:
                line_no = next(n for n, raw in enumerate(data, start=1)
                               if raw.decode(exc.encoding, "ignore").encode(exc.encoding) != raw)
            raise ParseError(f"{path}: line {line_no}: not {exc.encoding} text") from exc


def plain(texts) -> bool:
    """True when the csv module writes every text as is: none holds ',', '"', '\\r' or '\\n'."""
    return not any(c in text for text in texts for c in ',"\r\n')


def quote(text: str) -> str:
    """text as the csv module writes a field: quoted, inner '"' doubled, unless it is plain."""
    return text if plain((text,)) else '"' + text.replace('"', '""') + '"'


@contextmanager
def line_file(path, header: list[str]):
    """An open text file for CSV lines, its header row written; lines end in ``\\r\\n``."""
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        yield fh


def write_lines(path, header: list[str], chunks) -> None:
    """Write the header row, then each chunk of lines formatted by the caller.

    Each line ends in ``\\r\\n``, as the csv module ends them; callers pass
    every text field through ``quote``, so the bytes equal the csv module's.
    """
    with line_file(path, header) as fh:
        fh.writelines(chunks)


BLOCK_BYTES = 1 << 17  # larger blocks read no faster and leave the allocator more to keep
MAX_FIELD_BYTES = 64  # bounds the (lines, width) cells gathered for each field of a block
CACHE_BYTES = 256 << 20  # read_columns' cache directory holds at most this much

# bytes a canonical file never holds: non-ASCII, NUL, '"', and what str.strip removes
# apart from the line ends, which the block parser checks itself
_FORBIDDEN = np.zeros(256, dtype=bool)
_FORBIDDEN[0x80:] = True
_FORBIDDEN[[0x00, 0x09, 0x0B, 0x0C, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x22]] = True


class Finish(NamedTuple):
    """What a caller makes of read_columns' table and runs, cached in their place.

    make(table, runs) returns (doc, array): a JSON object and a float64
    array that together hold the caller's result, or None to decline the
    file. load(doc, array) returns that result, or None when the two fail
    the caller's checks. The cache key also holds params and the code of
    the module at path source, so an entry holds for that code and those
    parameters only.
    """

    source: str | None
    params: tuple
    make: Callable
    load: Callable


def read_columns(path, header: list[str], kinds: str, finish: Finish | None = None):
    """Read a CSV file in canonical form as arrays; None when it is not canonical.

    kinds has one letter per column: "t" text, "i" integer, "f" float. The
    integer and float columns fill one float64 table, in column order, with
    NaN for an empty float field; each text column comes back as a list of
    ``(value, first_row)`` runs of equal consecutive values. So the result
    is ``(table, [runs, ...])``. The table is the caller's own: writable,
    and shared with no other call.

    Canonical form: the exact header; lines ending in ``\\n`` or ``\\r\\n``,
    the last one optionally unterminated; at least one data line and no
    blank line; ASCII only, with no '"', NUL or byte that str.strip removes;
    exactly one comma per column boundary on every line; fields of at most
    64 bytes; non-empty text and integer fields. Numbers are cast by numpy,
    which calls the int() and float() of the row readers; a float field
    that reads as NaN and an integer beyond 2**53 are not canonical, since
    the table could not tell them from an empty field or hold them exactly.
    A file in that form reads to the same values through csv.reader.

    With finish, the result is ``finish.load(*finish.make(table, runs))``
    instead, and None when make declines or load fails; that result, or the
    decline, is what is cached.

    The file is read once to hash its bytes. A result cached under that
    hash is returned as it was stored, once load accepts it (see
    ``_cache_dir``); otherwise the file's lines are counted and it is read
    again in blocks of 128 KiB parsed into the preallocated table, so
    memory stays at the table plus one block's temporaries, and a canonical
    file's result is cached.
    """
    if finish is None:
        finish = Finish(None, (), _table_doc, partial(_table_of, kinds))
    code = Path(__file__).read_bytes()
    if finish.source:
        code += Path(finish.source).read_bytes()
    try:
        with Path(path).open("rb") as fh:
            # an entry holds for this module's code and the caller's, numpy's version and
            # byte order, the header, the kinds, the caller's parameters and the file's bytes
            key = blake2b(repr((np.__version__, sys.byteorder, header, kinds, finish.params))
                          .encode(), key=blake2b(code).digest(), digest_size=20)
            for block in iter(lambda: fh.read(BLOCK_BYTES), b""):
                key.update(block)
            cache = _cache_dir()
            entry = cache / key.hexdigest() if cache else None
            stored = _load_entry(entry) if entry else None
            if stored is _DECLINED:
                return None
            if stored is not None and (result := finish.load(*stored)) is not None:
                return result
            columns = _parse(fh, ",".join(header).encode(), kinds)
    except OSError:
        return None
    if columns is None:
        return None
    stored = finish.make(*columns)
    del columns  # so that the table, unless make's result holds it, is freed before load
    result = None if stored is None else finish.load(*stored)
    if entry:
        _store_entry(entry, None if result is None else stored)
    return result


_DECLINED = object()  # a cached decline: a canonical file that the caller declined


def _table_doc(table, runs):
    """read_columns' own result as an entry's (doc, array)."""
    return {"runs": runs}, table


def _table_of(kinds: str, doc: dict, table: np.ndarray):
    """(table, runs) from an entry's (doc, array); None unless they fit kinds."""
    try:
        runs = [[(text, row) for text, row in column] for column in doc["runs"]]
    except (KeyError, TypeError, ValueError):
        return None
    if table.ndim != 2 or table.shape[1] != len(kinds) - kinds.count("t") \
            or len(runs) != kinds.count("t"):
        return None
    return table, runs


def _parse(fh, head: bytes, kinds: str):
    """(table, runs) of the canonical file open in fh, or None: counts its lines,
    allocates the table, then parses the file into it block by block."""
    fh.seek(0)
    if fh.readline(len(head) + 2) not in (head + b"\n", head + b"\r\n"):
        return None
    body = fh.tell()
    lines = sum(block.count(b"\n") for block in iter(lambda: fh.read(BLOCK_BYTES), b""))
    fh.seek(body)
    table = np.empty((lines + 1, kinds.count("i") + kinds.count("f")))
    runs = [[] for _ in range(kinds.count("t"))]
    filled, carry = 0, b""
    while True:
        data = fh.read(BLOCK_BYTES)
        buf = carry + data
        cut = buf.rfind(b"\n") + 1 if data else len(buf)
        carry = buf[cut:]
        if len(carry) > BLOCK_BYTES:
            return None
        if cut:
            parsed = _parse_block(memoryview(buf)[:cut], kinds, filled)
            if parsed is None:
                return None
            numbers, texts = parsed
            table[filled : filled + len(numbers)] = numbers
            filled += len(numbers)
            for column, new in zip(runs, texts):  # a run across the cut goes on
                column.extend(new[1:] if column and column[-1][0] == new[0][0] else new)
        if not data:
            break
    return (table[:filled], runs) if filled else None


def _cache_dir() -> Path | None:
    """Where read_columns keeps its results: ``$XDG_CACHE_HOME/regime-bench``, or
    ``~/.cache/regime-bench`` when that is unset or relative; None when neither is absolute.

    One entry per key, the least recently used evicted first once the
    entries pass CACHE_BYTES. Removing the directory only costs the next
    reads a parse.
    """
    for base in (os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")):
        if os.path.isabs(base):
            return Path(base, "regime-bench")
    return None


def _load_entry(entry: Path):
    """The (doc, array) stored under entry, or _DECLINED; None when it is missing, short,
    malformed or stored under another key. A hit marks the entry as used now."""
    try:
        with entry.open("rb") as fh:
            doc = json.loads(fh.readline())
            shape = doc.pop("shape")
            if doc.pop("key") != entry.name:
                return None
            size = 0 if shape is None else math.prod(shape)
            if fh.tell() + 8 * size != os.fstat(fh.fileno()).st_size:
                return None
            stored = _DECLINED if shape is None else (
                doc, np.fromfile(fh, count=size).reshape(shape))
        os.utime(entry)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return stored


def _store_entry(entry: Path, stored) -> None:
    """Store a (doc, array) as one JSON line (key, shape, the doc) and the raw array, or
    None as a decline, one JSON line with a null shape; then evict.

    The entry is written under a temporary name and renamed into place, so
    a reader sees a whole entry or none. An OSError ends the store there and
    removes the temporary file; the result is returned all the same.
    """
    doc, array = stored or ({}, None)
    shape = None if array is None else array.shape
    tmp = entry.with_name(f".{entry.name}.{os.getpid()}")
    try:
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        with tmp.open("wb") as fh:
            fh.write(json.dumps({"key": entry.name, "shape": shape, **doc}).encode() + b"\n")
            if array is not None:
                array.tofile(fh)
        os.replace(tmp, entry)
        with os.scandir(entry.parent) as it:
            files = sorted((e.stat().st_mtime, e.stat().st_size, e.path) for e in it)
        total = sum(size for _, size, _ in files)
        for _, size, name in files:  # least recently used first
            if total <= CACHE_BYTES:
                break
            os.remove(name)
            total -= size
    except OSError:
        with suppress(OSError):  # no temporary file, or no directory to hold one
            tmp.unlink()


def _parse_block(buf: bytes, kinds: str, first_row: int):
    """Numbers ``(m, k)`` and text runs of the whole lines in buf, or None if not canonical."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if _FORBIDDEN[b].any():
        return None
    # csv.reader ends a line at "\n" or "\r\n", and at a "\r" alone, which declines
    if b[-1] == 0x0D or np.any(b[np.flatnonzero(b == 0x0D) + 1] != 0x0A):
        return None
    newlines = np.flatnonzero(b == 0x0A)
    ends = newlines - (b[newlines - 1] == 0x0D)  # b[-1] for a leading "\n" is no "\r"
    starts = np.append(0, newlines + 1)
    if b[-1] != 0x0A:  # the file's unterminated last line
        ends = np.append(ends, b.size)
    starts = starts[: ends.size]
    commas = np.flatnonzero(b == 0x2C)
    per_line = np.diff(np.searchsorted(commas, ends), prepend=0)
    if np.any(per_line != len(kinds) - 1):  # a blank line has no comma either
        return None
    commas = commas.reshape(ends.size, len(kinds) - 1)
    lo = np.column_stack([starts, commas + 1])
    width = np.column_stack([commas, ends]) - lo
    if width.max() > MAX_FIELD_BYTES:
        return None
    padded = sliding_window_view(np.append(b, np.zeros(MAX_FIELD_BYTES, np.uint8)),
                                 MAX_FIELD_BYTES)
    numbers, texts = np.full((ends.size, len(kinds) - kinds.count("t")), np.nan), []
    column = 0
    for j, kind in enumerate(kinds):
        w = max(int(width[:, j].max()), 1)
        cells = padded[lo[:, j], :w] * (np.arange(w) < width[:, j, None])
        strings = cells.view(f"S{w}").ravel()
        if kind == "t":
            if not width[:, j].all():
                return None
            change = np.append(0, np.flatnonzero(strings[1:] != strings[:-1]) + 1)
            texts.append([(strings[i].decode("ascii"), first_row + i) for i in change.tolist()])
            continue
        present = width[:, j] > 0 if kind == "f" else slice(None)  # int() rejects b""
        try:
            values = strings[present].astype(np.int64 if kind == "i" else np.float64)
        except (ValueError, OverflowError):  # not a number that int() or float() reads
            return None
        # what the table cannot keep: a NaN, which marks an empty float field, and an
        # integer beyond 2**53, which float64 does not hold exactly
        if kind == "f" and np.isnan(values).any():
            return None
        if kind == "i" and (values.min() < -2**53 or values.max() > 2**53):
            return None
        numbers[present, column] = values
        column += 1
    return numbers, texts
