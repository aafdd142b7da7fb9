"""The file envelope shared by every versioned JSON file and every CSV file.

A JSON document is an object whose first key is ``schema_version``,
written with ``indent=2`` and a trailing newline. A CSV file starts with a
fixed header row. Readers name the file in every error they raise.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ParseError

SCHEMA_VERSION = 1


def write_json(path, doc: dict) -> None:
    """Write doc as a versioned JSON document, ``schema_version`` first."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_json(path, records: str | None = None, error=ParseError) -> dict:
    """Read a versioned JSON document.

    Invalid JSON (``NaN``, ``Infinity`` and ``-Infinity`` included), a
    document that is not an object, an unsupported ``schema_version`` and,
    when ``records`` is given, a missing or non-list ``doc[records]`` all
    raise ``error`` with the path in its message.
    """

    def reject_constant(name):
        raise error(f"{path}: invalid JSON: non-finite number {name}")

    try:
        doc = json.loads(Path(path).read_text(), parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise error(f"{path}: unsupported schema {doc.get('schema_version')!r}")
    if records is not None and not isinstance(doc.get(records), list):
        raise error(f"{path}: {records!r} must be a list of records")
    return doc


def write_csv(path, header: list[str], rows) -> None:
    """Write the header row, then every row of the iterable ``rows``."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: list[str]):
    """Yield ``(line_no, row)`` for each data row after checking the header.

    Empty rows and whitespace-only single-field rows are skipped. Line
    numbers count the header as line 1.
    """
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first] != header:
            raise ParseError(f"{path}: line 1: expected header {','.join(header)}")
        for line_no, row in enumerate(reader, start=2):
            if row and (len(row) > 1 or row[0].strip()):
                yield line_no, row
