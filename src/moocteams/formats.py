"""The CSV and JSON layout of every artifact, declared once.

Writers end every line in ``\\n`` and the files are opened with no newline
translation, so the bytes are the same on every platform.  A malformed
file raises :class:`DataFormatError`.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Iterable, Iterator, Sequence, TextIO

from .errors import DataFormatError


def write_csv(stream: TextIO, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def read_csv(stream: TextIO, header: Sequence[str],
             what: str) -> Iterator[list[str]]:
    """The non-blank rows after ``header`` (matched with each cell
    stripped), each as wide as the header; ``what`` names the file kind."""
    reader = csv.reader(stream)
    first = next(reader, None)
    if first is None or [cell.strip() for cell in first] != list(header):
        raise DataFormatError(f"expected {what} header {list(header)}, got {first}")
    for row in filter(None, reader):  # blank lines read as empty rows
        if len(row) != len(header):
            raise DataFormatError(f"bad {what} row: {row}")
        yield row


def write_json(payload: Any, stream: TextIO) -> None:
    """``payload`` as indented JSON with sorted keys, then a newline."""
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def read_json(stream: TextIO, what: str) -> Any:
    try:
        return json.load(stream)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid {what} JSON: {exc}") from exc
