"""The CSV and JSON layout of every artifact, declared once.

Writers end every line in ``\\n`` and the files are opened with no newline
translation, so the bytes are the same on every platform.  Readers refuse a
bad value by one rule, :func:`refused_as`: a ``KeyError``, ``TypeError``,
``ValueError``, ``OverflowError``, ``RecursionError`` or ``csv.Error`` while
reading is a :class:`DataFormatError` naming the file kind and the row, line
or entry, and :func:`json_field` reads a JSON field only as its writer's type.
Text that is not JSON or nests too deep for the decoder, a field or number
too long to read, and ``Infinity`` or a 400-digit integer where an int or a
float belongs are all data errors, never a crash; so is a JSON object
that repeats a key, which :mod:`json` would read as its last value.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import Any, TextIO

from .errors import DataFormatError, require_distinct


@contextmanager
def refused_as(message: str, *args: Any) -> Iterator[None]:
    """Raise ``DataFormatError("<message>: <cause>")`` for a ``cause`` of the
    kinds below, ``message.format(*args)`` built only then.  A DataFormatError
    is a ValueError, so one raised in the block gets the message put first."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError,
            csv.Error) as cause:
        raise DataFormatError(f"{message.format(*args)}: {cause}") from cause


def json_field(payload: Any, path: str, kind: type) -> Any:
    """The field at the dotted ``path`` of decoded JSON, as ``kind``: a finite
    int or float for float, else exactly ``kind`` (a bool is no int, an int
    no bool); any other value, or none, is a DataFormatError naming ``path``."""
    with refused_as("{}", path):
        value = payload
        for key in path.split("."):
            value = value[key]
        if type(value) not in ((int, float) if kind is float else (kind,)) or (
                kind is float and not math.isfinite(value)):
            raise DataFormatError(f"expected a JSON {kind.__name__}, got {value!r}")
        return kind(value)


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
    with refused_as("bad {} CSV", what):  # csv.Error: a field past its size limit, for one
        first = next(reader, None)
        if first is None or [cell.strip() for cell in first] != list(header):
            raise DataFormatError(f"expected header {list(header)}, got {first}")
        for row in filter(None, reader):  # blank lines read as empty rows
            if len(row) != len(header):
                raise DataFormatError(f"row {row} is not {len(header)} cells wide")
            yield row


def _scalar(o: Any) -> str | None:
    """JSON text of a scalar as :mod:`json` writes it (floats by
    ``float.__repr__``, NaN and the infinities as their JavaScript names),
    or None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    return None


#: How many pieces of JSON text :func:`write_json` gathers before it writes them.
_PIECES_PER_WRITE = 256


def _layout(o: Any, parts: list[str], indent: str, stream: TextIO) -> None:
    """Append the JSON text of ``o`` to ``parts``, a container's items each
    on a new line opened by ``indent`` (a newline, then two spaces per level)
    plus two spaces; after any item that leaves ``parts`` holding
    ``_PIECES_PER_WRITE`` pieces, they go to ``stream``.  A list, a tuple or
    an iterator is an array."""
    if isinstance(o, dict):
        opening, closing, items = "{", "}", sorted(o.items())
    elif isinstance(o, (list, tuple, Iterator)):
        opening, closing, items = "[", "]", o
    else:
        text = _scalar(o)
        if text is None:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
        parts.append(text)
        return
    inner = indent + "  "
    separator = opening + inner
    for item in items:
        if opening == "{":
            key, item = item
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(separator + encode_basestring_ascii(key) + ": ")
        else:
            parts.append(separator)
        text = _scalar(item)
        if text is None:
            _layout(item, parts, inner, stream)
        else:
            parts.append(text)
        if len(parts) >= _PIECES_PER_WRITE:
            stream.write("".join(parts))
            parts.clear()
        separator = "," + inner
    # the separator is still the opening one only when there was no item
    parts.append(opening + closing if separator[0] == opening else indent + closing)


def write_json(payload: Any, stream: TextIO) -> None:
    """``payload`` as indented JSON with sorted keys, then a newline: the
    bytes of ``json.dump(payload, stream, indent=2, sort_keys=True)`` where
    every key is a str (any other key is a TypeError), an iterator laid out
    as the list of its items.  The text goes to ``stream`` a few hundred
    pieces at a time, so it is never held whole."""
    parts: list[str] = []
    _layout(payload, parts, "\n", stream)
    parts.append("\n")
    stream.write("".join(parts))


def _distinct_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    require_distinct((key for key, _ in pairs), "a JSON object")
    return dict(pairs)


def read_json(stream: TextIO, what: str) -> Any:
    with refused_as("invalid {} JSON", what):
        return json.load(stream, object_pairs_hook=_distinct_keys)
