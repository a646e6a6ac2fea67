"""File formats: config JSON, results / summary / guideline CSV.

Each format is described once, by its type: the config JSON keys are the
``ConfigSpec`` and ``PredictorSpec`` fields, and a CSV's columns are the
fields of its record type.  All CSV numeric fields use the shortest
decimal representation that parses back to the identical double, so
save/load round-trips are lossless.

Every output file is opened by ``_create``, which replaces an existing
regular file with a new one rather than truncating it in place.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import stat
from itertools import islice
from pathlib import Path
from typing import Iterable, get_type_hints

from .configs import BUILTIN_CONFIGS, ConfigSpec, PredictorSpec
from .curve import GuidelineRow, GuidelineTable
from .engine import IterationRecord, SummaryRecord
from .errors import ConfigError, SchemaError

_CONFIG_KEYS = {field.name for field in dataclasses.fields(ConfigSpec)}
_PREDICTOR_KEYS = {field.name for field in dataclasses.fields(PredictorSpec)}


def _require_keys(path, where: str, obj: dict, expected: set[str]) -> None:
    unknown = set(obj) - expected
    if unknown:
        raise SchemaError(f"{path}: {where}: unexpected key(s) {sorted(unknown)}")
    missing = expected - set(obj)
    if missing:
        raise SchemaError(f"{path}: {where}: missing key(s) {sorted(missing)}")


def _number_list(path, where: str, value) -> list[float]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{path}: {where} must be a nonempty list of numbers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{path}: {where}[{i}] must be a number")
        try:
            out.append(float(v))
        except OverflowError:
            raise SchemaError(f"{path}: {where}[{i}] is too large to be a probability") from None
    return out


def load_config(path) -> ConfigSpec:
    """Load and validate a configuration from its JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or arrays nested past the recursion limit
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be an object")
    _require_keys(path, "top level", raw, _CONFIG_KEYS)
    if not isinstance(raw["id"], str):
        raise SchemaError(f"{path}: id must be a string")
    if not isinstance(raw["predictors"], list) or not raw["predictors"]:
        raise SchemaError(f"{path}: predictors must be a nonempty list")
    predictors = []
    for i, item in enumerate(raw["predictors"]):
        where = f"predictors[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(f"{path}: {where} must be an object")
        _require_keys(path, where, item, _PREDICTOR_KEYS)
        if not isinstance(item["name"], str):
            raise SchemaError(f"{path}: {where}.name must be a string")
        p_event = _number_list(path, f"{where}.p_event", item["p_event"])
        p_nonevent = _number_list(path, f"{where}.p_nonevent", item["p_nonevent"])
        try:
            predictors.append(
                PredictorSpec(name=item["name"], p_event=p_event, p_nonevent=p_nonevent)
            )
        except ConfigError as exc:
            raise SchemaError(f"{path}: {where}: {exc}") from exc
    try:
        return ConfigSpec(id=raw["id"], predictors=tuple(predictors))
    except ConfigError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _create(path, newline=None):
    """Open ``path`` for writing text as a new file.

    An existing regular file is unlinked first: on ext4, truncating a file
    whose last write has not reached disk can wait for that write-back,
    while unlinking and creating does not.  So other hard links keep the
    old content and the new file takes the default mode.  A symlink, a device or a FIFO is written
    through in place, as is a file the OS refuses to unlink.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        # missing (open creates it) or not unlinkable (open truncates it)
        pass
    return open(path, "w", newline=newline, encoding="utf-8")


def save_config(config: ConfigSpec, path) -> None:
    """Write a configuration as schema-conformant JSON."""
    with _create(path) as fh:
        fh.write(json.dumps(dataclasses.asdict(config), indent=2) + "\n")


def save_chart(svg: str, path) -> None:
    """Write an SVG chart from ``charts.emit_chart``."""
    with _create(path) as fh:
        fh.write(svg)


def resolve_config(spec: str) -> ConfigSpec:
    """Interpret a CLI config argument as a built-in id or a JSON path."""
    if spec in BUILTIN_CONFIGS:
        return BUILTIN_CONFIGS[spec]
    path = Path(spec)
    if path.exists():
        return load_config(path)
    raise ConfigError(f"{spec!r} is neither a built-in config id nor an existing file")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise SchemaError(f"expected 'true' or 'false', got {text!r}")


def _parse_float(text: str) -> float:
    """A double, NaN included.  No record holds an infinity, and one would
    turn the summary quantiles next to it into NaN, so it is refused."""
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"infinite value {text!r}")
    return value


#: (formatter, parser) per record field type.  ``repr`` is the shortest
#: string that parses back to the same double (``nan`` and ``-0.0``
#: included).
_CODECS = {
    str: (str, str),
    int: (str, int),
    float: (repr, _parse_float),
    bool: (_fmt_bool, _parse_bool),
}


def _columns(cls) -> tuple[list[str], list[tuple]]:
    """A record type's CSV header (its field names, in order) and codecs.

    ``from __future__ import annotations`` leaves the field annotations as
    strings, which ``NamedTuple`` holds as forward references;
    ``get_type_hints`` resolves them to the types.
    """
    types = get_type_hints(cls)
    return list(cls._fields), [_CODECS[types[name]] for name in cls._fields]


# built at import, so a field type without a codec fails here, not on a write
_COLUMNS = {cls: _columns(cls) for cls in (IterationRecord, SummaryRecord, GuidelineRow)}
# rows are formatted and parsed a column at a time in chunks of this many,
# which keeps the per-value calls in C while holding one chunk's strings
_CHUNK_ROWS = 64


def _save_records(cls, records: Iterable, path) -> None:
    """Write ``records`` of type ``cls`` as CSV.  A record holding an
    infinity, which no loader reads back, is refused with a ValueError
    naming its column and the record; the file then holds the header and
    the rows of every chunk of ``_CHUNK_ROWS`` records before its own."""
    header, codecs = _COLUMNS[cls]
    # a record is the tuple of its row
    rows = iter(records)
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            columns = list(zip(*chunk))
            for name, (fmt, _), column in zip(header, codecs, columns):
                if fmt is repr and (math.inf in column or -math.inf in column):
                    record = next(r for r in chunk if math.isinf(getattr(r, name)))
                    raise ValueError(f"{path}: column {name!r} is infinite in {record!r}")
            writer.writerows(zip(*(map(fmt, column) for (fmt, _), column in zip(codecs, columns))))


def _load_records(cls, path) -> list:
    """The records of type ``cls`` in the CSV file ``path``.  A file that
    is not UTF-8 or holds a field over ``csv.field_size_limit()`` is
    refused with ``SchemaError`` naming it, as a malformed row is."""
    header, codecs = _COLUMNS[cls]
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            row = next(reader, [])
            if row != header:
                raise SchemaError(f"{path}: bad header {row!r}, expected {header!r}")
            while rows := list(islice(reader, _CHUNK_ROWS)):
                for row in rows:
                    if len(row) != len(header):
                        raise SchemaError(
                            f"{path}: row has {len(row)} fields, expected {len(header)}"
                        )
                columns = [map(parse, column) for (_, parse), column in zip(codecs, zip(*rows))]
                try:
                    records.extend(map(cls._make, zip(*columns)))
                except ValueError as exc:
                    raise _bad_cell(path, header, codecs, exc) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return records


def _bad_cell(path, header: list[str], codecs: list[tuple], exc: ValueError) -> SchemaError:
    """Name the line and column of the first cell in ``path`` that its
    column's parser refuses; only called once a parse has failed, so reading
    the file again costs the happy path nothing."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        line = 2
        for row in reader:
            for name, (_, parse), text in zip(header, codecs, row):
                try:
                    parse(text)
                except ValueError as cell_exc:
                    return SchemaError(f"{path}: line {line}, column {name!r}: {cell_exc}")
            # a quoted field may span lines, so count what the reader consumed
            line = reader.line_num + 1
    return SchemaError(f"{path}: {exc}")


def save_results_csv(records: Iterable[IterationRecord], path) -> None:
    _save_records(IterationRecord, records, path)


def load_results_csv(path) -> list[IterationRecord]:
    return _load_records(IterationRecord, path)


def save_summary_csv(records: Iterable[SummaryRecord], path) -> None:
    _save_records(SummaryRecord, records, path)


def load_summary_csv(path) -> list[SummaryRecord]:
    return _load_records(SummaryRecord, path)


def save_guideline_csv(table: GuidelineTable, path) -> None:
    _save_records(GuidelineRow, table.rows(), path)
