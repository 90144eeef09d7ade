"""One exact-type reader for every JSON input, and the dataclass field
tables built on it.

A value is read against the Python type it must have: int (true is never
an integer), float (an integer also counts, and the number must be
finite), bool, str, dict, list[T], tuple[T, ...] of a fixed length, or a
dataclass. A dataclass is a field table: each field's annotation is its
JSON type, `field(metadata=...)` may hold its bound, and an absent field
takes its default. Every error names the dotted path of the bad value,
such as `train.lr` or `real_convs[0].kernel[2]`. Every JSON file hsiduo
writes goes through `dump`.
"""

from __future__ import annotations

import json
import os
import sys
import typing
from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string",
          dict: "an object", list: "a list"}


def at_least(lo, below=None) -> dict:
    """Field metadata: every number in the value is >= lo (and < below)."""
    text = f"must be >= {lo}" + (f" and < {below}" if below is not None else "")
    return {"bound": (text, lambda v: v >= lo and (below is None or v < below))}


def above(lo) -> dict:
    """Field metadata: every number in the value is > lo."""
    return {"bound": (f"must be > {lo}", lambda v: v > lo)}


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def read(value, kind, path: str, error=ConfigError, meta=None):
    """value as the JSON type kind, raising error naming path if it is not.
    MISSING stands for an absent key. meta is field metadata; its bound
    (see at_least) holds for every number or string in the value."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if is_dataclass(kind):
        doc = read(value, dict, path, error)
        table = fields(kind)
        names = {f.name for f in table}
        for key in doc:
            if key not in names:
                raise error(f"{_join(path, key)}: unknown config field")
        hints = typing.get_type_hints(kind)
        return kind(**{
            f.name: read(doc.get(f.name, MISSING), hints[f.name], _join(path, f.name), error, f.metadata)
            for f in table
            if f.name in doc or (f.default is MISSING and f.default_factory is MISSING)
        })
    if origin in (list, tuple):
        items = read(value, list, path, error)
        if origin is tuple and len(items) != len(args):
            raise error(f"{path}: expected {len(args)} items, got {len(items)}")
        kinds = args if origin is tuple else args * len(items)
        return origin(read(v, k, f"{path}[{i}]", error, meta) for i, (v, k) in enumerate(zip(items, kinds)))
    if kind is float and type(value) in (int, float):
        ok = abs(value) <= sys.float_info.max  # false for nan, inf and an integer past float range
        value = float(value) if ok else value
    else:
        ok = type(value) is kind
    if not ok:
        raise error(f"{path}: expected {_KINDS[kind]}, got {'nothing' if value is MISSING else repr(value)}")
    text, test = (meta or {}).get("bound", (None, None))
    if test is not None and not test(value):
        raise error(f"{path}: {text}, got {value!r}")
    return value


def load(path: str, kind, where: str, error=ConfigError):
    """The JSON file at path, read as kind; error names where if the file
    is missing or is not UTF-8 JSON that Python's parser can take."""
    if not os.path.exists(path):
        raise error(f"{where}: not found")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, nesting too deep
        raise error(f"malformed {where}: {exc}") from None
    return read(doc, kind, where, error)


def to_json(value):
    """A field table's JSON document: dataclasses as objects, tuples as lists."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    return value


def dump(doc, fh):
    """doc into the open text file fh: sorted keys, indent 1, final newline."""
    json.dump(doc, fh, sort_keys=True, indent=1)
    fh.write("\n")
