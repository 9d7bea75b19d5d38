"""Small shared helpers: seed derivation, float rounding, natural sort, JSON
documents and CSV files.

A saved document or report record is its dataclass's fields less those marked
``NOT_SAVED``; ``from_jsonable`` types them by their annotations and the
constructor's ``__post_init__`` checks shapes and ranges. ``read_json`` and
``write_json`` are the only readers and writers of JSON files, ``write_csv``
the only writer of CSV files (``ingest.load_quotes`` reads quotes). Both
writers leave a file whole: the new one, or the old one if writing fails.
The reader rejects, naming the file: text that is not JSON or nests too deep;
``NaN``, ``Infinity`` and a number that overflows a float (``1e999``); a
missing or an extra key; and a field of another JSON type than its
annotation, such as ``true`` or ``2.5`` for an integer, or a string in an
array of numbers.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import re
import stat
import sys
import zlib
from dataclasses import fields, is_dataclass
from datetime import date
from typing import Callable, Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .core import FarecastError


def derive_seed(seed: int, *keys: int | str) -> int:
    """Stable child seed for a labeled subsystem of a run.

    Children are independent streams of the master seed, so per-route or
    per-fold work is reproducible regardless of execution order.
    """
    if seed < 0:
        raise FarecastError(f"a seed must be a non-negative integer, got {seed}")
    spawn = tuple(
        zlib.crc32(k.encode("utf-8")) if isinstance(k, str) else int(k) for k in keys
    )
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn).generate_state(1)[0])


def natural_key(text: str) -> tuple:
    """Sort key treating digit runs as numbers, so R9 sorts before R10; ids
    that read alike as numbers (R01, R1) sort as text, so no two ids tie."""
    return tuple(int(p) if p.isdecimal() else p for p in re.split(r"(\d+)", text)), text


def round_sig(value):
    """Recursively round floats to 6 significant digits for reports."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: round_sig(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_sig(v) for v in value]
    return value


def finite(text: str) -> float:
    """A JSON number literal as a float; NaN, Infinity and one such as 1e999 raise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path, what: str, build: Callable):
    """``build`` of the UTF-8 JSON document at ``path``, which holds finite
    numbers only. A decode, key, type, domain, overflow or nesting error raises
    a FarecastError that names ``what`` and the file; an OSError, such as a
    missing file, passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh, parse_constant=finite, parse_float=finite))
        except (FarecastError, ValueError, KeyError, TypeError, AttributeError,
                OverflowError, RecursionError) as exc:
            raise FarecastError(f"{what} {path} is malformed: {exc!r}") from exc


def write_json(value, path=None, indent=None) -> None:
    """Write the JSON value ``value`` with sorted keys and a final newline to
    ``path`` (whole, as ``_write_whole`` does), or to stdout when ``path`` is empty."""
    text = json.dumps(value, sort_keys=True, indent=indent) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    _write_whole(path, lambda fh: fh.write(text))


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write ``header``, then each of ``rows``, to ``path`` as UTF-8 CSV in the
    csv module's default dialect: commas, CRLF line ends, and quotes only
    around a field that holds a comma, a quote or a line break. The file is
    replaced whole, as ``_write_whole`` does."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _write_whole(path, write, newline="")


def _write_whole(path, write: Callable, newline=None) -> None:
    """Call ``write`` on a new UTF-8 text file beside ``path``, then rename it
    over ``path``, so a reader sees the old file or the new one, never a
    part. If ``write`` raises, the old file stays and the new one goes.
    The file gets the mode a plain ``open`` would give: the old file's, or
    the umask's for a new one. A symlink is followed; a path that is
    neither a regular file nor a directory, such as a pipe, is written in
    place."""
    path = os.fspath(path)
    if os.path.islink(path):
        path = os.path.realpath(path)
    if os.path.exists(path) and not (os.path.isfile(path) or os.path.isdir(path)):
        with open(path, "w", newline=newline, encoding="utf-8") as fh:
            write(fh)
        return
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    fh = open(temp, "x", newline=newline, encoding="utf-8")
    try:
        with fh:
            write(fh)
        if os.path.isfile(path):
            os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


# The Python types a JSON value may have where one of the key's type is due: a
# float may be written as an integer.
JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,),
              list: (list,)}


def check_json_type(what: str, value, types: tuple, error=FarecastError):
    """``value``, unless it is none of ``types``: then ``error`` names ``what``.
    true and false are booleans only, never numbers."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise error(f"{what} must be of type {' or '.join(t.__name__ for t in types)}, "
                    f"got {value!r}")
    return value


# Field metadata of a fit diagnostic: kept on the instance, never written.
NOT_SAVED = {"saved": False}
_SCALARS = {str, int, float, bool, type(None)}


def _jsonable(value):
    if type(value) in _SCALARS:
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [v if type(v) in _SCALARS else _jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in fields(value) if f.metadata.get("saved", True)}
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, np.generic):
        return value.item()
    return value  # e.g. a float subclass, which json writes as a float


def to_jsonable(value):
    """``value`` in JSON types: a dataclass becomes the dict of its saved fields,
    arrays and tuples lists, dates ISO strings; lists and dicts recursively."""
    return _jsonable(value)  # recursion stays private: a wrapper on this name sees one call


def require_keys(what: str, raw, names: Iterable[str]) -> None:
    """Raise FarecastError unless ``raw`` is a dict with exactly the keys ``names``."""
    if not isinstance(raw, dict):
        raise FarecastError(f"{what} must be a JSON object, got {type(raw).__name__}")
    missing, extra = set(names) - set(raw), set(raw) - set(names)
    if missing or extra:
        raise FarecastError(f"{what}: missing keys {sorted(missing)}, "
                            f"unknown keys {sorted(extra)}")


def _parts(kind) -> tuple:
    """(nullable, type, entry) of an annotation: whether it is Optional, its
    type (the origin of ``list[X]`` or ``dict[str, X]``) and X, else None."""
    args = get_args(kind)
    if type(None) in args:
        return (True, *_parts(args[0])[1:])
    return False, get_origin(kind) or kind, args[-1] if args else None


@functools.cache
def _saved_types(cls) -> dict:
    """Each saved field of the dataclass ``cls``: its name in errors, *_parts."""
    hints = get_type_hints(cls)
    return {f.name: (f"{cls.__name__}.{f.name}", *_parts(hints[f.name]))
            for f in fields(cls) if f.metadata.get("saved", True)}


def _numbers(value) -> bool:
    """True when every entry of the nested list ``value`` is a number, not a bool."""
    if isinstance(value, list):
        return all(map(_numbers, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(value, what: str, nullable: bool, kind, entry):
    """``value`` checked against its field's ``_parts``, a float as a float and an
    array as a float array; a dataclass, or a list of them, is its class's to read."""
    if value is None and nullable:
        return None
    if kind is np.ndarray:
        if not isinstance(value, list) or not _numbers(value):
            raise FarecastError(f"{what} must be an array of numbers, got {value!r:.80}")
        return np.asarray(value, dtype=float)
    if kind not in JSON_TYPES:  # a dataclass
        return value
    value = check_json_type(what, value, JSON_TYPES[kind])
    if kind is list and entry in JSON_TYPES:
        types = JSON_TYPES[entry]
        if not set(map(type, value)).issubset(types):  # type(), so true is not an int
            check_json_type(f"{what} entry", next(v for v in value if type(v) not in types),
                            types)
        return list(map(float, value)) if entry is float else value
    if kind is dict and entry is not None:
        return {k: _typed(v, f"{what}[{k!r}]", False, entry, None) for k, v in value.items()}
    return float(value) if kind is float else value


def from_jsonable(cls, raw):
    """The dataclass ``cls`` rebuilt from ``to_jsonable``'s dict; raises
    FarecastError unless ``raw`` holds exactly the saved field names, each of
    the JSON type its annotation asks."""
    types = _saved_types(cls)
    require_keys(cls.__name__, raw, types)
    return cls(**{name: _typed(raw[name], *parts) for name, parts in types.items()})


def check_shapes(obj, **shapes: tuple) -> None:
    """Raise FarecastError unless each named field of ``obj`` has its shape."""
    for name, shape in shapes.items():
        got = np.shape(getattr(obj, name))
        if got != shape:
            raise FarecastError(f"{type(obj).__name__}.{name} has shape {got}, "
                                f"expected {shape}")
