"""Small shared helpers: seed derivation, float rounding, natural sort, JSON documents.

A saved document or report record is its dataclass's fields less those marked
``NOT_SAVED``; the constructor's ``__post_init__`` converts and checks them.
``read_json`` and ``write_json`` are the only readers and writers of JSON files.
"""

from __future__ import annotations

import json
import re
import sys
import zlib
from dataclasses import fields, is_dataclass
from datetime import date
from typing import Callable, Iterable

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


def read_json(path, what: str, build: Callable):
    """``build`` of the UTF-8 JSON document at ``path``. A decode, key, type or
    domain error raises a FarecastError that names ``what`` and the file; an
    OSError, such as a missing file, passes through."""
    with open(path, encoding="utf-8") as fh:
        try:
            return build(json.load(fh))
        except (FarecastError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise FarecastError(f"{what} {path} is malformed: {exc!r}") from exc


def write_json(value, path=None, indent=None) -> None:
    """Write the JSON value ``value`` with sorted keys and a final newline to
    ``path``, or to stdout when ``path`` is empty."""
    text = json.dumps(value, sort_keys=True, indent=indent) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


def check_types(obj, **kinds: type) -> None:
    """Raise FarecastError unless each named field of ``obj`` has its kind's JSON type."""
    for name, kind in kinds.items():
        check_json_type(f"{type(obj).__name__}.{name}", getattr(obj, name), JSON_TYPES[kind])


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


def from_jsonable(cls, raw):
    """The dataclass ``cls`` rebuilt from ``to_jsonable``'s dict; raises
    FarecastError unless ``raw`` holds exactly the saved field names."""
    require_keys(cls.__name__, raw,
                 [f.name for f in fields(cls) if f.metadata.get("saved", True)])
    return cls(**raw)


def _numbers(value) -> bool:
    """True when every entry of the (nested) list or array ``value`` is a number:
    no string, boolean or null."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "fiu"
    if isinstance(value, (list, tuple)):
        return all(map(_numbers, value))
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool)


def as_float_arrays(obj, *names: str) -> None:
    """Set each named field of ``obj`` to a float array; None stays None. An entry
    that is not a number raises FarecastError."""
    for name in names:
        value = getattr(obj, name)
        if value is not None:
            if not _numbers(value):
                raise FarecastError(f"{type(obj).__name__}.{name} must hold numbers only")
            setattr(obj, name, np.asarray(value, dtype=float))


def check_finite(obj, *names: str, positive: tuple[str, ...] = ()) -> None:
    """Raise FarecastError unless each named field of ``obj`` holds finite numbers
    only, and each field of ``positive`` finite numbers above 0."""
    for name in (*names, *positive):
        values = np.asarray(getattr(obj, name), dtype=float)
        if not np.isfinite(values).all() or (name in positive and not (values > 0).all()):
            raise FarecastError(f"{type(obj).__name__}.{name} must hold "
                                f"{'positive ' if name in positive else ''}finite numbers")


def check_shapes(obj, **shapes: tuple) -> None:
    """Raise FarecastError unless each named field of ``obj`` has its shape."""
    for name, shape in shapes.items():
        got = np.shape(getattr(obj, name))
        if got != shape:
            raise FarecastError(f"{type(obj).__name__}.{name} has shape {got}, "
                                f"expected {shape}")
