"""Small shared helpers: seed derivation, float rounding, natural sort, JSON documents."""

from __future__ import annotations

import re
import zlib
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from .core import FarecastError


def derive_seed(seed: int, *keys: int | str) -> int:
    """Stable child seed for a labeled subsystem of a run.

    Children are independent streams of the master seed, so per-route or
    per-fold work is reproducible regardless of execution order.
    """
    spawn = tuple(
        zlib.crc32(k.encode("utf-8")) if isinstance(k, str) else int(k) for k in keys
    )
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn).generate_state(1)[0])


def natural_key(text: str) -> tuple:
    """Sort key treating digit runs as numbers, so R9 sorts before R10."""
    return tuple(int(part) if part.isdigit() else part
                 for part in re.split(r"(\d+)", text))


def round_sig(value, digits: int = 6):
    """Recursively round floats to ``digits`` significant digits for reports."""
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_sig(v, digits) for v in value]
    return value


@contextmanager
def malformed_document(what: str, path) -> Iterator[None]:
    """A decode, key or type error while reading the JSON ``what`` at ``path`` raises
    FarecastError instead."""
    try:
        yield
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise FarecastError(f"{what} {path} is malformed: {exc!r}") from exc
