"""Deterministic JSON emission with fixed-width float formatting.

Reports are meant to be diffed and byte-compared across runs, so every
float is printed with 17 significant digits (enough to round-trip an
IEEE double) instead of the shortest-representation repr.  Only Python
values are written (None, bool, int, float, str, dict, list, tuple), so
``np.float64``, a float, prints and a NumPy integer or array is refused.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import InvalidInput


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InvalidInput("cannot serialize a non-finite number")
    return format(float(x), ".17g")


def dumps(obj: Any) -> str:
    """Serialize to JSON with 17-significant-digit floats, stable layout."""
    out: list[str] = []
    _write(obj, out)
    return "".join(out)


def _write(obj: Any, out: list[str]) -> None:
    if obj is None or isinstance(obj, (bool, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, value in enumerate(obj):
            if k:
                out.append(", ")
            _write(value, out)
        out.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")
