"""Deterministic report serialization: sorted keys, 17-significant-digit floats."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import InvalidArgumentError


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise InvalidArgumentError(f"cannot serialize non-finite float {x}")
    s = "%.17g" % x
    # bare integers still need to parse as JSON numbers; that is fine as-is
    return s


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    return "".join(out)


def canonical_json(obj) -> str:
    """JSON text with sorted keys and reproducible float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _fmt_float(float(obj))
    if isinstance(obj, numbers.Complex):
        return canonical_json({"re": float(obj.real), "im": float(obj.imag)})
    if isinstance(obj, str):
        return '"' + _escape(obj) + '"'
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ", ".join(
            '"%s": %s' % (_escape(str(k)), canonical_json(v)) for k, v in items
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(canonical_json(v) for v in list(obj)) + "]"
    if hasattr(obj, "to_dict"):
        return canonical_json(obj.to_dict())
    raise InvalidArgumentError(f"cannot serialize object of type {type(obj).__name__}")
