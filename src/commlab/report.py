"""Canonical report serialization: sorted keys, exact fractions as strings,
no floats, byte-stable across runs and thread counts."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .exact_core import INFINITY

TOOL_VERSION = "0.1.0"


class DigitLimitError(ValueError):
    """An exact value has more digits than Python's int-to-str conversion allows."""


def frac_str(x):
    """Lowest-terms string form of an exact scalar; "/1" is omitted."""
    if x is INFINITY:
        return "inf"
    x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise DigitLimitError(
            "exact entries exceed the printable digit limit "
            f"({sys.get_int_max_str_digits()} digits)"
        ) from None


def mat_rows(m):
    return [[frac_str(m.a), frac_str(m.b)], [frac_str(m.c), frac_str(m.d)]]


def classification_obj(cls):
    if cls is None:
        return None
    return {
        "kind": cls.kind,
        "order": cls.order,
        "translation_length": cls.translation_length,
        "note": cls.note,
    }


def witness_obj(word_text, matrix, cls):
    return {
        "word": word_text,
        "matrix": mat_rows(matrix),
        "classification": classification_obj(cls),
    }


def vertex_str(v):
    return f"{v.p}^{v.n}:{frac_str(v.u)}"


def int_key_map(d, value=lambda x: x):
    """Render a dict with int keys as string keys in ascending order."""
    return {str(k): value(d[k]) for k in sorted(d)}


def build_report(command, params, results, witnesses, timing_ms):
    return {
        "tool_version": TOOL_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "witnesses": witnesses,
        "timing_ms": timing_ms,
    }


def error_report(code, message, detail=None):
    err = {"code": code, "message": message}
    if detail is not None:
        err["detail"] = detail
    return {"error": err}


def dumps_canonical(obj):
    """Stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
