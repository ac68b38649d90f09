"""Canonical report serialization: sorted keys, exact fractions as strings,
no floats, byte-stable across runs."""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .bt_tree import TreeVertex
from .exact_core import INFINITY, Mat2
from .words import Word, format_word

TOOL_VERSION = "0.1.0"


class DigitLimitError(ValueError):
    """An exact value has more digits than Python's int-to-str conversion allows."""


def frac_str(x):
    """Lowest-terms string form of an exact scalar; "/1" is omitted."""
    if x is INFINITY:
        return "inf"
    if not isinstance(x, Fraction):  # Fraction(x) of a Fraction is a slow copy
        x = Fraction(x)
    return _ratio_str(x.numerator, x.denominator)


def chart_str(p, chart):
    """The "p^n:u" form of the vertex charted (n, m, c), u = c * p^m, as
    to_json writes a TreeVertex: c is prime to p, so c / p^-m is in lowest terms."""
    n, m, c = chart
    return f"{p}^{n}:{_ratio_str(c * p**m, 1) if m >= 0 else _ratio_str(c, p**-m)}"


def _ratio_str(num, den):
    """num/den, with "/1" omitted, for a ratio already in lowest terms."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise DigitLimitError(
            "exact entries exceed the printable digit limit "
            f"({sys.get_int_max_str_digits()} digits)"
        ) from None


def to_json(obj, alphabet):
    """The JSON form of a report value, with words written in the alphabet.

    None, bools, ints and strings stay as they are. Fractions and INFINITY
    become frac_str strings, a Word its format_word text, a Mat2 its rows, a
    TreeVertex its chart_str, and any other object whose type has __match_args__
    (a Record such as ElementClass or a result row, or a dataclass) an object
    of those fields. Tuples and lists become lists, dicts objects with string
    keys, item by item. Anything else, floats too, is a TypeError.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if obj is INFINITY or isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, Word):
        return format_word(obj, alphabet)
    if isinstance(obj, Mat2):
        return to_json(obj.rows(), alphabet)
    if isinstance(obj, TreeVertex):
        return chart_str(obj.p, obj.chart)
    if isinstance(obj, (tuple, list)):
        return [to_json(x, alphabet) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_json(v, alphabet) for k, v in obj.items()}
    names = getattr(type(obj), "__match_args__", None)
    if names is not None:
        return {name: to_json(getattr(obj, name), alphabet) for name in names}
    raise TypeError(f"no JSON form for {type(obj).__name__}")


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
