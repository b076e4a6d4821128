"""Numeric helpers: exact-friendly logarithms, size caps, report serialization."""

from __future__ import annotations

import dataclasses
import math
import os
from fractions import Fraction
from json.encoder import encode_basestring  # json.dumps(s, ensure_ascii=False) of a str

import numpy as np

DEFAULT_TOL = 1e-12
LN2 = math.log(2.0)


def max_points(default: int = 6000) -> int:
    """Matrix-size cap; METRICLAB_MAX_POINTS overrides the default."""
    raw = os.environ.get("METRICLAB_MAX_POINTS")
    if raw is None:
        return default
    value = int(raw)
    if value < 1:
        raise ValueError("METRICLAB_MAX_POINTS must be positive")
    return value


def flog(x) -> float:
    """Natural log that survives exact rationals far below float underflow.

    Fractions are split into log(num) - log(den); Python takes logs of
    arbitrarily large ints exactly enough for our ratio arithmetic.
    """
    if not isinstance(x, float) and isinstance(x, Fraction):  # the float test is the cheap one
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def dyadic_numerators(xs):
    """(nums, q): exact numbers as Python ints over one denominator 2^q, the
    largest of theirs, or None when some denominator is not a power of two.

    Each numerator is shifted left by q minus its own exponent. The scaling
    by 2^q is exact and monotone, so sums, differences and comparisons of
    the ints order as those of the numbers do, without a gcd.
    """
    try:
        dens = [x.denominator for x in xs]
    except AttributeError:  # a float or another non-rational entry
        return None
    if any(d & (d - 1) for d in dens):
        return None
    q = max((d.bit_length() for d in dens), default=1) - 1
    return [x.numerator << (q + 1 - d.bit_length()) for x, d in zip(xs, dens)], q


def coprime_fraction(num: int, den: int) -> Fraction:
    """The Fraction num / den of coprime ints, den > 0, built without the
    gcd that Fraction(num, den) runs, as Fraction._from_coprime_ints does on
    Python 3.12. Callers may share one den object between Fractions."""
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def per_distinct(fn, x, dtype=float) -> np.ndarray:
    """fn of every entry of a float array, in an array of x's shape, with
    one fn call per distinct value. Values are told apart by their bit
    patterns (np.unique over the uint64 view), so -0.0 and 0.0, or two
    floats one ulp apart, each get fn of exactly their own float."""
    x = np.ascontiguousarray(x, dtype=float)
    bits, where = np.unique(x.view(np.uint64), return_inverse=True)
    out = np.fromiter(map(fn, bits.view(float).tolist()), dtype=dtype, count=len(bits))
    return out[where].reshape(x.shape)


def as_float(x) -> float:
    """float(x), with silent underflow to 0.0 for out-of-range Fractions."""
    if not isinstance(x, float) and isinstance(x, Fraction):
        try:
            return x.numerator / x.denominator
        except OverflowError:
            return 0.0
    return float(x)


def as_floats(values) -> np.ndarray:
    """as_float of every entry of a 1-D array, as a float64 array."""
    if values.dtype == object:
        return np.fromiter(map(as_float, values), float, len(values))
    return values.astype(float, copy=False)


_REPORT_KEYS = {}  # per dataclass, report_keys(cls)


def report_keys(cls) -> tuple:
    """(name, report key) of each field of a dataclass, in order, the key
    its metadata's "key" where it names one: looked up once per class."""
    keys = _REPORT_KEYS.get(cls)
    if keys is None:
        keys = _REPORT_KEYS[cls] = tuple((f.name, f.metadata.get("key", f.name))
                                         for f in dataclasses.fields(cls))
    return keys


def field_report(obj, skip=()) -> dict:
    """The fields of a dataclass, in order and less skip, as report values
    (a dataclass's to_report, when it is one of these), each under its
    report key (report_keys)."""
    return {key: _report_value(getattr(obj, name))
            for name, key in report_keys(type(obj)) if name not in skip}


def _report_value(x):  # a tuple as a list of its items' values
    if isinstance(x, tuple):
        return [_report_value(v) for v in x]
    return x.to_report() if hasattr(x, "to_report") else x


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj, indent: int = 2) -> str:
    """Deterministic JSON with floats at 17 significant digits.

    Non-finite floats become the strings "inf", "-inf", "nan" so reports stay
    parseable by strict JSON readers. Dict insertion order is preserved.
    """
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


# what a report writes without _emit (other numpy scalars and Fractions take it)
_SCALARS = {type(None): lambda x: "null", bool: lambda x: "true" if x else "false",
            np.bool_: lambda x: "true" if x else "false", int: int.__repr__,
            float: _fmt_float, str: encode_basestring}


def _plain(items, pad: str, pad_in: str):
    """The JSON text of a list of _SCALARS, written with one join; None
    when an item is not one."""
    try:
        texts = [_SCALARS[type(x)](x) for x in items]
    except KeyError:
        return None
    return "[\n" + pad_in + (",\n" + pad_in).join(texts) + "\n" + pad + "]" if texts else "[]"


def _bulk(obj, pad: str, pad_in: str, pad_row: str):
    """The JSON text of a list of scalars or of a list of such lists, or
    None when obj is neither."""
    text = _plain(obj, pad, pad_in)
    if text is not None:
        return text
    rows = []
    for row in obj:
        text = _plain(row, pad_in, pad_row) if isinstance(row, (list, tuple)) else None
        if text is None:
            return None
        rows.append(text)
    return "[\n" + pad_in + (",\n" + pad_in).join(rows) + "\n" + pad + "]"


def _records(items, pad: str, pad_in: str, pad_row: str):
    """The JSON text of a list of dicts with the same keys in the same order
    and only _SCALARS, with one head per key and one join; None otherwise."""
    keys = list(items[0]) if items and type(items[0]) is dict else None
    if not keys or any(type(row) is not dict or list(row) != keys for row in items):
        return None
    heads = [pad_row + encode_basestring(str(key)) + ": " for key in keys]
    try:
        texts = [",\n".join([head + _SCALARS[type(x)](x) for head, x in zip(heads, row.values())])
                 for row in items]
    except KeyError:  # a value that is not a scalar
        return None
    return ("[\n" + pad_in + "{\n" + ("\n" + pad_in + "},\n" + pad_in + "{\n").join(texts)
            + "\n" + pad_in + "}\n" + pad + "]")


def _emit(obj, out: list[str], indent: int, depth: int) -> None:
    pad = " " * (indent * depth)
    pad_in = " " * (indent * (depth + 1))
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, Fraction):
        out.append(_fmt_float(as_float(obj)))
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        pad_row = pad_in + " " * indent
        text = _bulk(obj, pad, pad_in, pad_row)
        if text is None:
            text = _records(obj, pad, pad_in, pad_row)
        if text is not None:
            out.append(text)
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad_in)
            _emit(item, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad_in + encode_basestring(str(key)) + ": ")
            _emit(value, out, indent, depth + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")
