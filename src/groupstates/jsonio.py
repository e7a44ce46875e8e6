"""JSON interchange formats.

Groups: {"order": n, "cayley": [[...]], "labels": [...]}, row-major and
0-based.  Functions and algebra elements: {"group": <inline or path>,
"re": [...], "im": [...]}.  Matrices: {"rows", "cols", "re", "im"} with
flat row-major value lists.  Descriptors: {"sigma", "unitaries",
"transpose"}.  A "group" given as a string is a path resolved relative to
the referencing file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InputFormatError
from .groups import FiniteGroup, _refuse_order_above_limit, validate_group
from .posdef import GroupFunction
from .vn import AffineHomeoDescriptor


def load_json(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InputFormatError(f"no such file: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(f"JSON nested too deeply in {path}") from exc
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where}: expected a JSON object")
    if key not in obj:
        raise InputFormatError(f"{where}: missing key {key!r}")
    return obj[key]


def group_to_json(group: FiniteGroup) -> dict:
    out = {"order": group.order, "cayley": group.cayley.tolist()}
    if group.labels is not None:
        out["labels"] = list(group.labels)
    return out


def group_from_json(obj: dict, name: str = "group") -> FiniteGroup:
    """The validated group of a group object.  A given ``order``, then the
    row count, above ``groups.DEFAULT_CLOSURE_LIMIT`` raises
    SizeLimitExceeded before the table is converted to an array."""
    if not isinstance(obj, dict):
        raise InputFormatError("group JSON must be an object")
    cayley = _need(obj, "cayley", "group")
    for size in (obj.get("order"), len(cayley) if isinstance(cayley, list) else None):
        if type(size) is int:
            _refuse_order_above_limit(size)
    try:
        table = np.asarray(cayley)
    except ValueError as exc:
        raise InputFormatError(f"bad group data: {exc}") from exc
    # numpy would truncate floats and parse strings when casting to int64
    if not np.issubdtype(table.dtype, np.integer):
        raise InputFormatError(f"group table entries must be integers, got {table.dtype}")
    order = obj.get("order")
    rows = len(table) if table.ndim else 0
    if order is not None and (type(order) is not int or order != rows):
        raise InputFormatError(f"group order {order!r} does not match the {rows}-row table")
    labels, name = obj.get("labels"), obj.get("name", name)
    if not (labels is None or type(labels) is list and all(type(x) is str for x in labels)):
        raise InputFormatError("group labels must be a list of strings")
    if type(name) is not str:
        raise InputFormatError("group name must be a string")
    try:
        return validate_group(table, labels=labels, name=name)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(f"bad group data: {exc}") from exc


def load_group(path: str | Path) -> FiniteGroup:
    return group_from_json(load_json(path), name=Path(path).stem)


def _resolve_group(obj, base: Path | None) -> FiniteGroup:
    if isinstance(obj, str):
        ref = Path(obj)
        if base is not None and not ref.is_absolute():
            ref = base / ref
        return load_group(ref)
    return group_from_json(obj)


def function_to_json(fn: GroupFunction, inline_group: bool = True) -> dict:
    out = {
        "re": fn.values.real.tolist(),
        "im": fn.values.imag.tolist(),
    }
    if inline_group:
        out["group"] = group_to_json(fn.group)
    return out


def _numbers(values, key: str) -> np.ndarray:
    """A float array from a JSON list of ints and floats.  numpy would
    parse strings and take booleans as 0 and 1 when casting to float."""
    if not isinstance(values, list) or not all(type(x) in (int, float) for x in values):
        raise InputFormatError(f"function values must be lists of numbers, got {key}={values!r:.80}")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError as exc:
        raise InputFormatError(f"function value out of range in {key}: {exc}") from exc


def function_from_json(
    obj: dict,
    group: FiniteGroup | None = None,
    base: Path | None = None,
) -> GroupFunction:
    if not isinstance(obj, dict):
        raise InputFormatError("function JSON must be an object")
    if group is None:
        group = _resolve_group(_need(obj, "group", "function"), base)
    re = _numbers(_need(obj, "re", "function"), "re")
    im = _numbers(obj["im"], "im") if "im" in obj else np.zeros_like(re)
    if re.shape != (group.order,) or im.shape != (group.order,):
        raise InputFormatError(
            f"function length {re.shape} does not match group order {group.order}"
        )
    return GroupFunction(group, re + 1j * im)


def load_function(path: str | Path, group: FiniteGroup | None = None) -> GroupFunction:
    return function_from_json(load_json(path), group=group, base=Path(path).parent)


def matrix_to_json(mat: np.ndarray) -> dict:
    m = np.asarray(mat, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def table_to_json(table) -> dict:
    return {
        "dims": list(table.dims),
        "class_sizes": list(table.class_sizes),
        "class_reps": list(table.class_reps),
        "chars_re": table.chars.real.tolist(),
        "chars_im": table.chars.imag.tolist(),
    }


def descriptor_to_json(desc: AffineHomeoDescriptor) -> dict:
    return {
        "sigma": list(desc.sigma),
        "unitaries": [matrix_to_json(u) for u in desc.unitaries],
        "transpose": [bool(b) for b in desc.transpose],
    }


def pairs_from_json(obj: dict, group: FiniteGroup, base: Path | None = None):
    """Sampled map: {"pairs": [{"in": <function>, "out": <function>}, ...]}."""
    entries = _need(obj, "pairs", "samples")
    if not isinstance(entries, list):
        raise InputFormatError("samples: 'pairs' must be a list")
    pairs = []
    for i, entry in enumerate(entries):
        fin = function_from_json(_need(entry, "in", f"pair {i}"), group=group, base=base)
        fout = function_from_json(_need(entry, "out", f"pair {i}"), group=group, base=base)
        pairs.append((fin, fout))
    return pairs
