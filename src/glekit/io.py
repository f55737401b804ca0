"""Columnar text files with a commented JSON metadata header.

Format: the first line is ``# {json...}``, the second a comma-separated
column header, then one CSV row per grid node.  Floats are written with
``repr`` so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .volterra import Series, TimeGrid


def write_columns(path, columns: dict[str, np.ndarray], meta: dict) -> None:
    names = list(columns)
    arrays = [np.asarray(columns[n], dtype=float) for n in names]
    length = len(arrays[0])
    for a in arrays:
        if len(a) != length:
            raise ValidationError("all columns must have equal length")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True, default=_json_default) + "\n")
        fh.write(",".join(names) + "\n")
        for i in range(length):
            fh.write(",".join(repr(float(a[i])) for a in arrays) + "\n")


def read_columns(path):
    try:
        with open(path) as fh:
            first = fh.readline()
            header = (fh.readline() if first.startswith("#") else first).strip()
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from exc
    names = header.split(",")
    try:
        meta = json.loads(first[1:].strip()) if first.startswith("#") else {}
        data = np.array(rows, dtype=float)
    except ValueError as exc:  # bad JSON header, non-numeric cell or ragged row
        raise ValidationError(f"malformed {path}: {exc}") from exc
    if data.size == 0:
        raise ValidationError(f"no data rows in {path}")
    if data.shape[1] != len(names):
        raise ValidationError(f"{path} has {len(names)} column names "
                              f"but {data.shape[1]} columns")
    return {n: data[:, i] for i, n in enumerate(names)}, meta


def _json_default(obj):
    from fractions import Fraction
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_series(path, series: Series, meta: dict | None = None,
                 value_name: str = "value") -> None:
    cols = {"t": series.grid.times, value_name: series.values}
    if series.se is not None:
        cols["se"] = series.se
    m = dict(meta or {})
    m.setdefault("dt", series.grid.dt)
    m.setdefault("horizon", series.grid.horizon)
    write_columns(path, cols, m)


def read_series(path, value_name: str | None = None):
    cols, meta = read_columns(path)
    if value_name is None:
        value_name = next((n for n in cols if n not in ("t", "se")), "value")
    for name in ("t", value_name):
        if name not in cols:
            raise ValidationError(f"{path} has no {name!r} column")
    t = cols["t"]
    if len(t) < 2:
        raise ValidationError(f"{path} needs at least two rows")
    dt = float(t[1] - t[0])
    grid = TimeGrid(dt=dt, horizon=float(t[-1]))
    se = cols.get("se")
    return Series(grid, cols[value_name], se=se), meta
