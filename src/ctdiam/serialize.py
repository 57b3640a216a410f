"""The one format of every artifact file, CSV or JSON.

A CSV float cell holds 17 significant digits, so it reads back to the
same float64, and a missing value is an empty cell.  A JSON document is
standard JSON indented by 2 with a final newline: non-finite floats
become the strings 'inf', '-inf' and 'nan', fractions the exact string
'p/q'.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction


def fmt(value) -> str:
    """A CSV cell: "" for None, else the value to 17 significant digits."""
    return "" if value is None else format(value, ".17g")


def json_safe(obj):
    """Recursively convert report objects to JSON-serializable values.

    Non-finite floats, numpy's included, become strings so the output
    stays standard JSON; fractions are serialized exactly as 'p/q' strings.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(float(obj))
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if hasattr(obj, "__dataclass_fields__"):
        return {name: json_safe(getattr(obj, name)) for name in obj.__dataclass_fields__}
    return obj


def write_csv(path, rows) -> None:
    """Write `rows`, each a list of cells, as one CSV file."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path, payload) -> None:
    """Write `payload` through `json_safe` as one JSON document."""
    with open(path, "w") as fh:
        json.dump(json_safe(payload), fh, indent=2)
        fh.write("\n")
