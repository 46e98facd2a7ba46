"""Reading and writing dual matrices/vectors as JSON documents.

A dual matrix file is a single self-describing JSON object:

    {
      "name": "example",
      "rows": 3,
      "cols": 3,
      "standard": [[...], ...],
      "infinitesimal": [[...], ...]
    }

Both parts must be present (the infinitesimal part may be all zero).
Values are written as decimal text with full round-trip precision
(Python's shortest-repr float formatting, up to 17 significant digits).
"""

import json

import numpy as np

from .dual import DualMatrix, DualVector
from .errors import DimensionError

__all__ = [
    "read_dual_matrix",
    "read_dual_vector",
    "write_dual_matrix",
    "dual_matrix_to_dict",
    "dual_vector_to_dict",
]


def _load(path, cols=None):
    """(name, standard, infinitesimal) of a document whose 'cols'
    defaults to ``cols``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    try:
        rows, cols = _size(doc["rows"]), _size(doc.get("cols", cols))
        parts = [_parse_part(doc, key, rows, cols)
                 for key in ("standard", "infinitesimal")]
    except TypeError as exc:  # a null or nested entry in an array, ...
        raise ValueError(f"malformed document: {exc}") from None
    return doc.get("name", ""), *parts


def _size(value):
    """A declared 'rows' or 'cols': a JSON integer >= 0, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"'rows' and 'cols' must be integers >= 0, "
                         f"got {value!r}")
    return value


def _parse_part(doc, key, rows, cols):
    if key not in doc:
        raise ValueError(f"missing '{key}' array")
    arr = np.asarray(doc[key], dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionError(f"'{key}' has shape {arr.shape}, declared "
                             f"({rows}, {cols})")
    return arr


def read_dual_matrix(path):
    """Read a dual matrix document; returns (name, DualMatrix)."""
    name, std, inf = _load(path)
    return name, DualMatrix(std, inf)


def read_dual_vector(path):
    """Read a dual vector document (rows x 1, or flat arrays)."""
    name, std, inf = _load(path, cols=1)
    if std.shape[1] != 1:
        raise DimensionError(f"vector file must have cols = 1, "
                             f"got {std.shape[1]}")
    return name, DualVector(std.ravel(), inf.ravel())


def dual_matrix_to_dict(mh, name=""):
    return {
        "name": name,
        "rows": mh.shape[0],
        "cols": mh.shape[1],
        "standard": mh.std.tolist(),
        "infinitesimal": mh.inf.tolist(),
    }


def dual_vector_to_dict(vh, name=""):
    return {
        "name": name,
        "rows": len(vh),
        "cols": 1,
        "standard": vh.std.tolist(),
        "infinitesimal": vh.inf.tolist(),
    }


def write_dual_matrix(path, mh, name=""):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dual_matrix_to_dict(mh, name), fh, indent=2)
        fh.write("\n")
