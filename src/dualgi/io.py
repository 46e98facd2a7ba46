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

import hashlib
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


def _read(path, vector=False):
    """(name, DualMatrix, SHA-256 hex digest of the bytes parsed) of
    the document at ``path``; with ``vector``, a DualVector ('cols' 1
    by default) in place of the DualMatrix."""
    with open(path, "rb") as fh:
        data = fh.read()
    doc = json.loads(data.decode("utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    try:
        rows = _size(doc.get("rows"))
        cols = _size(doc.get("cols", 1 if vector else None))
        std, inf = [_parse_part(doc, key, rows, cols)
                    for key in ("standard", "infinitesimal")]
    except TypeError as exc:  # a null or nested entry in an array, ...
        raise ValueError(f"malformed document: {exc}") from None
    if vector and cols != 1:
        raise DimensionError(f"vector file must have cols = 1, got {cols}")
    value = (DualVector(std.ravel(), inf.ravel()) if vector
             else DualMatrix(std, inf))
    return doc.get("name", ""), value, hashlib.sha256(data).hexdigest()


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
    if arr.ndim == 1 and arr.size == rows * cols:
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionError(f"'{key}' has shape {arr.shape}, declared "
                             f"({rows}, {cols})")
    return arr


def read_dual_matrix(path):
    """Read a dual matrix document; returns (name, DualMatrix)."""
    return _read(path)[:2]


def read_dual_vector(path):
    """Read a dual vector document (rows x 1, or flat arrays)."""
    return _read(path, vector=True)[:2]


def dual_matrix_to_dict(mh, name=""):
    """The document of a dual matrix, or of a dual vector as the n x 1
    case with flat arrays."""
    rows, cols = mh.std.shape if mh.std.ndim == 2 else (len(mh.std), 1)
    return {
        "name": name,
        "rows": rows,
        "cols": cols,
        "standard": mh.std.tolist(),
        "infinitesimal": mh.inf.tolist(),
    }


dual_vector_to_dict = dual_matrix_to_dict


def write_dual_matrix(path, mh, name=""):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dual_matrix_to_dict(mh, name), fh, indent=2)
        fh.write("\n")
