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
import itertools
import json

import numpy as np

from .dual import DualMatrix, DualVector
from .errors import DimensionError
from .realkernel import _count, _real

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
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"'name' must be a string, got {name!r}")
    rows = _count(doc.get("rows"), "'rows'")
    cols = _count(doc.get("cols", 1 if vector else None), "'cols'")
    std, inf = [_parse_part(doc, key, rows, cols)
                for key in ("standard", "infinitesimal")]
    if vector and cols != 1:
        raise DimensionError(f"vector file must have cols = 1, got {cols}")
    value = (DualVector(std.ravel(), inf.ravel()) if vector
             else DualMatrix(std, inf))
    return name, value, hashlib.sha256(data).hexdigest()


#: The JSON names of the Python types ``json`` parses a value into.
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean",
               type(None): "null"}


def _parse_part(doc, key, rows, cols):
    """The array under ``key``, flat or one list per row, as floats:
    every entry a JSON number (NumPy alone would parse a string or a
    boolean as a number), then the array rule, which names ``key``."""
    if key not in doc:
        raise ValueError(f"missing '{key}' array")
    part = doc[key]
    entries = part if isinstance(part, list) else [part]
    if all(type(row) is list for row in entries):
        entries = itertools.chain.from_iterable(entries)
    kinds = set(map(type, entries)) - {int, float}
    if kinds:
        names = sorted(_JSON_TYPES[kind] for kind in kinds)
        raise ValueError(f"'{key}' has entries that are not numbers: "
                         f"{', '.join(names)}")
    try:
        arr = np.asarray(part, dtype=float)
    except OverflowError:
        raise ValueError(f"'{key}' has an integer too large for a "
                         "float") from None
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise ValueError(f"'{key}' has rows of unequal length") from None
    if arr.ndim == 1 and arr.size == rows * cols:
        arr = arr.reshape(rows, cols)
    if arr.shape != (rows, cols):
        raise DimensionError(f"'{key}' has shape {arr.shape}, declared "
                             f"({rows}, {cols})")
    return _real(arr, f"'{key}'")  # a literal such as 1e400 reads as inf


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
