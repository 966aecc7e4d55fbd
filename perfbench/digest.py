"""Canonical digests of a sweep's ``RunSet.to_records()`` rows.

Every float is rendered with ``float.hex`` (lossless, as
``repro.reporting.golden`` does), so equal digests mean equal floats.
Columns that record *how* a point was served rather than what it
computed are dropped: ``from_cache`` (False on a cold sweep, True on a
warm one) and the ``pool_*`` execution columns.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from typing import Any, Iterable, Mapping, Optional

__all__ = ["canonical", "row_digest", "sweep_digest"]


def _bookkeeping(column: str) -> bool:
    return column == "from_cache" or column.startswith("pool_")


def canonical(value: Any) -> str:
    """Deterministic text for a record value (floats via ``float.hex``)."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, Mapping):
        items = sorted(value.items())
        return "{" + ",".join(
            json.dumps(str(k)) + ":" + canonical(v) for k, v in items
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"cannot digest a record value of type {type(value).__name__}")


def row_digest(row: Mapping[str, Any]) -> str:
    """sha256 of one record row without its bookkeeping columns."""
    kept = {k: v for k, v in row.items() if not _bookkeeping(k)}
    return hashlib.sha256(canonical(kept).encode("utf-8")).hexdigest()


def sweep_digest(row_digests: Iterable[Optional[str]]) -> str:
    """sha256 over a sweep's per-point digests, in plan order.

    A point that failed (``None``) is rendered as ``failed``, so a sweep
    with a failed point never matches a clean one.
    """
    text = "\n".join(d if d is not None else "failed" for d in row_digests)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
