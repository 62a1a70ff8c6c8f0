"""Argument checks shared by every substrate.

The PON substrate and the traffic layer both refuse rates, cycles and
sizes that are not positive finite numbers; the one rule lives here, below
both, so each refuses a bad value with the same message.
"""

from __future__ import annotations

import math

__all__ = ["require_positive"]


def require_positive(name: str, value: float) -> None:
    """Refuse a non-positive, NaN or infinite ``value``, naming it."""
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
