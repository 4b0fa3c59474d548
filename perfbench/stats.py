"""Tail percentile of the benchmark's op timings."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile of ``values`` and how many samples lie
    beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 6)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """(percentile, value, samples beyond) for the highest percentile on
    the ladder that leaves at least ten samples beyond it; None when even
    the median does not."""
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= MIN_BEYOND:
            return pct, value, beyond
    return None
