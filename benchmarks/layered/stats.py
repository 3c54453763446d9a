"""The three statistics every number of the benchmark is built from.

Pure functions, no clock and no state, so they are unit-tested directly
(``tests/test_layered_stats.py``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

#: Passes discarded before a floor is taken: lazy imports, allocator growth
#: and cold CPU caches land in the first two replays of the op list.
WARMUP_PASSES = 2


def floor(samples: Sequence[float], warmup: int = WARMUP_PASSES) -> float:
    """An operation's floor: its minimum over passes, warm-up discarded.

    The floor is the statistic that repeats on a shared 2-core host: a
    noisy neighbour only ever *adds* time to a pass, so the minimum over
    enough passes converges on the quiet-machine cost while medians and
    percentiles of raw samples follow the neighbour.
    """
    kept = samples[warmup:]
    if not kept:
        raise ValueError(
            f"floor needs more than {warmup} samples (warm-up), got {len(samples)}"
        )
    return min(kept)


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``percentile`` % of the values at or below it (always a member of
    ``values``, never interpolated)."""
    if not values:
        raise ValueError("nearest_rank of an empty sequence")
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def span_self_times(spans: Sequence[Tuple[int, float, float]]) -> List[float]:
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of ``(parent_index, start, end)`` with
    ``parent_index == -1`` for roots.  A child's interval is clipped to its
    parent's, and overlapping children are merged before subtracting, so a
    span's self time is never negative and the self times of a tree sum to
    the root's duration.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, (parent, start, end) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {index} ends before it starts")
        if parent >= 0:
            if parent >= len(spans) or parent == index:
                raise ValueError(f"span {index} has bad parent {parent}")
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_parent, start, end) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result
