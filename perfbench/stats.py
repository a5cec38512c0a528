"""Order statistics shared by the workloads."""

from __future__ import annotations

import math


def weighted_percentile(pairs: list[tuple[float, int]], q: float) -> float:
    """The *q*-th percentile (nearest rank) of query latencies given as
    ``(latency, queries)`` pairs: a query's latency is the latency of
    the call that answered it, so a call answering *n* queries counts
    *n* times."""
    pairs = sorted(pairs)
    rank = max(1, math.ceil(q / 100.0 * sum(w for _, w in pairs)))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    raise ValueError("percentile of no samples")
