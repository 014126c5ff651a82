"""Summary statistics and operation accounting for the benchmark.

Percentiles use the nearest-rank definition on the sorted samples. A tail
percentile is reported only when at least ``MIN_BEYOND`` samples lie
strictly beyond its rank, so that p95 never rests on a handful of values.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10
# The fewest samples whose nearest-rank p95 has MIN_BEYOND beyond it.
P95_SAMPLES = 200


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)), 1) - 1]


def beyond_count(n: int, q: float) -> int:
    """Samples that lie beyond the nearest-rank ``q``-th percentile of ``n``."""
    return n - max(math.ceil(q / 100.0 * n), 1)


def tail_percentile(values, q: float = 95.0, min_beyond: int = MIN_BEYOND) -> float:
    """``percentile`` that refuses a sample too small for its tail to be trusted."""
    if beyond_count(len(values), q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has fewer than {min_beyond} beyond it"
        )
    return percentile(values, q)


class Outcomes:
    """Operations attempted and failed; a failed check is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, passed: bool, message: str) -> bool:
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.messages.append(message)
        return passed

    def fail(self, message: str) -> None:
        self.check(False, message)

    def merge(self, other: "Outcomes") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages.extend(other.messages)

    @property
    def failure_ratio(self) -> float:
        """Failed over attempted; 0.0 before anything was attempted."""
        return self.failed / self.attempted if self.attempted else 0.0
