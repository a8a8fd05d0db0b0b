"""Arithmetic behind the benchmark's numbers.

Kept free of drsynth imports so the tests in ``test_bench.py`` can check it
on hand-made inputs: medians and quartiles, ratios with their base, self
time of nested spans, and the run-manifest diff behind ``stages_run``.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, NamedTuple, Sequence


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    A single sample is its own median and both quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def ratio(part: float, base: float) -> float:
    """``part / base``; 0 when the base is 0, so an unused layer reads 0."""
    return part / base if base else 0.0


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


class StageDiff(NamedTuple):
    run: list[str]
    skipped: list[str]
    pruned: list[str]


def manifest_diff(before: Mapping[str, dict], after: Mapping[str, dict]) -> StageDiff:
    """Which stages an op ran, skipped or pruned, from the manifest's stage
    records before and after it.

    A stage ran if its record is new or changed; re-running rewrites
    ``wall_clock`` even when digests come out equal. A stage skipped keeps
    its record unchanged. A stage pruned is gone from the record after.
    """
    run = sorted(name for name, record in after.items() if before.get(name) != record)
    skipped = sorted(name for name, record in after.items() if before.get(name) == record)
    pruned = sorted(name for name in before if name not in after)
    return StageDiff(run=run, skipped=skipped, pruned=pruned)


def stage_kind(name: str) -> str:
    """``adapt:concat-mixed-syn:seed1`` -> ``adapt``; ``evaluate:baseline:seed1``
    -> ``evaluate``; ``train-base:seed1`` -> ``train-base``."""
    return name.split(":", 1)[0]
