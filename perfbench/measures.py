"""Pure helpers: percentiles, due-time latency, span self time, spread."""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Sequence

#: a reported tail percentile keeps at least this many samples beyond it
MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values: Iterable[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``MIN_BEYOND`` samples above it.

    Returns ``(value, percentile, count)``.  With 1000 samples that is the
    990th smallest (p99.0); with 100 samples the 90th (p90.0).  Fewer than
    ``2 * MIN_BEYOND + 1`` samples have no such percentile above the
    median: the median is returned, labelled p50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 2 * MIN_BEYOND:
        return statistics.median(ordered), 50.0, n
    index = n - MIN_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def due_latencies(records: Sequence[dict]) -> tuple[list[float], list[float]]:
    """Latency and generator lateness of sent requests, in seconds.

    Every request is timed from when it was *due*: its schedule slot in an
    open loop, so a stall that delays later sends is charged to them, and
    its send time in a closed loop, where the two coincide.  Lateness is
    ``sent - due``.
    """
    latencies, lateness = [], []
    for record in records:
        latencies.append(record["recv"] - record["due"])
        lateness.append(record["sent"] - record["due"])
    return latencies, lateness


def rate(records: Sequence[dict], scaled: bool) -> float:
    """Ok answers per second of the phase's segments, gaps excluded.

    Each segment lasts from its first send to its last answer; with
    ``scaled`` its length is multiplied by the segment's ``scale``.
    """
    spans: dict[int, tuple[float, float, float]] = {}
    for r in records:
        lo, hi, factor = spans.get(r["segment"], (r["sent"], r["recv"], r["scale"]))
        spans[r["segment"]] = (min(lo, r["sent"]), max(hi, r["recv"]), factor)
    seconds = sum((hi - lo) * (factor if scaled else 1.0) for lo, hi, factor in spans.values())
    return sum(1 for r in records if r["response"].get("ok")) / seconds


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cursor = 0.0, lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[dict]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``start``, ``end`` and ``parent`` (the index
    of the parent span in the same sequence, or ``None``).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return [
        (span["end"] - span["start"])
        - covered(children.get(i, ()), span["start"], span["end"])
        for i, span in enumerate(spans)
    ]


def quartile_spread(values: Sequence[float]) -> float:
    """``(Q3 - Q1) / median`` as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
