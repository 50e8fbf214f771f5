"""The harness's arithmetic: percentiles, interval unions, self time,
grouping spans by op, and blocking-path attribution.

Spans are tuples ``(id, parent, name, start, end, op, tag)`` as
:mod:`perfbench.spans` records them; nothing here imports ``repro``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

SID, PARENT, NAME, START, END, OP, TAG = range(7)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) by linear interpolation between
    closest ranks; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile — a
    tail percentile is reported only with at least ten beyond it."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(span: Sequence, children: Iterable[Sequence]) -> float:
    """A span's duration minus the union of its children's intervals,
    each child clipped to the parent's own interval."""
    start, end = span[START], span[END]
    clipped = [(max(child[START], start), min(child[END], end)) for child in children]
    return (end - start) - union_length(clipped)


def children_index(spans: Iterable[Sequence]) -> dict:
    """Parent id → child spans."""
    index: dict = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            index[span[PARENT]].append(span)
    return index


def by_op(spans: Iterable[Sequence]) -> dict:
    """Op id → the spans recorded for it, from any process."""
    grouped: dict = defaultdict(list)
    for span in spans:
        if span[OP] is not None:
            grouped[span[OP]].append(span)
    return grouped


def merge(client: list, server: list) -> list:
    """One span list from two processes: ids and parent links of the
    server's spans are offset so they cannot collide with the client's."""
    offset = 1 + max((span[SID] for span in client), default=0)
    moved = []
    for span in server:
        span = list(span)
        span[SID] += offset
        if span[PARENT] is not None:
            span[PARENT] += offset
        moved.append(tuple(span))
    return list(client) + moved


def ancestors(span: Sequence, by_id: dict):
    """Yield each ancestor of ``span`` (nearest first)."""
    seen = 0
    parent = span[PARENT]
    while parent is not None and parent in by_id and seen < 256:
        ancestor = by_id[parent]
        yield ancestor
        parent = ancestor[PARENT]
        seen += 1


def attribute(root: Sequence, spans: Iterable[Sequence], layer_of) -> dict[str, float]:
    """Split ``root``'s interval among ``spans`` along the blocking path.

    Each instant goes to the most deeply nested span covering it — the
    covering span that started last — and is charged to that span's
    layer (``layer_of(name)``; ``None`` skips the span). Instants no span
    covers are left out, so ``root`` duration minus the sum of the result
    is the unattributed time.
    """
    start, end = root[START], root[END]
    events = []
    for span in spans:
        if span is root or layer_of(span[NAME]) is None:
            continue
        lo, hi = max(span[START], start), min(span[END], end)
        if hi > lo:
            events.append((lo, hi, span[START], layer_of(span[NAME])))
    if not events:
        return {}
    cuts = sorted({point for event in events for point in event[:2]})
    attributed: dict[str, float] = defaultdict(float)
    events.sort()
    active: list = []
    next_event = 0
    for left, right in zip(cuts, cuts[1:]):
        while next_event < len(events) and events[next_event][0] <= left:
            active.append(events[next_event])
            next_event += 1
        active = [event for event in active if event[1] > left]
        if active:
            deepest = max(active, key=lambda event: event[2])
            attributed[deepest[3]] += right - left
    return dict(attributed)
