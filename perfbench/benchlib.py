"""Arithmetic of the perfbench benchmark: order statistics, span self time, open-loop
latency. Pure functions over plain lists, so perfbench/selftest.py can pin every one of
them on hand-made inputs."""

import math
import statistics

# Percentiles a tail figure may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First and third quartile the way statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def percentile(values, p):
    """Linear interpolation between order statistics (rank p/100 * (n - 1))."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(values, wanted=90.0):
    """The percentile a tail figure is reported at: `wanted` if at least MIN_BEYOND
    samples lie beyond it, else the highest ladder percentile that has that many, else
    the median. Returns (percentile, value, sample count)."""
    n = len(values)
    for p in TAIL_LADDER:
        # n * (100 - p) / 100 samples lie beyond p; the tolerance absorbs the rounding
        # of 100 - p (100 - 99.9 is not exactly 0.1 in binary).
        if p <= wanted and n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p, percentile(values, p), n
    return 50.0, median(values), n


def union_length(intervals):
    """Total length covered by a set of possibly overlapping [start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its children cover.
    Children from several lanes may overlap each other; the covered part counts once.
    `spans` are dicts with start_ns, end_ns and parent (index or -1)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append(span)
    result = []
    for span, kids in zip(spans, children):
        start, end = span["start_ns"], span["end_ns"]
        covered = union_length(
            [(max(k["start_ns"], start), min(k["end_ns"], end)) for k in kids])
        result.append(end - start - covered)
    return result


def self_time_by_name(spans):
    """{span name: (total duration ns, total self time ns, count)}."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        duration, self_ns, count = table.get(span["name"], (0, 0, 0))
        table[span["name"]] = (duration + span["end_ns"] - span["start_ns"],
                               self_ns + own, count + 1)
    return table


def open_loop(requests):
    """Latency of each open-loop request timed from when it was due, and how late the
    generator sent it. `requests` are dicts with due_ns, start_ns and end_ns. Returns
    (latencies_ns, lateness_ns)."""
    latencies = [r["end_ns"] - r["due_ns"] for r in requests]
    lateness = [max(0, r["start_ns"] - r["due_ns"]) for r in requests]
    return latencies, lateness


def finite(value):
    """True for a real number JSON can carry (no inf, no NaN)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and \
        math.isfinite(value)
