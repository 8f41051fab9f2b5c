"""Statistics of the benchmark: medians, tail percentiles, span self
times and the compare verdict. Pure functions, tested by
test_perfbench.py."""

import statistics
from collections import defaultdict

# Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
# A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as `statistics.quantiles(values, n=4)`
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else float("inf")


def percentile(values, p):
    """The p-th percentile, interpolating linearly between ranks."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    rank = p / 100.0 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def tail_percentile(values):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND
    samples beyond it, as (percentile, value, sample count); the
    percentile is None when there are too few samples for any."""
    n = len(values)
    chosen = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            chosen = p
    if chosen is None:
        return None, None, n
    return chosen, percentile(values, chosen), n


def self_times(spans):
    """Self time of every span, in the units of its start and end.

    `spans` holds (id, parent, start, end) tuples; parent 0 is a root.
    At each instant the time is split evenly among the spans that are
    open and have no open child, so on one thread a span's self time is
    its length minus the part its children cover, and spans that run in
    parallel on several threads share the instants they overlap. The
    self times of a tree therefore add up to the time its spans cover.
    Returns {id: self time}."""
    parent = {sid: par for sid, par, _, _ in spans}

    def depth(sid):
        d = 0
        while parent.get(sid, 0) in parent:
            sid = parent[sid]
            d += 1
        return d

    events = []
    for sid, _, start, end in spans:
        d = depth(sid)
        # At equal times starts go first (so a span of length zero opens
        # before it closes), a parent's start before its child's, and a
        # child's end before its parent's.
        events.append((start, 0, d, sid))
        events.append((end, 1, -d, sid))
    events.sort()

    open_children = defaultdict(int)
    active = set()
    leaves = set()
    result = {sid: 0.0 for sid, _, _, _ in spans}
    prev = None
    for time, kind, _, sid in events:
        if prev is not None and time > prev and leaves:
            share = (time - prev) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        prev = time
        par = parent[sid]
        if kind == 0:
            active.add(sid)
            leaves.add(sid)
            if par in active:
                open_children[par] += 1
                leaves.discard(par)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if par in active:
                open_children[par] -= 1
                if open_children[par] == 0:
                    leaves.add(par)
    return result


def verdict(parent, change, better, bound):
    """Compare two sets of runs of one metric on one workload.

    `parent` and `change` are the per-run values, paired by index;
    `better` is "higher" or "lower"; `bound` is the share of the parent's
    median by which the change may be worse. Returns (verdict, wins,
    pairs): "improved" when the change wins at least nine tenths of the
    pairs (ties count for neither) and the medians differ by more than
    the distance between the parent's quartiles; "unresolved" when
    either side's spread is wider than the bound, unless every run of
    the change reads better than every run of the parent; "regressed"
    when the change's median is worse by more than the bound; otherwise
    "unchanged"."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    mp, mc = median(parent), median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mc - mp)
    if pairs and wins >= 0.9 * pairs and gain > q3 - q1:
        return "improved", wins, pairs
    worst_change = min(change) if sign > 0 else max(change)
    best_parent = max(parent) if sign > 0 else min(parent)
    every_better = sign * (worst_change - best_parent) > 0
    if max(spread(parent), spread(change)) > bound and not every_better:
        return "unresolved", wins, pairs
    if gain < -bound * abs(mp):
        return "regressed", wins, pairs
    return "unchanged", wins, pairs
