"""The benchmark's arithmetic: medians, the tail-percentile rule, geometric
means and span self time. Kept free of I/O so test_perfbench.py can check
every rule directly."""

import math
import statistics

TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile that still has at least `min_beyond` samples
    beyond it: with n sorted samples, the value at rank n - min_beyond
    (1-based), i.e. percentile 100 * (n - min_beyond) / n.

    Returns (value, percentile, n). With n <= min_beyond no percentile has
    enough samples beyond it; the maximum is returned with percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= min_beyond:
        return xs[-1], 100.0, n
    return xs[n - min_beyond - 1], 100.0 * (n - min_beyond) / n, n


def geomean(values):
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _covered(interval, children):
    """Length of `interval` covered by the union of `children` intervals."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children
                     if min(hi, e) > max(lo, s))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once).

    `spans` is a list of dicts with id, start, end and parent (-1 = root);
    returns {id: self seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered((s["start"], s["end"]), children.get(s["id"], []))
            for s in spans}
