"""Statistics shared by the metrics and the steadiness report."""

import math
import statistics

TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (value, percentile, n): with the samples sorted ascending, the
    value at rank n-beyond-1 (0-based), which has exactly `beyond` samples
    ranked above it, and the percentile of samples at or below it."""
    n = len(xs)
    if n <= beyond:
        raise ValueError("a tail needs more than %d samples, got %d" % (beyond, n))
    s = sorted(xs)
    return s[n - beyond - 1], 100.0 * (n - beyond) / n, n


def fit_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    lx = [math.log(x) for x in sizes]
    ly = [math.log(y) for y in times]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("sizes must differ")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def quartiles(values):
    """The three quartiles, as statistics.quantiles(values, n=4) gives them."""
    return statistics.quantiles(values, n=4)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


# --- open loop ------------------------------------------------------------------

def open_loop(due_ms, sent_ms, done_ms, ok):
    """Per-request latency timed from when the request was due, and the
    generator's lateness (how long after its due time it was sent).  A
    request that failed or was refused has infinite latency, so it misses
    every limit."""
    lat, late = [], []
    for d, s, e, good in zip(due_ms, sent_ms, done_ms, ok):
        lat.append(e - d if good else math.inf)
        late.append(max(0.0, s - d))
    return lat, late


def rung_meets(lat, limit_ms, share=0.99):
    """A rung passes when at least `share` of its requests meet the limit
    and the backlog is not growing: the median latency of its last tenth
    is itself within the limit."""
    if not lat:
        return False
    met = sum(1 for x in lat if x <= limit_ms) / len(lat)
    last = lat[-max(1, len(lat) // 10):]
    return met >= share and median(last) <= limit_ms


def goodput(rates, lat_by_rung, limit_ms):
    """Highest offered rate on the ladder whose rung passes rung_meets;
    0 when none does."""
    best = 0.0
    for rate, lat in zip(rates, lat_by_rung):
        if rung_meets(lat, limit_ms):
            best = max(best, rate)
    return best
