"""Summary statistics shared by every benchmark metric.

Two rules live here and nowhere else:

* the percentile rule: a timing is reported as its median plus its p90 when
  at least ``MIN_BEYOND`` samples lie beyond the p90 (else the median again),
  together with the sample count and the percentile the tail holds (for
  runs summarised pass by pass, ``pooled`` takes the median over passes);
* span self time: a span's duration minus the part of its interval that its
  child spans cover (children may overlap each other, as spans from
  different threads do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_BEYOND = 10
TAIL_CANDIDATES = (90, 50)


@dataclass(frozen=True)
class Summary:
    n: int
    p50: float
    tail_pct: int  # which percentile ``tail`` holds
    tail: float


def samples_beyond(n: int, pct: int) -> int:
    """Samples ranked strictly above the pct-th percentile of n samples.

    ``percentile`` interpolates at 0-based rank (n - 1) * pct / 100, so the
    samples beyond it are the ranks above the floor of that position.
    """
    return n - 1 - (n - 1) * pct // 100


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if len(sorted_values) == 0:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def summarize(values) -> Summary:
    """Median plus p90 when MIN_BEYOND samples lie beyond it, else the median.

    With fewer samples than any candidate needs, the tail falls back to the
    median. An empty sample set gives n=0 and zeros.
    """
    ordered = np.sort(np.asarray(values, dtype=np.float64))  # 8 bytes per sample
    n = len(ordered)
    if n == 0:
        return Summary(0, 0.0, 50, 0.0)
    tail_pct = next(
        (p for p in TAIL_CANDIDATES if samples_beyond(n, p) >= MIN_BEYOND), 50
    )
    return Summary(n, float(percentile(ordered, 50)), tail_pct,
                   float(percentile(ordered, tail_pct)))


def pooled(summaries) -> Summary:
    """One summary of runs that were summarised apart.

    The median over runs of each run's median and of each run's tail, with
    the runs' sample counts added up. The tail is the lowest percentile
    every run reached: with the candidates (90, 50), a run that reached p90
    contributes its median when another run fell back to the median.
    """
    summaries = list(summaries)
    if not summaries:
        return Summary(0, 0.0, 50, 0.0)
    pct = min(s.tail_pct for s in summaries)
    return Summary(
        sum(s.n for s in summaries),
        median([s.p50 for s in summaries]),
        pct,
        median([s.tail if s.tail_pct == pct else s.p50 for s in summaries]),
    )


def median(values) -> float:
    return summarize(values).p50


# ---------------------------------------------------------------------------
# intervals and self time
# ---------------------------------------------------------------------------


def merge(intervals) -> list[tuple[int, int]]:
    """Union of half-open intervals as sorted, disjoint (start, end) pairs."""
    out: list[list[int]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            out[-1][1] = max(out[-1][1], end)
        else:
            out.append([start, end])
    return [(s, e) for s, e in out]


def covered(intervals, lo: int, hi: int) -> int:
    """Length of [lo, hi) covered by the union of the intervals."""
    clipped = ((max(s, lo), min(e, hi)) for s, e in intervals)
    return sum(e - s for s, e in merge(clipped))


def uncovered(start: int, end: int, children) -> list[tuple[int, int]]:
    """The parts of [start, end) that no child interval covers."""
    out, cursor = [], start
    for s, e in merge((max(s, start), min(e, end)) for s, e in children):
        if s > cursor:
            out.append((cursor, s))
        cursor = max(cursor, e)
    if cursor < end:
        out.append((cursor, end))
    return out


def self_time(start: int, end: int, children) -> int:
    """Duration of [start, end) not covered by any child interval."""
    return sum(e - s for s, e in uncovered(start, end, children))


def self_intervals(spans) -> dict[int, list[tuple[int, int]]]:
    """Self intervals of every span in an iterable of (id, start, end, parent).

    A parent of -1 (or one not in the set) marks a root.
    """
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    return {sid: uncovered(start, end, children.get(sid, ())) for sid, start, end, _ in spans}
