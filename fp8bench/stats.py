"""Sample statistics and host readings for the benchmark.

Every timing the benchmark reports goes through :func:`summarize`, which
keeps the sample count next to the value so a percentile is never printed
without the number of samples behind it.
"""

from __future__ import annotations

import os
import statistics
from typing import Callable, Iterable, List, Optional, Sequence

#: a percentile is only reported when at least this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (same rule as numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave at least ten beyond the ``q``-th percentile."""
    return count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND


class Sample:
    """A named measurement: value, unit and how many samples produced it."""

    __slots__ = ("value", "unit", "samples")

    def __init__(self, value: float, unit: str, samples: int) -> None:
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)

    def __repr__(self) -> str:
        return f"Sample({self.value!r}, {self.unit!r}, n={self.samples})"


def summarize(values: Sequence[float], q: float, unit: str, scale: float = 1.0) -> Sample:
    """The ``q``-th percentile of ``values`` (times ``scale``) with its sample count.

    Raises ``ValueError`` when the sample is too small for that percentile,
    so a tail is never reported from a handful of points.
    """
    if not supports(len(values), q):
        raise ValueError(
            f"p{q:g} needs {MIN_SAMPLES_BEYOND} samples beyond it; got {len(values)} samples"
        )
    return Sample(percentile(values, q) * scale, unit, len(values))


def summarize_rounds(rounds: Sequence[list], q: float, unit: str, scale: float = 1.0) -> Sample:
    """The ``q``-th percentile of each round, reported as the median over rounds.

    A host slow spell that covers a minority of the rounds then moves the
    figure by little.  Rounds too small to support the percentile on their
    own are merged, consecutive ones together, into the most groups of
    near-equal size that all do; the sample count is the total.
    """
    rounds = [list(r) for r in rounds]
    for groups in range(len(rounds), 0, -1):
        cuts = [len(rounds) * k // groups for k in range(groups + 1)]
        merged = [sum(rounds[a:b], []) for a, b in zip(cuts, cuts[1:])]
        if all(supports(len(m), q) for m in merged):
            break
    values = [summarize(group, q, unit, scale).value for group in merged]
    return Sample(median(values), unit, sum(len(r) for r in rounds))


#: a round in which the hypervisor stole more than this share of CPU time is disturbed
MAX_STEAL = 0.02
#: rounds reported whatever their steal share (the least disturbed ones)
MIN_ROUNDS = 4


def least_disturbed(
    steals: Sequence[Optional[float]], enough: Callable[[List[int]], bool] = lambda kept: True
) -> List[int]:
    """Indices of the rounds to report, in order: every undisturbed round, and at least enough.

    Rounds are ranked by the share of CPU time the hypervisor stole during
    them (``None``, no reading, ranks as 0).  Every round at or below
    :data:`MAX_STEAL` is kept; when that leaves fewer than
    :data:`MIN_ROUNDS`, or too few for ``enough(kept)``, the next least
    disturbed rounds make up the number.
    """
    order = sorted(range(len(steals)), key=lambda i: steals[i] or 0.0)
    kept: List[int] = []
    for index in order:
        disturbed = (steals[index] or 0.0) > MAX_STEAL
        if disturbed and len(kept) >= MIN_ROUNDS and enough(kept):
            break
        kept.append(index)
    return sorted(kept)


def due_latencies(due: Sequence[float], done: Sequence[Optional[float]]) -> List[float]:
    """Open-loop latency of each finished request, timed from when it was due.

    ``due[i]`` is the scheduled send time of request ``i`` and ``done[i]``
    its completion time (``None`` if it never completed).  Timing from the
    due time, not the actual send, charges a stalled generator's backlog to
    the requests it delayed.
    """
    if len(due) != len(done):
        raise ValueError(f"{len(due)} due times for {len(done)} completions")
    return [end - start for start, end in zip(due, done) if end is not None]


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


# ----------------------------------------------------------------------
# host and memory readings (Linux /proc; absent elsewhere)
# ----------------------------------------------------------------------
def cpu_times() -> Optional[List[int]]:
    """Aggregate jiffies from ``/proc/stat``: user nice system idle iowait irq softirq steal."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time stolen by the hypervisor between two :func:`cpu_times` readings."""
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def load_average() -> Optional[float]:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def pss_mb(pids: Iterable[int]) -> float:
    """Proportional set size summed over ``pids``, in MB (shared pages split fairly)."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


def host_snapshot() -> dict:
    return {"cpu": cpu_times(), "load1": load_average()}


#: a zero reading, so that ``steal_share(BOOT, now)`` is the share since boot
BOOT = [0] * 8
