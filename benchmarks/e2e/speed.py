"""Machine-speed normalisation of host times.

The sandboxes this benchmark runs in share their cores: the same code runs
up to twice as slow for seconds or minutes at a time, and nothing the
guest can read (steal time, load) shows it.  Measured here, medians of raw
wall time moved 10-20 % between back-to-back runs of one commit and 35 %
between two sets half an hour apart — wider than any gain a later change
could claim.

So every timed interval is bracketed by a fixed *kernel* — a few
milliseconds of the kind of work the simulator does (generator ranks
resumed from a heap, small objects passed through per-rank queues) that
shares no code with ``src/`` — and host times are reported scaled to the
speed the kernel saw::

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

i.e. in seconds of a machine on which the kernel takes ``REFERENCE_S``.
A change to the repo cannot move the kernel, so a real gain shows
undiminished; a change of interpreter or host moves both and cancels.
On interpreter-bound runs this cut the spread of 20-second medians from
13-21 % to 5-7 %, on numpy/pickle-bound ones from 15-17 % to 9-10 % (they
slow down less than the kernel does, so they are over-corrected a little).
The record keeps the raw samples beside the scaled ones.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any, Callable

#: Kernel time on this container (Python 3.11, 2 cores) when it is quiet;
#: scaled times read as raw times do then.
REFERENCE_S = 0.0115

_RANKS = 8
_LAPS = 1200


class _Message:
    __slots__ = ("source", "dest", "tag", "payload")

    def __init__(self, source: int, dest: int, tag: int, payload: tuple) -> None:
        self.source = source
        self.dest = dest
        self.tag = tag
        self.payload = payload


def _rank(rank: int, mailboxes: dict[int, list]):
    right = (rank + 1) % _RANKS
    for lap in range(_LAPS):
        mailboxes[right].append(_Message(rank, right, 1, (lap, rank)))
        while not mailboxes[rank]:
            yield
        message = mailboxes[rank].pop(0)
        if message.payload[0] != lap:
            raise RuntimeError("kernel ring delivered out of order")
        yield


def kernel() -> float:
    """Seconds one fixed token ring of generator ranks takes right now."""
    started = perf_counter()
    mailboxes: dict[int, list] = {rank: [] for rank in range(_RANKS)}
    ranks = [_rank(rank, mailboxes) for rank in range(_RANKS)]
    ready = [(0.0, rank) for rank in range(_RANKS)]
    while ready:
        clock, rank = heapq.heappop(ready)
        try:
            next(ranks[rank])
        except StopIteration:
            continue
        heapq.heappush(ready, (clock + 1e-6 * (rank + 1), rank))
    return perf_counter() - started


def scaled(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two kernels: ``(result, raw seconds, scale)``;
    ``raw * scale`` is the time at reference speed."""
    before = kernel()
    started = perf_counter()
    result = fn()
    raw = perf_counter() - started
    after = kernel()
    return result, raw, REFERENCE_S / ((before + after) / 2.0)
