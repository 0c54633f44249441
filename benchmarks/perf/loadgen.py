"""Load generation and the latency statistics the benchmark reports.

Two arrival disciplines:

* :func:`open_loop` sends item ``i`` at ``start + i / rate`` whether or not
  earlier requests finished — independent users.  Latency is timed from the
  *scheduled* send time, so a stall is charged to every request it delayed,
  and :attr:`Outcome.late` records how far the generator itself fell behind.
* :func:`closed_loop` keeps ``outstanding`` callers busy, each sending its
  next item only when the previous one answered — waiting callers.

Both take the clock (and the open loop its sleep) as arguments so the
accounting can be checked against a fake clock.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Sequence

#: A timing is reported at the highest percentile with at least this many
#: samples beyond it, so that the tail rests on more than a few samples.
MIN_TAIL_SAMPLES = 10
#: The tail percentile every timing is reported at, besides its median: the
#: highest with ten samples beyond it at the smallest latency sample the
#: workloads take (the serving workloads' 60 open-loop requests).
TAIL_PERCENTILE = 80


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed(
    values: Sequence[Any], size: int, statistic: Callable[[Sequence[Any]], float]
) -> float:
    """Median, over consecutive windows of ``size`` values, of ``statistic``.

    A trailing partial window is dropped unless it is the only one.  A burst
    of outside interference that spans fewer than half the windows does not
    move the result; anything the program does in every window does.
    """
    windows = [values[i : i + size] for i in range(0, len(values) - size + 1, size)]
    return float(statistics.median(statistic(w) for w in windows or [values]))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th percentile."""
    return n - max(1, math.ceil(q / 100.0 * n)) if n else 0


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-th percentile."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


@dataclass
class Outcome:
    """One request: its input, when it was due, sent and answered."""

    item: Any
    due: float
    sent: float
    done: float
    answer: Any = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the answer."""
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after it was due."""
        return self.sent - self.due


@dataclass
class Phase:
    """The outcomes of one load phase (open: send order, closed: answer order)."""

    kind: str  # "open" or "closed"
    started: float
    finished: float
    outcomes: List[Outcome] = field(default_factory=list)
    #: Closed loop: when callers stopped starting requests.
    stopped: Optional[float] = None

    @property
    def ok(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.error is None]

    @property
    def failed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.error is not None]

    def latencies_ms(self) -> List[float]:
        return [o.latency * 1e3 for o in self.ok]

    def throughput(self) -> float:
        """Answers per second while requests were being started.

        A closed loop counts only the answers that arrived before its callers
        stopped: the requests still in flight then drain at a falling
        concurrency, which is no part of the steady rate.
        """
        end = self.finished if self.stopped is None else self.stopped
        return sum(o.done <= end for o in self.ok) / (end - self.started)


async def _timed(
    send: Callable[[Any], Awaitable[Any]], item: Any, due: float, clock
) -> Outcome:
    sent = clock()
    try:
        answer = await send(item)
    except Exception as error:  # noqa: BLE001 - a failed request is counted, not fatal
        return Outcome(item, due, sent, clock(), error=error)
    return Outcome(item, due, sent, clock(), answer=answer)


async def open_loop(
    send: Callable[[Any], Awaitable[Any]],
    items: Sequence[Any],
    rate: float,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
) -> Phase:
    """Send ``items`` at a uniform ``rate`` (per second), never waiting for answers."""
    started = clock()
    tasks = []
    for index, item in enumerate(items):
        due = started + index / rate
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        tasks.append(asyncio.ensure_future(_timed(send, item, due, clock)))
    outcomes = await asyncio.gather(*tasks)
    return Phase("open", started, clock(), list(outcomes))


async def closed_loop(
    send: Callable[[Any], Awaitable[Any]],
    next_item: Callable[[], Any],
    outstanding: int,
    seconds: float,
    min_requests: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """``outstanding`` callers each send, await, and send again until time is up.

    A caller starts no request after ``seconds`` have elapsed, unless fewer
    than ``min_requests`` have been sent.  Latency is timed from each send.
    """
    started = clock()
    stop = started + seconds
    outcomes: List[Outcome] = []

    async def caller() -> None:
        while clock() < stop or len(outcomes) < min_requests:
            item = next_item()
            outcomes.append(await _timed(send, item, clock(), clock))

    await asyncio.gather(*(caller() for _ in range(outstanding)))
    return Phase("closed", started, clock(), outcomes, stopped=stop)
