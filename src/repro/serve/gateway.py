"""Overload-hardened request gateway: micro-batching with graceful degradation.

Clients send *independent single-region* predict requests, while
everything below this layer speaks batches: one
:meth:`~repro.core.tuner.PnPTuner.predict_sweep_many` call per fleet node is
how the encoder amortises its GNN pass.  The asyncio :class:`Gateway` is the
front door that turns one shape into the other — and hardens the whole path
against the ways a front door melts:

* **Adaptive micro-batching** — requests are routed over the serving
  members with the same consistent-hash ring the fleet itself shards by
  (warm per-node caches) and grouped by ``(node, power_caps, dtype)``.  A
  node gets one batch at a time, as its request socket carries one call
  at a time: a request for a node with no call in flight is dispatched at
  once, while one for a busy node waits until that node's call returns —
  at most ``window_s`` (default 5 ms, a cap) — and whoever arrives for the
  node meanwhile joins its batch.  This is adaptive batching as in Clipper
  (Crankshaw et al., NSDI'17): an idle node costs no wait, a busy one gets
  a batch, and no call waits on a node's socket behind another.
* **Admission control & backpressure** — the pending queue is bounded;
  beyond ``max_pending`` the gateway sheds *immediately* with
  :exc:`GatewayOverloaded`, which carries the queue depth and a
  retry-after hint instead of growing memory without bound.
* **Per-request deadlines, end to end** — every request carries an absolute
  deadline.  The batcher never admits a request into a batch whose expected
  completion (observed p50 node latency) exceeds its deadline, expired
  requests fail fast with :exc:`DeadlineExceeded`, and the per-node RPC runs
  under the remaining budget via ``rpc.request(..., timeout=)`` — a hung
  node costs the deadline, never an unbounded hang.
* **Hedged retries** — a batch stuck on a slow node is hedged onto another
  serving node after a latency-percentile delay, once some node has
  nothing to do (no call in flight, no request waiting for it); the first
  answer wins (every path is byte-identical, so duplicates are harmless).
* **Graceful degradation** — with *no* serving node (all DEAD), the gateway
  answers from a rate-limited in-process fallback predictor rebuilt from
  the registered spec + weights
  (:meth:`~repro.serve.fleet.FleetClient.local_fallback_predictor` — the
  same :func:`~repro.serve.spec.build_predictor_from_update` path the
  nodes use, tiered micro/GNN when a distilled blob is registered, so the
  slow path keeps the fleet's serving semantics byte for byte).  The
  fallback is rebuilt whenever the client's ``weights_version`` moves, so
  a rolling update reaches the degraded path too.  Beyond the
  token-bucket rate the fallback sheds with :exc:`GatewayOverloaded`
  rather than sinking the process, and :meth:`Gateway.stats` reports the
  degraded mode.

Request lifecycle: **admit → coalesce → dispatch → hedge → degrade**, where
*coalesce* costs nothing while the request's node has no call in flight::

    async with Gateway(fleet.client) as gateway:
        results = await gateway.predict_sweep(region, power_caps)
        # == tuner.predict_sweep(region, power_caps), byte-identical

The gateway talks to any client exposing ``serving_nodes()``,
``sweep_node(index, regions, caps, dtype=, timeout=)``, ``weights_version``
and ``local_fallback_predictor()`` — the real
:class:`~repro.serve.fleet.FleetClient` or a deterministic fake
(``tests/serve/test_gateway.py``).  ``sweep_node`` marks a node it could not
reach as unserving, so the client is the one authority on node health and
the gateway keeps no health state of its own.  A failed node call splits
two ways: a transport failure or timeout requeues the batch onto the nodes
still serving, while an :exc:`~repro.serve.rpc.RemoteError` — the node's
answer to a bad request — fails every request of that batch at once,
unretried, and leaves the node serving.
"""

from __future__ import annotations

import asyncio
import bisect
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.tuner import TuningResult
from repro.openmp.region import RegionCharacteristics
from repro.serve import rpc
from repro.serve.predictor import DeadlineExceeded
from repro.serve.sharding import shared_ring
from repro.utils.logging import get_logger

__all__ = ["DeadlineExceeded", "Gateway", "GatewayOverloaded"]

_LOG = get_logger("serve.gateway")


class GatewayOverloaded(RuntimeError):
    """The gateway shed this request instead of queueing it unboundedly.

    ``queue_depth`` is the pending-queue depth at shed time and
    ``retry_after_s`` a hint for when capacity is expected back — clients
    should back off at least that long before retrying.
    """

    def __init__(self, message: str, queue_depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"{message} (queue depth {queue_depth}, retry in ~{retry_after_s:.3f}s)"
        )
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s


class _TokenBucket:
    """Rate limiter for the degraded slow path (tokens/s with a burst cap)."""

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        self._rate = float(rate)
        self._capacity = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self._capacity, self._tokens + (now - self._updated) * self._rate
        )
        self._updated = now

    def try_acquire(self, amount: float = 1.0) -> bool:
        self._refill()
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False

    def retry_after(self, amount: float = 1.0) -> float:
        self._refill()
        return max(0.0, (amount - self._tokens) / self._rate)


@dataclass
class _Pending:
    """One admitted request waiting in (or re-entering) the batcher."""

    request_id: int
    region: RegionCharacteristics
    power_caps: Tuple[float, ...]
    dtype: Optional[str]
    deadline: float  # absolute event-loop time
    future: asyncio.Future
    queued: float = 0.0  # event-loop time of admission
    attempts: int = 0
    avoid: Set[int] = field(default_factory=set)  # nodes that already failed it
    # The last routing decision and the members it was made over, so a
    # request waiting for its node is not hashed again on every pass.
    routed_over: Tuple[int, ...] = ()
    node: Optional[int] = None


class Gateway:
    """Asyncio front door over a fleet client: admit → coalesce → dispatch →
    hedge → degrade.

    Construct over a :class:`~repro.serve.fleet.FleetClient` (or any object
    with the same ``serving_nodes`` / ``sweep_node`` / ``weights_version`` /
    ``local_fallback_predictor`` surface), ``await start()`` (or use ``async
    with``), then issue any number of concurrent
    :meth:`predict` / :meth:`predict_sweep` calls.  All tunables have
    load-tested defaults.
    """

    #: A slow batch is hedged after this percentile of recent node round
    #: trips (never sooner than ``hedge_delay_floor``).
    HEDGE_PERCENTILE = 95.0

    def __init__(
        self,
        client,
        window_s: float = 0.005,
        max_pending: int = 1024,
        default_timeout: float = 10.0,
        max_attempts: int = 3,
        hedge_delay_floor: float = 0.05,
        fallback_rate: float = 8.0,
        fallback_burst: float = 8.0,
    ) -> None:
        self._client = client
        self._window_s = float(window_s)
        self._max_pending = max(1, int(max_pending))
        self._default_timeout = float(default_timeout)
        self._max_attempts = max(1, int(max_attempts))
        # The 50 ms hedge floor is far above a warm round trip (a 1.2-1.5 ms
        # ``sweep_node`` p50 on no-delay sockets), so only a stuck call is
        # hedged, not a busy one.  A floor under the p95 round trip would
        # hedge every call past it, one in twenty, and run each of those
        # batches twice.  Under load a cold batch can still pass 50 ms while
        # the host is slow; hedges then go only to a node with nothing to do
        # (``_pick_hedge_node``).  Traced benchmark runs on a 2-core VM
        # hedged 0.03 % (serve_warm) and 1.5 % (serve_novel, whose cold
        # batches build graphs) of dispatches without that rule, and none
        # with it.
        self._hedge_floor = float(hedge_delay_floor)
        self._fallback_bucket = _TokenBucket(fallback_rate, fallback_burst)
        self._fallback_predictor = None
        self._fallback_version: Optional[int] = None
        self._fallback_lock = threading.Lock()
        self._queue: List[_Pending] = []
        # Calls in flight per node (primary and hedge), counted from the
        # moment their task is created.  A call whose task is cancelled (a
        # hedge loser) counts as returned at once, though its executor
        # thread may still hold the node's socket until the node answers.
        self._node_calls: Dict[int, int] = {}
        self._window_timer: Optional[asyncio.TimerHandle] = None
        self._latencies: List[float] = []  # recent node round trips (bounded)
        # The same round trips in ascending order, and the two ranks the
        # batcher and the hedger read, both kept by ``_record_latency``.
        self._ordered_latencies: List[float] = []
        self._median_latency = 0.0
        self._hedge_latency = 0.0
        self._request_ids = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._batcher: Optional[asyncio.Task] = None
        self._dispatches: Set[asyncio.Task] = set()
        self._started = False
        self._closed = False
        self._stats = {
            "admitted": 0,
            "completed": 0,
            "shed": 0,
            "expired": 0,
            "deadline_rejected": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "retries": 0,
            "fallbacks": 0,
            "fallback_shed": 0,
            "failed": 0,
        }
        self._degraded = False

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> "Gateway":
        """Bind to the running loop and start the batcher task."""
        if self._started:
            raise RuntimeError("Gateway is already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._batcher = self._loop.create_task(self._batch_loop())
        self._started = True
        _LOG.info(
            "gateway up (window %.1f ms, max pending %d)",
            self._window_s * 1e3,
            self._max_pending,
        )
        return self

    async def close(self) -> None:
        """Stop the batcher; every still-queued request fails immediately."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        self._wake.set()
        await self._batcher
        if self._window_timer is not None:
            self._window_timer.cancel()
        for task in list(self._dispatches):
            task.cancel()
        await asyncio.gather(*self._dispatches, return_exceptions=True)
        for pending in self._queue:
            self._fail(pending, RuntimeError("gateway closed"))
        self._queue.clear()
        _LOG.info("gateway closed (%d served)", self._stats["completed"])

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -------------------------------------------------------------- admission
    async def predict(
        self,
        region: RegionCharacteristics,
        power_cap: Optional[float] = None,
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> TuningResult:
        """One single-region, single-cap prediction — the canonical
        :class:`~repro.serve.predictor.Predictor` entry point, async.

        Same signature family as every serving tier (``dtype=`` /
        ``deadline=``); internally a one-cap :meth:`predict_sweep` so the
        request still coalesces with its contemporaries.
        """
        if power_cap is None:
            raise ValueError("power_cap is required for the performance scenario")
        results = await self.predict_sweep(
            region, [power_cap], dtype=dtype, deadline=deadline
        )
        return results[0]

    async def predict_sweep(
        self,
        region: RegionCharacteristics,
        power_caps: Sequence[float],
        *,
        dtype: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> List[TuningResult]:
        """One single-region sweep through the batched fleet path.

        Byte-identical to ``tuner.predict_sweep(region, power_caps,
        dtype=dtype)`` on the registered tuner, whichever node (or the
        degraded fallback) answers.  Raises :exc:`GatewayOverloaded` when
        shed, :exc:`DeadlineExceeded` when the time budget ``deadline``
        (seconds; default ``default_timeout``) cannot be met.
        """
        if not self._started or self._closed:
            raise RuntimeError("Gateway is not running (start() it first)")
        if len(self._queue) >= self._max_pending:
            self._stats["shed"] += 1
            retry_after = self._window_s + self._expected_latency()
            _LOG.warning(
                "shed request for %s: queue full at %d",
                region.region_id,
                len(self._queue),
            )
            raise GatewayOverloaded(
                "gateway pending queue is full", len(self._queue), retry_after
            )
        budget = self._default_timeout if deadline is None else float(deadline)
        pending = _Pending(
            request_id=next(self._request_ids),
            region=region,
            power_caps=tuple(float(cap) for cap in power_caps),
            dtype=dtype,
            deadline=self._loop.time() + budget,
            future=self._loop.create_future(),
            queued=self._loop.time(),
        )
        self._stats["admitted"] += 1
        self._queue.append(pending)
        self._wake.set()
        return await pending.future

    # --------------------------------------------------------------- batching
    async def _batch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            if self._queue:
                self._dispatch_queue()

    def _dispatch_queue(self) -> None:
        """Send each idle node one batch; everything else keeps waiting.

        A node's request socket carries one call at a time, so the gateway
        sends a node one batch at a time: a request routed to a node with a
        call in flight waits in the queue — joining the batch that goes out
        when that call returns — for at most ``window_s``.  A node that
        takes a batch this pass takes only the requests of its first
        ``(caps, dtype)`` group; its other groups wait for the next pass.
        """
        batch, self._queue = self._queue, []
        now = self._loop.time()
        expected = self._expected_latency()
        window = self._window_s
        serving = tuple(self._routable_nodes())
        groups: Dict[Tuple[Optional[int], Tuple, Optional[str]], List[_Pending]] = {}
        taking: Dict[int, Tuple] = {}  # node -> the group it takes this pass
        for pending in batch:
            if pending.future.done():
                continue  # caller went away (cancelled) while queued
            node = self._route(pending, serving)
            key = (node, pending.power_caps, pending.dtype)
            if node in taking:
                wait = taking[node] != key  # its node takes another group
            else:  # wait for a busy node's call to return, window_s at most
                wait = node in self._node_calls and now - pending.queued < window
            if wait:
                self._queue.append(pending)
                continue
            if pending.deadline <= now:
                self._stats["expired"] += 1
                self._fail(
                    pending,
                    DeadlineExceeded(
                        f"request {pending.request_id} expired while queued"
                    ),
                )
            elif pending.deadline < now + expected:
                # Expected completion exceeds the deadline: refuse to burn a
                # node slot on an answer nobody will be around to read.
                self._stats["deadline_rejected"] += 1
                self._fail(
                    pending,
                    DeadlineExceeded(
                        f"request {pending.request_id} deadline "
                        f"{pending.deadline - now:.3f}s is shorter than the "
                        f"expected batch completion {expected:.3f}s"
                    ),
                )
            else:
                if node is not None:
                    taking[node] = key
                groups.setdefault(key, []).append(pending)
        for (node, caps, dtype), items in groups.items():
            if node is None:
                task = self._loop.create_task(self._degrade(caps, dtype, items))
            else:
                primary = self._start_call(
                    node, [p.region for p in items], caps, dtype,
                    min(p.deadline for p in items),
                )
                task = self._loop.create_task(
                    self._dispatch(node, caps, dtype, items, primary)
                )
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
        if self._queue:
            self._arm_window(min(p.queued for p in self._queue) + window)

    def _arm_window(self, when: float) -> None:
        """Wake the batcher at loop time ``when``, unless it wakes sooner."""
        timer = self._window_timer
        if timer is not None and timer.when() <= when:
            return
        if timer is not None:
            timer.cancel()
        self._window_timer = self._loop.call_at(when, self._window_elapsed)

    def _window_elapsed(self) -> None:
        self._window_timer = None
        self._wake.set()

    def _routable_nodes(self) -> List[int]:
        """The members the client currently lets serve."""
        try:
            return self._client.serving_nodes()
        except Exception:  # noqa: BLE001 - a closed/failed client serves nobody
            return []

    def _route(self, pending: _Pending, serving: Tuple[int, ...]) -> Optional[int]:
        """Pick the node for one request: ring over non-avoided members."""
        candidates = serving
        if pending.avoid:
            candidates = tuple(i for i in serving if i not in pending.avoid)
            if not candidates:
                candidates = serving  # every node failed it once; retry anywhere
        if not candidates:
            return None
        if candidates != pending.routed_over:
            ring = shared_ring(tuple(sorted(candidates)))
            pending.node = ring.node_for(pending.region.region_id)
            pending.routed_over = candidates
        return pending.node

    # -------------------------------------------------------------- dispatch
    async def _dispatch(
        self,
        node: int,
        caps: Tuple[float, ...],
        dtype: Optional[str],
        items: List[_Pending],
        primary: asyncio.Task,
    ) -> None:
        """One per-node batch: call, hedge on a slow answer, retry on failure.

        A transport failure requeues the batch (the client has already taken
        the node out of ``serving_nodes()``); a :exc:`~repro.serve.rpc.RemoteError`
        fails the whole batch with the node's error.
        """
        deadline = min(p.deadline for p in items)
        regions = [p.region for p in items]
        tried: Set[int] = set()
        tasks: Dict[asyncio.Task, int] = {primary: node}
        tried.add(node)
        hedged = False
        winner: Optional[int] = None
        results = None
        remote_error: Optional[rpc.RemoteError] = None
        try:
            while tasks:
                budget = deadline - self._loop.time()
                if budget <= 0:
                    break  # past the batch deadline: never hang on stragglers
                wait_for = budget if hedged else min(self._hedge_delay(), budget)
                done, _ = await asyncio.wait(
                    set(tasks), timeout=wait_for, return_when=asyncio.FIRST_COMPLETED
                )
                if not done:
                    if hedged:
                        continue  # budget re-checked at the top of the loop
                    # Slow primary: hedge the batch onto an idle serving node.
                    avoid = tried.union(*(p.avoid for p in items))
                    hedge_node = self._pick_hedge_node(avoid)
                    if hedge_node is None:
                        continue  # none idle: look again after another delay
                    hedged = True
                    self._stats["hedges"] += 1
                    tried.add(hedge_node)
                    _LOG.info(
                        "hedging batch of %d (stuck on node %d) onto node %d",
                        len(items),
                        node,
                        hedge_node,
                    )
                    hedge = self._start_call(hedge_node, regions, caps, dtype, deadline)
                    tasks[hedge] = hedge_node
                    continue
                for task in done:
                    task_node = tasks.pop(task)
                    error = task.exception()
                    if isinstance(error, rpc.RemoteError):
                        remote_error = error
                    elif error is not None:
                        for pending in items:
                            pending.avoid.add(task_node)
                    elif results is None:
                        results = task.result()
                        winner = task_node
                if results is not None or remote_error is not None:
                    break
        except asyncio.CancelledError:
            for pending in items:
                self._fail(pending, RuntimeError("gateway closed mid-dispatch"))
            raise
        finally:
            for task in tasks:  # a hedge loser (or an abandoned straggler)
                task.cancel()
        if results is not None:
            if hedged and winner != node:
                self._stats["hedge_wins"] += 1
            self._degraded = False
            for pending, result in zip(items, results):
                self._resolve(pending, result)
            return
        if remote_error is not None:
            # A bad request: every node would answer it the same way.
            for pending in items:
                if not pending.future.done():
                    self._stats["failed"] += 1
                    self._fail(pending, remote_error)
            return
        self._requeue_or_fail(items, tried)

    async def _call_node(
        self,
        node: int,
        regions: List[RegionCharacteristics],
        caps: Tuple[float, ...],
        dtype: Optional[str],
        deadline: float,
    ) -> List[List[TuningResult]]:
        """One blocking ``sweep_node`` round trip, off-loop, deadline-bound."""
        budget = deadline - self._loop.time()
        if budget <= 0:
            raise rpc.RpcTimeout("no budget left before dispatch")
        start = self._loop.time()
        results = await self._loop.run_in_executor(
            None,
            lambda: self._client.sweep_node(
                node, regions, caps, dtype=dtype, timeout=budget
            ),
        )
        self._record_latency(self._loop.time() - start)
        return results

    def _start_call(
        self,
        node: int,
        regions: List[RegionCharacteristics],
        caps: Tuple[float, ...],
        dtype: Optional[str],
        deadline: float,
    ) -> asyncio.Task:
        """Start one node call as a task; the node counts as busy until it ends."""
        self._node_calls[node] = self._node_calls.get(node, 0) + 1
        task = self._loop.create_task(
            self._call_node(node, regions, caps, dtype, deadline)
        )
        task.add_done_callback(functools.partial(self._call_ended, node))
        return task

    def _call_ended(self, node: int, _task: asyncio.Task) -> None:
        left = self._node_calls.pop(node) - 1
        if left:
            self._node_calls[node] = left
        if self._queue:
            self._wake.set()  # the requests waiting for this node can go

    def _pick_hedge_node(self, avoid: Set[int]) -> Optional[int]:
        """The lowest serving node outside ``avoid`` with nothing to do.

        A hedge spends spare capacity only: a node with a call in flight or
        a request waiting for it would serve the hedge instead of its own
        work, on the same CPUs the primary's node is using.  Under load, a
        round trip slower than the hedge delay is most often a busy fleet
        rather than a stuck node, and the batch keeps its primary until
        some node is free.
        """
        waiting = {pending.node for pending in self._queue}
        candidates = [
            n
            for n in self._routable_nodes()
            if n not in avoid and n not in self._node_calls and n not in waiting
        ]
        return min(candidates) if candidates else None

    def _requeue_or_fail(self, items: List[_Pending], tried: Set[int]) -> None:
        """Every attempt on this batch failed; retry what still has budget."""
        now = self._loop.time()
        requeued = 0
        for pending in items:
            pending.attempts += 1
            if pending.future.done():
                continue
            if pending.deadline <= now:
                self._stats["expired"] += 1
                self._fail(
                    pending,
                    DeadlineExceeded(
                        f"request {pending.request_id} deadline elapsed after "
                        f"{pending.attempts} failed attempt(s) on nodes "
                        f"{sorted(tried)}"
                    ),
                )
            elif pending.attempts >= self._max_attempts:
                self._stats["failed"] += 1
                self._fail(
                    pending,
                    RuntimeError(
                        f"request {pending.request_id} failed on nodes "
                        f"{sorted(pending.avoid)} after {pending.attempts} attempts"
                    ),
                )
            else:
                requeued += 1
                self._queue.append(pending)
        if requeued:
            self._stats["retries"] += requeued
            self._wake.set()

    # ------------------------------------------------------------ degradation
    async def _degrade(
        self, caps: Tuple[float, ...], dtype: Optional[str], items: List[_Pending]
    ) -> None:
        """No routable node: answer in-process, rate-limited, or shed."""
        if not self._fallback_bucket.try_acquire():
            retry_after = self._fallback_bucket.retry_after()
            self._stats["fallback_shed"] += len(items)
            self._stats["shed"] += len(items)
            _LOG.warning(
                "degraded and rate-limited: shedding %d request(s)", len(items)
            )
            for pending in items:
                self._fail(
                    pending,
                    GatewayOverloaded(
                        "fleet unavailable and the fallback rate limit is spent",
                        len(self._queue),
                        retry_after,
                    ),
                )
            return
        self._degraded = True
        regions = [p.region for p in items]
        _LOG.warning(
            "no routable fleet node: serving %d request(s) from the "
            "in-process fallback",
            len(items),
        )
        try:
            results = await self._loop.run_in_executor(
                None, lambda: self._fallback_sweep(regions, caps, dtype)
            )
        except asyncio.CancelledError:
            for pending in items:
                self._fail(pending, RuntimeError("gateway closed mid-fallback"))
            raise
        except Exception as error:  # noqa: BLE001 - surfaced per request
            for pending in items:
                self._fail(pending, error)
            return
        self._stats["fallbacks"] += len(items)
        for pending, result in zip(items, results):
            self._resolve(pending, result)

    def _fallback_sweep(
        self,
        regions: List[RegionCharacteristics],
        caps: Tuple[float, ...],
        dtype: Optional[str],
    ) -> List[List[TuningResult]]:
        with self._fallback_lock:
            # Read the version before building: a roll that lands mid-build
            # leaves a stale stamp, so the next call rebuilds once more
            # rather than serving old weights under a new stamp.
            version = self._client.weights_version
            if version != self._fallback_version:
                _LOG.info(
                    "building the in-process fallback predictor (weights v%s)",
                    version,
                )
                self._fallback_predictor = self._client.local_fallback_predictor()
                self._fallback_version = version
            return self._fallback_predictor.predict_sweep_many(
                regions, list(caps), dtype=dtype
            )

    # -------------------------------------------------------------- plumbing
    def _resolve(self, pending: _Pending, result: List[TuningResult]) -> None:
        if not pending.future.done():
            self._stats["completed"] += 1
            pending.future.set_result(result)

    def _fail(self, pending: _Pending, error: BaseException) -> None:
        if not pending.future.done():
            pending.future.set_exception(error)

    def _record_latency(self, seconds: float) -> None:
        """Keep a round trip, and the median and hedge rank of the window.

        The ranks are read once per batcher pass and once per batch, so they
        are computed here, once per answer, from a sorted copy of the window
        that each record updates in place.
        """
        self._latencies.append(seconds)
        if len(self._latencies) > 512:
            del self._latencies[: len(self._latencies) - 256]
            self._ordered_latencies = sorted(self._latencies)
        else:
            bisect.insort(self._ordered_latencies, seconds)
        ordered = self._ordered_latencies
        rank = min(
            len(ordered) - 1, int(len(ordered) * self.HEDGE_PERCENTILE / 100.0)
        )
        self._median_latency = ordered[len(ordered) // 2]
        self._hedge_latency = ordered[rank]

    def _expected_latency(self) -> float:
        """Observed median node round trip (0 until the first answer)."""
        return self._median_latency

    def _hedge_delay(self) -> float:
        """How long to wait on a node before hedging: pXX with a floor."""
        if not self._latencies:
            return self._hedge_floor
        return max(self._hedge_floor, self._hedge_latency)

    def stats(self) -> Dict[str, object]:
        """The gateway's counters plus its queue depth and degraded mode."""
        snapshot: Dict[str, object] = dict(self._stats)
        snapshot["queue_depth"] = len(self._queue)
        snapshot["degraded"] = self._degraded
        return snapshot
