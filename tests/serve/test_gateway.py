"""Gateway overload paths: coalescing, deadlines, shedding, hedging, node failures.

The deterministic tests drive the asyncio :class:`~repro.serve.gateway.Gateway`
against an in-memory fake client (no sockets, no subprocesses) so every
overload path — batch-window coalescing, deadline expiry inside and outside
the window, queue-full shedding, hedge-first-answer-wins, routing around a
dead node, failing a bad request without retry, dead-fleet fallback — runs
in milliseconds and never flakes on machine load.  The chaos drill at the
bottom runs the same gateway over a real :class:`~repro.serve.fleet.LocalFleet`
through pause/kill/kill-all churn and asserts byte-identity with serial
``predict_sweep`` throughout.
"""

import asyncio
import dataclasses
import random
import threading
import time

import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.serve import (
    DeadlineExceeded,
    Gateway,
    GatewayOverloaded,
    HashRing,
    LocalFleet,
)
from repro.serve import rpc
from repro.serve.gateway import _TokenBucket

CAPS = (40.0, 55.0, 70.0, 85.0)


@pytest.fixture(scope="module")
def fitted_tuner(small_database, small_builder):
    config = ModelConfig(
        vocabulary_size=len(small_builder.vocabulary),
        num_classes=small_database.search_space.num_omp_configurations,
        aux_dim=1,
        seed=0,
    )
    tuner = PnPTuner(
        system="haswell",
        objective="time",
        model_config=config,
        training_config=TrainingConfig(epochs=2, seed=0),
        database=small_database,
        seed=0,
    )
    tuner.builder = small_builder
    tuner.fit(tuner.build_training_samples())
    return tuner


# --------------------------------------------------------------------- fakes
@dataclasses.dataclass
class FakeRegion:
    """The only part of a region the gateway routes on."""

    region_id: str


class FakeNode:
    def __init__(self):
        self.latency = 0.0
        self.fail = None  # exception to raise instead of answering
        self.calls = []


class FakeClient:
    """Deterministic in-memory stand-in for the fleet client surface.

    Answers are a pure function of ``(region_id, cap, dtype)`` — *not* of
    the node index — mirroring the fleet's byte-identity contract, so a
    hedged duplicate is indistinguishable from the primary answer.  Like the
    real client's ``sweep_node``, a failure other than
    :exc:`~repro.serve.rpc.RemoteError` takes the node out of
    ``serving_nodes()``, a node slower than the call's ``timeout`` costs the
    caller that budget and then an :exc:`~repro.serve.rpc.RpcTimeout`, and a
    node answers an unsupported dtype with a ``RemoteError``.
    """

    def __init__(self, num_nodes=2, fallback_tuner=None):
        self.nodes = {index: FakeNode() for index in range(num_nodes)}
        self.dead = set()
        self.fallback_tuner = fallback_tuner
        self.fallback_builds = 0
        self.weights_version = 1

    def serving_nodes(self):
        return sorted(set(self.nodes) - self.dead)

    def sweep_node(self, index, regions, power_caps, dtype=None, timeout=None):
        node = self.nodes[index]
        node.calls.append(([r.region_id for r in regions], tuple(power_caps), dtype))
        if timeout is not None and node.latency > timeout:
            time.sleep(timeout)
            self.dead.add(index)
            raise rpc.RpcTimeout(f"node {index} did not answer within {timeout} s")
        if node.latency:
            time.sleep(node.latency)
        if dtype not in (None, "float32", "float64"):
            raise rpc.RemoteError(
                f"remote 'sweep' request failed: ValueError: unsupported dtype "
                f"{dtype!r}"
            )
        if node.fail is not None:
            if not isinstance(node.fail, rpc.RemoteError):
                self.dead.add(index)
            raise node.fail
        return [
            [(region.region_id, cap, dtype) for cap in power_caps]
            for region in regions
        ]

    def local_fallback_predictor(self):
        self.fallback_builds += 1
        return self.fallback_tuner


class CountingClient(FakeClient):
    """A :class:`FakeClient` that records the most calls it ran at once."""

    def __init__(self, num_nodes=2):
        super().__init__(num_nodes)
        self._count_lock = threading.Lock()
        self._running = 0
        self.most_at_once = 0

    def sweep_node(self, index, regions, power_caps, dtype=None, timeout=None):
        with self._count_lock:
            self._running += 1
            self.most_at_once = max(self.most_at_once, self._running)
        try:
            return super().sweep_node(index, regions, power_caps, dtype, timeout)
        finally:
            with self._count_lock:
                self._running -= 1


class FakeTuner:
    """An in-process fallback answering with the same pure function."""

    def predict_sweep_many(self, regions, power_caps, dtype=None):
        return [
            [(region.region_id, cap, dtype) for cap in power_caps]
            for region in regions
        ]


def expected_answer(region_id, dtype=None):
    return [(region_id, cap, dtype) for cap in CAPS]


def run(coroutine):
    return asyncio.run(coroutine)


def region_on(node, prefix, ring=HashRing((0, 1))):
    """The first ``<prefix><i>`` region id the two-node ring sends to ``node``."""
    return next(
        f"{prefix}{i}" for i in range(1000) if ring.node_for(f"{prefix}{i}") == node
    )


async def occupy(gateway, client, latency=0.3, region="busy", node=0):
    """Put one call in flight on ``node``; return its request task.

    ``region`` must route to ``node`` (any id does on a one-node client).
    """
    client.nodes[node].latency = latency
    busy = asyncio.ensure_future(gateway.predict_sweep(FakeRegion(region), CAPS))
    while not client.nodes[node].calls:
        await asyncio.sleep(0.001)
    return busy


# ---------------------------------------------------------------- coalescing
class TestCoalescing:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.05) as gateway:
                results = await asyncio.gather(
                    *(
                        gateway.predict_sweep(FakeRegion(f"r{i}"), CAPS)
                        for i in range(5)
                    )
                )
            assert results == [expected_answer(f"r{i}") for i in range(5)]
            calls = client.nodes[0].calls
            assert len(calls) == 1  # one predict_sweep_many batch, not five
            assert calls[0][0] == [f"r{i}" for i in range(5)]
            stats = gateway.stats()
            assert stats["admitted"] == 5 and stats["completed"] == 5

        run(scenario())

    def test_different_caps_split_into_separate_batches(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.05) as gateway:
                await asyncio.gather(
                    gateway.predict_sweep(FakeRegion("a"), CAPS),
                    gateway.predict_sweep(FakeRegion("b"), CAPS[:2]),
                )
            batches = [tuple(call[1]) for call in client.nodes[0].calls]
            assert sorted(batches) == sorted([CAPS, CAPS[:2]])

        run(scenario())

    def test_sequential_requests_get_separate_windows(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.005) as gateway:
                await gateway.predict_sweep(FakeRegion("a"), CAPS)
                await gateway.predict_sweep(FakeRegion("b"), CAPS)
            assert len(client.nodes[0].calls) == 2

        run(scenario())

    def test_request_to_an_idle_node_skips_the_window(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=5.0) as gateway:
                started = time.monotonic()
                result = await gateway.predict_sweep(FakeRegion("a"), CAPS)
                assert time.monotonic() - started < 1.0
            assert result == expected_answer("a")

        run(scenario())

    def test_requests_behind_a_busy_node_go_as_one_batch_when_it_returns(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=5.0) as gateway:
                started = time.monotonic()
                busy = await occupy(gateway, client, latency=0.2)
                waiting = []
                for i in range(3):
                    waiting.append(
                        asyncio.ensure_future(
                            gateway.predict_sweep(FakeRegion(f"r{i}"), CAPS)
                        )
                    )
                    await asyncio.sleep(0.02)
                assert await busy == expected_answer("busy")
                assert await asyncio.gather(*waiting) == [
                    expected_answer(f"r{i}") for i in range(3)
                ]
                # Released by the returning call, not by the 5 s window.
                assert time.monotonic() - started < 2.0
            assert [call[0] for call in client.nodes[0].calls] == [
                ["busy"],
                ["r0", "r1", "r2"],
            ]

        run(scenario())

    def test_a_busy_node_holds_back_only_its_own_requests(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            on_0, on_1 = region_on(0, "r"), region_on(1, "r")
            async with Gateway(client, window_s=5.0, hedge_delay_floor=5.0) as gateway:
                busy = await occupy(gateway, client, region=region_on(0, "busy"))
                behind = asyncio.ensure_future(
                    gateway.predict_sweep(FakeRegion(on_0), CAPS)
                )
                started = time.monotonic()
                # Node 1 is idle: its request goes at once.
                assert await gateway.predict_sweep(
                    FakeRegion(on_1), CAPS
                ) == expected_answer(on_1)
                assert time.monotonic() - started < 0.2
                assert not busy.done() and not behind.done()
                assert await behind == expected_answer(on_0)
                await busy
            assert [call[0] for call in client.nodes[0].calls] == [
                [region_on(0, "busy")],
                [on_0],
            ]
            assert [call[0] for call in client.nodes[1].calls] == [[on_1]]

        run(scenario())

    def test_a_node_takes_one_batch_at_a_time(self):
        async def scenario():
            client = CountingClient(num_nodes=1)
            async with Gateway(client, window_s=5.0) as gateway:
                busy = await occupy(gateway, client, latency=0.1)
                waiting = [
                    asyncio.ensure_future(
                        gateway.predict_sweep(FakeRegion(name), caps)
                    )
                    for name, caps in (("a", CAPS), ("b", CAPS[:2]), ("c", CAPS))
                ]
                started = time.monotonic()
                await busy
                await asyncio.gather(*waiting)
                # Each group went when the call before it returned.
                assert time.monotonic() - started < 2.0
            assert [call[0] for call in client.nodes[0].calls] == [
                ["busy"],
                ["a", "c"],
                ["b"],
            ]
            assert client.most_at_once == 1

        run(scenario())

    def test_window_caps_the_wait_behind_a_busy_node(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.05) as gateway:
                busy = await occupy(gateway, client, latency=0.5)
                queued = asyncio.ensure_future(
                    gateway.predict_sweep(FakeRegion("a"), CAPS)
                )
                await asyncio.sleep(0.25)
                # The window passed while the first call was still out.
                assert not busy.done()
                assert [call[0] for call in client.nodes[0].calls] == [
                    ["busy"],
                    ["a"],
                ]
                assert await queued == expected_answer("a")
                await busy

        run(scenario())


# ------------------------------------------------------------- predictor API
class TestPredictorSurface:
    def test_predict_is_a_single_cap_sweep(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.01) as gateway:
                result = await gateway.predict(FakeRegion("a"), CAPS[0])
            assert result == ("a", CAPS[0], None)

        run(scenario())

    def test_predict_requires_a_cap(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.01) as gateway:
                with pytest.raises(ValueError, match="power_cap"):
                    await gateway.predict(FakeRegion("a"))

        run(scenario())

    def test_deadline_keyword_is_the_timeout(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.2) as gateway:
                # A call in flight holds the next request for the window.
                busy = await occupy(gateway, client)
                with pytest.raises(DeadlineExceeded):
                    await gateway.predict_sweep(
                        FakeRegion("a"), CAPS, deadline=0.01
                    )
                await busy

        run(scenario())

    def test_gateway_deadline_error_is_the_predictor_one(self):
        from repro.serve.predictor import DeadlineExceeded as canonical

        assert DeadlineExceeded is canonical


# ----------------------------------------------------------------- deadlines
class TestDeadlines:
    def test_deadline_shorter_than_window_expires_without_dispatch(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.2) as gateway:
                # A call in flight holds the next request for the window.
                busy = await occupy(gateway, client)
                with pytest.raises(DeadlineExceeded, match="expired"):
                    await gateway.predict_sweep(FakeRegion("a"), CAPS, deadline=0.01)
                await busy
            assert [call[0] for call in client.nodes[0].calls] == [["busy"]]
            assert gateway.stats()["expired"] == 1

        run(scenario())

    def test_deadline_beyond_window_is_served(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.01) as gateway:
                result = await gateway.predict_sweep(
                    FakeRegion("a"), CAPS, deadline=5.0
                )
            assert result == expected_answer("a")

        run(scenario())

    def test_unmeetable_deadline_is_rejected_before_dispatch(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            client.nodes[0].latency = 0.15
            async with Gateway(client, window_s=0.005) as gateway:
                # Teach the gateway the node's latency...
                await gateway.predict_sweep(FakeRegion("warm"), CAPS)
                # ...then ask for an answer faster than it can ever come.
                with pytest.raises(DeadlineExceeded, match="expected"):
                    await gateway.predict_sweep(FakeRegion("a"), CAPS, deadline=0.05)
            assert len(client.nodes[0].calls) == 1  # never dispatched
            assert gateway.stats()["deadline_rejected"] == 1

        run(scenario())

    def test_hung_node_request_fails_by_deadline_not_hang(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            client.nodes[0].latency = 5.0  # hung well past any budget
            async with Gateway(
                client, window_s=0.005, hedge_delay_floor=10.0
            ) as gateway:
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    await gateway.predict_sweep(FakeRegion("a"), CAPS, deadline=0.2)
                assert time.monotonic() - started < 2.0

        # The whole scenario, gateway close and executor shutdown included:
        # the node call gives up at its budget instead of sleeping 5 s.
        started = time.monotonic()
        run(scenario())
        assert time.monotonic() - started < 2.0


# ------------------------------------------------------------------ shedding
class TestShedding:
    def test_queue_full_sheds_with_depth_and_retry_hint(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.2, max_pending=2) as gateway:
                queued = [
                    asyncio.ensure_future(
                        gateway.predict_sweep(FakeRegion(f"r{i}"), CAPS)
                    )
                    for i in range(2)
                ]
                await asyncio.sleep(0)  # let both enqueue
                with pytest.raises(GatewayOverloaded) as excinfo:
                    await gateway.predict_sweep(FakeRegion("extra"), CAPS)
                assert excinfo.value.queue_depth == 2
                assert excinfo.value.retry_after_s >= 0.0
                assert gateway.stats()["shed"] == 1
                # The queued requests are unharmed by the shed.
                assert await asyncio.gather(*queued) == [
                    expected_answer("r0"),
                    expected_answer("r1"),
                ]

        run(scenario())


# ------------------------------------------------------------------- hedging
class TestHedging:
    def test_hedge_first_answer_wins_and_is_byte_identical(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            region = FakeRegion("hedge-me")
            primary = HashRing((0, 1)).node_for(region.region_id)
            other = 1 - primary
            client.nodes[primary].latency = 0.5  # slow, but not failing
            async with Gateway(
                client, window_s=0.005, hedge_delay_floor=0.05
            ) as gateway:
                result = await gateway.predict_sweep(region, CAPS, deadline=5.0)
            # First answer (the hedge) wins and is byte-identical to what
            # the slow primary would eventually have said.
            assert result == expected_answer("hedge-me")
            assert client.nodes[primary].calls and client.nodes[other].calls
            stats = gateway.stats()
            assert stats["hedges"] == 1 and stats["hedge_wins"] == 1

        run(scenario())

    def test_a_hedge_waits_for_an_idle_node(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            slow, busy = region_on(0, "slow"), region_on(1, "busy")
            client.nodes[0].latency = 1.0
            client.nodes[1].latency = 0.3
            async with Gateway(
                client, window_s=0.005, hedge_delay_floor=0.05
            ) as gateway:
                answers = [
                    asyncio.ensure_future(
                        gateway.predict_sweep(FakeRegion(name), CAPS, deadline=5.0)
                    )
                    for name in (slow, busy)
                ]
                while not (client.nodes[0].calls and client.nodes[1].calls):
                    await asyncio.sleep(0.001)
                client.nodes[1].latency = 0.0  # only its call in flight is slow
                await asyncio.sleep(0.2)
                # Both batches are past the hedge delay, but each other
                # node has a call in flight.
                assert gateway.stats()["hedges"] == 0
                assert await asyncio.gather(*answers) == [
                    expected_answer(slow),
                    expected_answer(busy),
                ]
            # Once node 1's call returned, the slow batch was hedged onto it.
            assert [call[0] for call in client.nodes[1].calls] == [[busy], [slow]]
            stats = gateway.stats()
            assert stats["hedges"] == 1 and stats["hedge_wins"] == 1

        run(scenario())

    def test_fast_primary_never_hedges(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            async with Gateway(
                client, window_s=0.005, hedge_delay_floor=0.5
            ) as gateway:
                await gateway.predict_sweep(FakeRegion("fast"), CAPS)
            assert gateway.stats()["hedges"] == 0

        run(scenario())

    def test_latency_ranks_follow_the_trimmed_window(self):
        """The stored median and hedge rank equal a sort of the window."""
        gateway = Gateway(FakeClient(num_nodes=2), hedge_delay_floor=0.01)
        assert gateway._expected_latency() == 0.0
        assert gateway._hedge_delay() == 0.01
        rng = random.Random(0)
        window = []
        for _ in range(1200):  # crosses the 512 -> 256 trim three times
            seconds = rng.choice([rng.uniform(0.0, 0.03), rng.uniform(0.0, 0.2)])
            gateway._record_latency(seconds)
            window.append(seconds)
            if len(window) > 512:
                window = window[-256:]
            ordered = sorted(window)
            rank = min(len(ordered) - 1, int(len(ordered) * 95.0 / 100.0))
            assert gateway._latencies == window
            assert gateway._expected_latency() == ordered[len(ordered) // 2]
            assert gateway._hedge_delay() == max(0.01, ordered[rank])


# ------------------------------------------------------------- node failures
class TestNodeFailures:
    def test_gateway_routes_around_a_node_the_client_marked_dead(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            region = FakeRegion("route-me")
            primary = HashRing((0, 1)).node_for(region.region_id)
            client.nodes[primary].fail = rpc.ConnectionClosed("node lost")
            async with Gateway(client, window_s=0.005) as gateway:
                # First request fails on the primary, retries on the other.
                assert await gateway.predict_sweep(
                    region, CAPS
                ) == expected_answer("route-me")
                failures = len(client.nodes[primary].calls)
                # The client marked the primary dead: later requests skip it.
                assert await gateway.predict_sweep(
                    region, CAPS
                ) == expected_answer("route-me")
                assert len(client.nodes[primary].calls) == failures
                assert gateway.stats()["retries"] >= 1

        run(scenario())

    def test_every_node_failing_exhausts_attempts(self):
        async def scenario():
            client = FakeClient(num_nodes=2)
            for node in client.nodes.values():
                node.fail = rpc.ConnectionClosed("gone")
            async with Gateway(client, window_s=0.005, max_attempts=2) as gateway:
                with pytest.raises(RuntimeError, match="failed on nodes"):
                    await gateway.predict_sweep(FakeRegion("a"), CAPS, deadline=5.0)
            assert gateway.stats()["failed"] == 1

        run(scenario())

    def test_remote_error_fails_the_batch_and_leaves_nodes_serving(self):
        async def scenario():
            client = FakeClient(num_nodes=2, fallback_tuner=FakeTuner())

            def node_calls():
                return sum(len(node.calls) for node in client.nodes.values())

            async with Gateway(client, window_s=0.005) as gateway:
                for name in ("bad-0", "bad-1"):
                    before = node_calls()
                    with pytest.raises(rpc.RemoteError, match="unsupported dtype"):
                        await gateway.predict_sweep(
                            FakeRegion(name), CAPS, dtype="float16"
                        )
                    assert node_calls() == before + 1  # never retried
                assert gateway.stats()["failed"] == 2
                for i in range(20):
                    assert await gateway.predict_sweep(
                        FakeRegion(f"r{i}"), CAPS
                    ) == expected_answer(f"r{i}")
                stats = gateway.stats()
                assert stats["fallbacks"] == 0 and stats["retries"] == 0
                assert stats["degraded"] is False
            assert client.serving_nodes() == [0, 1]

        run(scenario())

    def test_remote_error_fails_every_request_of_a_coalesced_batch(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.05) as gateway:
                outcomes = await asyncio.gather(
                    *(
                        gateway.predict_sweep(
                            FakeRegion(f"bad-{i}"), CAPS, dtype="float16"
                        )
                        for i in range(4)
                    ),
                    return_exceptions=True,
                )
            # One batched node call, and its error answers all four at once.
            assert len(client.nodes[0].calls) == 1
            assert all(isinstance(o, rpc.RemoteError) for o in outcomes)
            stats = gateway.stats()
            assert stats["failed"] == 4 and stats["retries"] == 0
            assert stats["completed"] == 0
            assert client.serving_nodes() == [0]

        run(scenario())

    def test_bad_request_leaves_its_window_neighbours_answered(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            async with Gateway(client, window_s=0.05) as gateway:
                bad, *good = await asyncio.gather(
                    gateway.predict_sweep(FakeRegion("bad"), CAPS, dtype="float16"),
                    *(
                        gateway.predict_sweep(FakeRegion(f"r{i}"), CAPS)
                        for i in range(3)
                    ),
                    return_exceptions=True,
                )
            # The bad request is its own (caps, dtype) batch: its error
            # never reaches the requests that shared its window.
            assert isinstance(bad, rpc.RemoteError)
            assert good == [expected_answer(f"r{i}") for i in range(3)]
            assert len(client.nodes[0].calls) == 2
            stats = gateway.stats()
            assert stats["failed"] == 1 and stats["completed"] == 3
            assert stats["retries"] == 0

        run(scenario())

    def test_bad_requests_leave_a_real_fleet_serving(
        self, fitted_tuner, small_builder
    ):
        regions = small_builder.regions()
        caps = list(CAPS)
        expected = [fitted_tuner.predict_sweep(region, caps) for region in regions]

        async def scenario(local):
            async with Gateway(
                local.client, window_s=0.005, default_timeout=120.0
            ) as gateway:
                for region in regions[:2]:
                    with pytest.raises(rpc.RemoteError, match="float16"):
                        await gateway.predict_sweep(region, caps, dtype="float16")
                served = await asyncio.gather(
                    *(gateway.predict_sweep(region, caps) for region in regions)
                )
                assert served == expected
                stats = gateway.stats()
                assert stats["fallbacks"] == 0 and stats["retries"] == 0
                assert stats["degraded"] is False
            assert local.client.serving_nodes() == [0, 1]

        with LocalFleet(fitted_tuner, num_nodes=2, heartbeat_interval=None) as local:
            asyncio.run(scenario(local))


# ---------------------------------------------------------------- degradation
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = _TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_acquire()


class TestDegradation:
    def test_dead_fleet_answers_from_fallback(self):
        async def scenario():
            client = FakeClient(num_nodes=0, fallback_tuner=FakeTuner())
            async with Gateway(client, window_s=0.005) as gateway:
                result = await gateway.predict_sweep(FakeRegion("a"), CAPS)
                assert result == expected_answer("a")
                stats = gateway.stats()
                assert stats["fallbacks"] == 1 and stats["degraded"] is True
            assert client.fallback_builds == 1

        run(scenario())

    def test_fallback_tuner_is_built_once(self):
        async def scenario():
            client = FakeClient(num_nodes=0, fallback_tuner=FakeTuner())
            async with Gateway(client, window_s=0.005) as gateway:
                await gateway.predict_sweep(FakeRegion("a"), CAPS)
                await gateway.predict_sweep(FakeRegion("b"), CAPS)
            assert client.fallback_builds == 1

        run(scenario())

    def test_fallback_is_rebuilt_after_a_weights_update(self):
        class Versioned:
            def __init__(self, version):
                self.version = version

            def predict_sweep_many(self, regions, power_caps, dtype=None):
                return [[(region.region_id, self.version)] for region in regions]

        async def scenario():
            client = FakeClient(num_nodes=0, fallback_tuner=Versioned(1))
            async with Gateway(client, window_s=0.005) as gateway:
                first = await gateway.predict_sweep(FakeRegion("a"), CAPS)
                client.weights_version = 2
                client.fallback_tuner = Versioned(2)
                second = await gateway.predict_sweep(FakeRegion("a"), CAPS)
                third = await gateway.predict_sweep(FakeRegion("b"), CAPS)
            assert first == [("a", 1)]
            assert second == [("a", 2)] and third == [("b", 2)]
            assert client.fallback_builds == 2

        run(scenario())

    def test_fallback_is_rate_limited(self):
        async def scenario():
            client = FakeClient(num_nodes=0, fallback_tuner=FakeTuner())
            async with Gateway(
                client, window_s=0.005, fallback_rate=0.001, fallback_burst=1.0
            ) as gateway:
                await gateway.predict_sweep(FakeRegion("a"), CAPS)
                with pytest.raises(GatewayOverloaded, match="rate limit"):
                    await gateway.predict_sweep(FakeRegion("b"), CAPS)
                stats = gateway.stats()
                assert stats["fallback_shed"] == 1

        run(scenario())

    def test_fallback_equals_serial_sweep_at_both_dtypes(
        self, fitted_tuner, small_builder
    ):
        regions = small_builder.regions()[:3]
        caps = list(CAPS)

        async def scenario():
            client = FakeClient(num_nodes=0, fallback_tuner=fitted_tuner)
            async with Gateway(
                client, window_s=0.005, default_timeout=120.0
            ) as gateway:
                for dtype in (None, "float32"):
                    served = await asyncio.gather(
                        *(
                            gateway.predict_sweep(region, caps, dtype=dtype)
                            for region in regions
                        )
                    )
                    expected = [
                        fitted_tuner.predict_sweep(region, caps, dtype=dtype)
                        for region in regions
                    ]
                    assert served == expected

        run(scenario())


# ----------------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_predict_before_start_raises(self):
        async def scenario():
            gateway = Gateway(FakeClient(num_nodes=1))
            with pytest.raises(RuntimeError, match="not running"):
                await gateway.predict_sweep(FakeRegion("a"), CAPS)

        run(scenario())

    def test_double_start_raises(self):
        async def scenario():
            async with Gateway(FakeClient(num_nodes=1)) as gateway:
                with pytest.raises(RuntimeError, match="already started"):
                    await gateway.start()

        run(scenario())

    def test_close_fails_queued_requests(self):
        async def scenario():
            client = FakeClient(num_nodes=1)
            gateway = await Gateway(client, window_s=5.0).start()
            queued = asyncio.ensure_future(
                gateway.predict_sweep(FakeRegion("a"), CAPS)
            )
            await asyncio.sleep(0)
            await gateway.close()
            with pytest.raises(RuntimeError, match="closed"):
                await queued

        run(scenario())


# -------------------------------------------------------------- chaos drill
class TestGatewayChaosDrill:
    """The acceptance drill: churn under load, byte-identity throughout."""

    def test_kill_and_total_loss_stay_byte_identical(
        self, fitted_tuner, small_builder
    ):
        regions = small_builder.regions()
        caps = list(CAPS)
        expected = {
            dtype: [
                fitted_tuner.predict_sweep(region, caps, dtype=dtype)
                for region in regions
            ]
            for dtype in (None, "float32")
        }

        async def scenario(local):
            async with Gateway(
                local.client, window_s=0.01, default_timeout=120.0
            ) as gateway:
                for dtype in (None, "float32"):
                    served = await asyncio.gather(
                        *(
                            gateway.predict_sweep(region, caps, dtype=dtype)
                            for region in regions
                        )
                    )
                    assert served == expected[dtype]
                # Hang one node, still connected: EOF detection cannot see
                # it, so the stuck batches are hedged onto the other node.
                local.pause_node(0)
                served = await asyncio.gather(
                    *(gateway.predict_sweep(region, caps) for region in regions)
                )
                assert served == expected[None]
                local.resume_node(0)
                served = await asyncio.gather(
                    *(gateway.predict_sweep(region, caps) for region in regions)
                )
                assert served == expected[None]
                assert gateway.stats()["hedges"] >= 1
                # Kill one node mid-traffic: requests reroute, same bytes.
                local.kill_node(0)
                served = await asyncio.gather(
                    *(gateway.predict_sweep(region, caps) for region in regions)
                )
                assert served == expected[None]
                # Kill the survivor: the in-process fallback answers, same
                # bytes at both precisions.
                local.kill_node(1)
                for dtype in (None, "float32"):
                    answer = await gateway.predict_sweep(
                        regions[0], caps, dtype=dtype
                    )
                    assert answer == expected[dtype][0]
                stats = gateway.stats()
                assert stats["degraded"] is True
                assert stats["fallbacks"] >= 2

        with LocalFleet(
            fitted_tuner,
            num_nodes=2,
            dtypes=("float32",),
            heartbeat_interval=None,
        ) as local:
            asyncio.run(scenario(local))
