"""Unit tests for the deterministic fault-injection layer.

:class:`~repro.serve.faults.FaultPlan` must replay the identical event
schedule from a seed alone — in-process and across fresh interpreters
(mirroring the ``HashRing`` determinism guarantee) — and
:class:`~repro.serve.faults.ChaosProxy` must map each fault kind onto the
documented failure at the victim: ``bitflip``/``duplicate`` →
:class:`~repro.serve.rpc.RpcCorruption`, ``truncate``/``reset`` →
:class:`~repro.serve.rpc.ConnectionClosed`, ``stall`` →
:class:`~repro.serve.rpc.RpcTimeout`, ``delay`` → nothing but latency.

The proxy drills here run against a bare unregistered
:class:`~repro.serve.node.NodeServer` (``ping`` needs no tuner), so they
stay fast; the full fleet/gateway drills live in ``test_chaos.py``.
"""

import subprocess
import sys
import threading
import time

import pytest

from repro.serve import ChaosProxy, FaultEvent, FaultPlan, NodeServer, rpc
from repro.serve.faults import _payload_offset


class TestFaultPlan:
    def test_events_addressable_by_connection_frame_direction(self):
        hit = FaultEvent("bitflip", connection=1, frame=2, direction="reply")
        miss = FaultEvent("bitflip", connection=1, frame=3, direction="reply")
        plan = FaultPlan([hit, miss])
        assert plan.events_for(1, 2, "reply") == [hit]
        assert plan.events_for(1, 2, "request") == []
        assert plan.events_for(0, 2, "reply") == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("melt", connection=0, frame=0)

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError, match="unknown direction"):
            FaultEvent("delay", connection=0, frame=0, direction="sideways")

    def test_random_same_seed_same_schedule(self):
        assert FaultPlan.random(42).describe() == FaultPlan.random(42).describe()

    def test_random_different_seeds_differ(self):
        assert FaultPlan.random(42).describe() != FaultPlan.random(43).describe()

    def test_random_respects_bounds(self):
        plan = FaultPlan.random(7, events=20, connections=2, frames=3)
        assert len(plan.events) == 20
        assert all(event.connection < 2 for event in plan.events)
        assert all(event.frame < 3 for event in plan.events)
        assert all(event.kind in ("delay", "stall", "truncate", "bitflip",
                                  "duplicate", "reset") for event in plan.events)

    def test_scoped_shifts_connection_indices(self):
        plan = FaultPlan([FaultEvent("reset", connection=0, frame=1)])
        shifted = plan.scoped(5)
        assert shifted.events[0].connection == 5
        assert shifted.events[0].frame == 1

    def test_identical_across_interpreters(self):
        """The same seed replays the identical schedule in a fresh process."""
        script = (
            "from repro.serve import FaultPlan\n"
            "print(FaultPlan.random(12345, events=12).describe())\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert output == str(FaultPlan.random(12345, events=12).describe())

    def test_payload_offsets_land_past_the_header(self):
        # Corrupting offsets map into the payload so the fault exercises
        # the digest check rather than hanging the victim on a mangled
        # length field.
        for offset in (0, 1, 31, 32, 100, 5000):
            position = _payload_offset(offset, frame_length=200)
            assert rpc.HEADER_BYTES <= position < 200
        # Header-only frames fall back to the (instantly-detected) magic.
        assert _payload_offset(7, frame_length=rpc.HEADER_BYTES) < 4


@pytest.fixture()
def node():
    server = NodeServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5.0)


def _ping_through(proxy, timeout=None):
    sock = rpc.connect(proxy.address, timeout=10.0)
    try:
        return rpc.request(sock, ("ping",), timeout=timeout)
    finally:
        sock.close()


class TestChaosProxy:
    def test_clean_plan_forwards_transparently(self, node):
        with ChaosProxy(node.address) as proxy:
            info = _ping_through(proxy)
            assert info["registered"] is False
            assert info["protocol"] == rpc.PROTOCOL_VERSION
            # The proxy counts a reply after its sendall returns, which can
            # be just after the client already read it.
            deadline = time.monotonic() + 2.0
            stats = proxy.stats()
            while stats["frames"]["reply"] < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
                stats = proxy.stats()
            assert stats["connections"] == 1
            assert stats["faults_total"] == 0
            assert stats["frames"]["request"] >= 1
            assert stats["frames"]["reply"] >= 1

    def test_reply_bitflip_raises_corruption_at_client(self, node):
        plan = FaultPlan([FaultEvent("bitflip", connection=0, frame=0,
                                     direction="reply", offset=5)])
        with ChaosProxy(node.address, plan) as proxy:
            with pytest.raises(rpc.RpcCorruption, match="digest"):
                _ping_through(proxy)
            assert proxy.stats()["faults"]["bitflip"] == 1
            # Later connections are clean: the proxy recovers by itself.
            assert _ping_through(proxy)["protocol"] == rpc.PROTOCOL_VERSION

    def test_request_bitflip_counted_by_the_node(self, node):
        plan = FaultPlan([FaultEvent("bitflip", connection=0, frame=0,
                                     direction="request", offset=9)])
        with ChaosProxy(node.address, plan) as proxy:
            # The node rejects the corrupt request and tears the connection
            # down; the client observes the loss, never a reply.
            with pytest.raises(rpc.ConnectionClosed):
                _ping_through(proxy, timeout=10.0)
            deadline = time.monotonic() + 5.0
            while node._corrupt_frames == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert node._corrupt_frames == 1

    def test_duplicate_raises_corruption(self, node):
        plan = FaultPlan([FaultEvent("duplicate", connection=0, frame=0,
                                     direction="reply", offset=3, span=6)])
        with ChaosProxy(node.address, plan) as proxy:
            with pytest.raises(rpc.RpcCorruption):
                _ping_through(proxy)

    def test_truncate_raises_connection_closed(self, node):
        plan = FaultPlan([FaultEvent("truncate", connection=0, frame=0,
                                     direction="reply", offset=10)])
        with ChaosProxy(node.address, plan) as proxy:
            with pytest.raises(rpc.ConnectionClosed):
                _ping_through(proxy, timeout=10.0)

    def test_reset_raises_connection_closed(self, node):
        plan = FaultPlan([FaultEvent("reset", connection=0, frame=0,
                                     direction="reply")])
        with ChaosProxy(node.address, plan) as proxy:
            with pytest.raises(rpc.ConnectionClosed):
                _ping_through(proxy, timeout=10.0)

    def test_stall_trips_the_per_call_deadline(self, node):
        plan = FaultPlan([FaultEvent("stall", connection=0, frame=0,
                                     direction="reply", offset=10, seconds=5.0)])
        with ChaosProxy(node.address, plan) as proxy:
            start = time.monotonic()
            with pytest.raises(rpc.RpcTimeout):
                _ping_through(proxy, timeout=0.3)
            assert time.monotonic() - start < 3.0

    def test_delay_is_latency_not_failure(self, node):
        plan = FaultPlan([FaultEvent("delay", connection=0, frame=0,
                                     direction="reply", seconds=0.1)])
        with ChaosProxy(node.address, plan) as proxy:
            start = time.monotonic()
            info = _ping_through(proxy)
            assert info["protocol"] == rpc.PROTOCOL_VERSION
            assert time.monotonic() - start >= 0.1
            assert proxy.stats()["faults"]["delay"] == 1

    def test_faults_bind_to_their_connection_only(self, node):
        plan = FaultPlan([FaultEvent("bitflip", connection=1, frame=0,
                                     direction="reply", offset=4)])
        with ChaosProxy(node.address, plan) as proxy:
            assert _ping_through(proxy)["protocol"] == rpc.PROTOCOL_VERSION
            with pytest.raises(rpc.RpcCorruption):
                _ping_through(proxy)
            assert _ping_through(proxy)["protocol"] == rpc.PROTOCOL_VERSION

    def test_retarget_repoints_future_connections(self, node):
        replacement = NodeServer()
        thread = threading.Thread(target=replacement.serve_forever, daemon=True)
        thread.start()
        try:
            with ChaosProxy(node.address) as proxy:
                assert _ping_through(proxy)["protocol"] == rpc.PROTOCOL_VERSION
                proxy.retarget(replacement.address)
                # The original upstream is gone; answers can only come from
                # the replacement now.
                node.shutdown()
                assert _ping_through(proxy)["protocol"] == rpc.PROTOCOL_VERSION
                assert proxy.upstream == tuple(replacement.address)
                assert proxy.stats()["connections"] == 2
        finally:
            replacement.shutdown()
            thread.join(timeout=5.0)

    def test_seeded_plan_replays_identically(self, node):
        """Same seed, same traffic → the same byte-level fault history."""
        outcomes = []
        for _ in range(2):
            plan = FaultPlan.random(99, events=4, connections=2, frames=2)
            with ChaosProxy(node.address, plan) as proxy:
                run = []
                for _ in range(3):
                    try:
                        rpc_reply = _ping_through(proxy, timeout=2.0)
                        run.append(("ok", rpc_reply["protocol"]))
                    except rpc.RpcCorruption:
                        run.append(("corrupt", None))
                    except rpc.RpcTimeout:
                        run.append(("timeout", None))
                    except rpc.ConnectionClosed:
                        run.append(("closed", None))
                run.append(("faults", tuple(sorted(proxy.stats()["faults"].items()))))
                outcomes.append(run)
        assert outcomes[0] == outcomes[1]
