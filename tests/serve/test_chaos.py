"""Chaos drills: seeded byte-level fault schedules through fleet + gateway.

Two standing invariants, checked under every schedule:

1. **Byte-identity or a typed error** — every sweep/predict answered while
   faults fly is byte-identical to serial ``predict_sweep`` on the parent
   tuner (float64 AND float32); corruption is always *detected* (the
   counters move), never silently served.
2. **Recovery** — once the schedule drains (plans bind faults to early
   connection indices), the fleet returns to all-LIVE on its own.

The targeted drills pin one fault kind to one frame of one connection —
sweep sockets and heartbeat connections alike — so each failure mode's
exact path (detect → teardown → rebalance → re-admit) is exercised
deterministically.  The seeded matrix then sweeps whole random schedules
through the asyncio :class:`~repro.serve.gateway.Gateway` and asserts the
invariants wholesale, with detections reconciled against the proxy's
applied-event log.
"""

import asyncio

import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.serve import (
    FaultEvent,
    FaultPlan,
    Gateway,
    LocalFleet,
    NodeState,
    rpc,
)

CAPS = [40.0, 55.0, 70.0, 85.0]


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


@pytest.fixture(scope="module")
def baselines(fitted_tuner, small_builder):
    """Serial per-region sweeps at both serving precisions."""
    regions = small_builder.regions()
    return {
        dtype: [
            fitted_tuner.predict_sweep(region, CAPS, dtype=dtype)
            for region in regions
        ]
        for dtype in (None, "float32")
    }


def _chaos_fleet(tuner, plan, **overrides):
    """A 2-node fleet with ``plan`` interposed on node 0, probe-driven."""
    settings = dict(
        num_nodes=2,
        dtypes=("float32",),
        heartbeat_interval=None,
        request_timeout=30.0,
    )
    settings.update(overrides)
    return LocalFleet(tuner, chaos={0: plan}, **settings)


def _wait_all_live(fleet, timeout=30.0):
    for index in sorted(fleet.client.node_states()):
        assert fleet.client.wait_for_state(index, NodeState.LIVE, timeout=timeout), (
            f"node {index} did not return to LIVE: {fleet.client.node_states()}"
        )


def _detections(fleet):
    """Corruption detections on both ends of every wire, totalled."""
    client_side = fleet.client.transport_stats()["corruption"]
    node_side = sum(
        reply.get("corrupt_frames", 0) for reply in fleet.client.stats().values()
    )
    return client_side + node_side


# Connection 0 at the proxy is the fleet client's request socket; its frame
# 0 (both directions) is the registration round trip, so sweep traffic
# starts at frame 1.  Heartbeat probes open fresh connections: 1, 2, ...


class TestTargetedDrills:
    """One fault kind per drill, pinned mid-frame on a known connection."""

    def test_reply_bitflip_detected_rebalanced_recovered(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [FaultEvent("bitflip", connection=0, frame=1, direction="reply", offset=40)]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            regions = small_builder.regions()
            for dtype in (None, "float32"):
                assert fleet.sweep(regions, CAPS, dtype=dtype) == baselines[dtype]
            transport = fleet.client.transport_stats()
            assert transport["nodes"][0]["corruption"] == 1
            assert transport["nodes"][0]["teardowns"] >= 1
            _wait_all_live(fleet)
            assert fleet.client.transport_stats()["nodes"][0]["readmissions"] >= 1

    def test_request_bitflip_counted_by_the_node(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [
                FaultEvent(
                    "bitflip", connection=0, frame=1, direction="request", offset=64
                )
            ]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS) == baselines[None]
            _wait_all_live(fleet)
            stats = fleet.client.stats()
            assert stats[0]["corrupt_frames"] == 1
            assert fleet.client.transport_stats()["nodes"][0]["teardowns"] >= 1

    def test_duplicate_bytes_detected_and_survived(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [
                FaultEvent(
                    "duplicate",
                    connection=0,
                    frame=1,
                    direction="reply",
                    offset=10,
                    span=16,
                )
            ]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS, dtype="float32") == baselines["float32"]
            assert fleet.client.transport_stats()["corruption"] == 1
            _wait_all_live(fleet)

    def test_truncate_mid_frame_rebalances(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [
                FaultEvent(
                    "truncate", connection=0, frame=1, direction="reply", offset=25
                )
            ]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS) == baselines[None]
            assert fleet.client.transport_stats()["nodes"][0]["teardowns"] >= 1
            _wait_all_live(fleet)

    def test_reset_mid_stream_rebalances(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [FaultEvent("reset", connection=0, frame=1, direction="reply")]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS) == baselines[None]
            assert fleet.client.transport_stats()["nodes"][0]["teardowns"] >= 1
            _wait_all_live(fleet)

    def test_stall_trips_request_timeout_and_rebalances(
        self, fitted_tuner, small_builder, baselines
    ):
        plan = FaultPlan(
            [
                FaultEvent(
                    "stall",
                    connection=0,
                    frame=1,
                    direction="reply",
                    offset=25,
                    seconds=20.0,
                )
            ]
        )
        with _chaos_fleet(fitted_tuner, plan, request_timeout=1.5) as fleet:
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS) == baselines[None]
            # The stalled node was torn down (poisoned socket), not just slow.
            assert fleet.client.transport_stats()["nodes"][0]["teardowns"] >= 1
            _wait_all_live(fleet)

    def test_heartbeat_connection_fault_degrades_then_heals(
        self, fitted_tuner, small_builder, baselines
    ):
        # Connection 1 is the first heartbeat probe; corrupt its ping reply.
        plan = FaultPlan(
            [FaultEvent("bitflip", connection=1, frame=0, direction="reply", offset=6)]
        )
        with _chaos_fleet(fitted_tuner, plan) as fleet:
            states = fleet.probe_now(force=True)
            assert states[0] is NodeState.SUSPECT
            assert fleet.client.transport_stats()["nodes"][0]["corruption"] == 1
            # The degraded node still serves (SUSPECT routes), bytes intact.
            regions = small_builder.regions()
            assert fleet.sweep(regions, CAPS) == baselines[None]
            # The next probe rides a clean connection: back to LIVE.
            _wait_all_live(fleet)


class TestSeededGatewayMatrix:
    """Whole random schedules through the gateway; invariants wholesale."""

    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_schedule_preserves_bytes_and_recovers(
        self, seed, fitted_tuner, small_builder, baselines
    ):
        regions = small_builder.regions()
        plan = FaultPlan.random(
            seed, events=8, connections=4, frames=5, max_seconds=0.05
        )
        # Keep the registration round trip (connection 0, frame 0) clean —
        # a fleet that cannot register is a setup failure, not a drill.
        from dataclasses import replace

        plan = FaultPlan(
            events=[
                replace(event, frame=event.frame + 1)
                if event.connection == 0
                else event
                for event in plan.events
            ],
            seed=plan.seed,
        )

        async def scenario(fleet):
            async with Gateway(
                fleet.client, window_s=0.01, default_timeout=120.0
            ) as gateway:
                for dtype in (None, "float32"):
                    served = await asyncio.gather(
                        *(
                            gateway.predict_sweep(region, CAPS, dtype=dtype)
                            for region in regions
                        )
                    )
                    assert served == baselines[dtype]

        with _chaos_fleet(fitted_tuner, plan, request_timeout=15.0) as fleet:
            asyncio.run(scenario(fleet))

            # Reconcile detections against what the proxy actually injected:
            # every corrupting event that fired on a frame no teardown-kind
            # event also hit must have been caught by a digest/magic check
            # (client side or node side) — nothing unpickled silently.
            applied = fleet.proxies[0].stats()["applied"]
            corrupted = {
                (conn, frame, direction)
                for (kind, conn, frame, direction, *_rest) in applied
                if kind in ("bitflip", "duplicate")
            }
            masked = {
                (conn, frame, direction)
                for (kind, conn, frame, direction, *_rest) in applied
                if kind in ("truncate", "reset")
            }
            pure = corrupted - masked
            if pure:
                assert _detections(fleet) >= len(pure)

            # Recovery: the schedule binds faults to connections 0-3, so
            # probing re-admits everything once those have burned through.
            _wait_all_live(fleet)
            states = fleet.client.node_states()
            assert all(state is NodeState.LIVE for state in states.values())
