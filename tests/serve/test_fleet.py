"""Multi-node TCP fleet serving: equivalence, rebalance, health, lifecycle.

The fleet's contract extends the worker pool's: sweeps served over ≥2
:class:`~repro.serve.node.NodeServer` TCP nodes are byte-identical to
serial per-region ``predict_sweep`` on the parent tuner (at float64 *and*
float32), the spec + ``.npz`` weight bytes ship exactly once at
registration, and losing a node mid-sweep rebalances its regions onto the
survivors instead of failing the sweep.

The self-healing layer extends it further: the heartbeat walks failing
nodes through ``LIVE → SUSPECT → DEAD`` (catching hung-but-connected nodes
that EOF detection cannot see), re-admits recovered nodes via a ping +
re-registration handshake, membership grows and shrinks at runtime, and
rolling weight updates upgrade the fleet one node at a time — all without
ever changing a sweep's bytes.
"""

import os
import signal
import threading
import time

import pytest

from repro.core.model import ModelConfig
from repro.core.training import TrainingConfig
from repro.core.tuner import PnPTuner
from repro.serve import FleetClient, FleetExhausted, LocalFleet, NodeServer, NodeState
from repro.serve import rpc
from repro.serve.rpc import RemoteError
from repro.serve.spec import WeightsUpdate

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
def fleet(fitted_tuner):
    with LocalFleet(fitted_tuner, num_nodes=2, dtypes=("float32",)) as local:
        yield local


@pytest.fixture(scope="module")
def retrained_tuner(small_database, small_builder):
    """A second weight generation for the rolling-update drills."""
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
        training_config=TrainingConfig(epochs=3, seed=0),
        database=small_database,
        seed=0,
    )
    tuner.builder = small_builder
    tuner.fit(tuner.build_training_samples())
    return tuner


def _serial_sweep(tuner, regions, dtype=None):
    tuner._embedding_cache.clear()
    return [tuner.predict_sweep(region, CAPS, dtype=dtype) for region in regions]


class TestFleetEquivalence:
    def test_byte_identical_to_serial_sweep(self, fleet, fitted_tuner, small_builder):
        regions = small_builder.regions()
        assert fleet.sweep(regions, CAPS) == _serial_sweep(fitted_tuner, regions)

    def test_float32_byte_identical_to_serial(self, fleet, fitted_tuner, small_builder):
        regions = small_builder.regions()
        swept = fleet.sweep(regions, CAPS, dtype="float32")
        assert swept == _serial_sweep(fitted_tuner, regions, dtype="float32")

    def test_input_order_preserved(self, fleet, small_builder):
        regions = small_builder.regions()
        forward = fleet.sweep(regions, CAPS)
        backward = fleet.sweep(list(reversed(regions)), CAPS)
        assert backward == list(reversed(forward))

    def test_duplicate_regions_serve_identically(self, fleet, small_builder):
        region = small_builder.regions()[0]
        first, second = fleet.sweep([region, region], CAPS)
        assert first == second

    def test_empty_regions(self, fleet):
        assert fleet.sweep([], CAPS) == []

    def test_regions_are_spread_over_both_nodes(self, fleet, small_builder):
        regions = small_builder.regions()
        fleet.clear_caches()
        fleet.sweep(regions, CAPS)
        stats = fleet.stats()
        assert len(stats) == 2
        sizes = [node_stats["size"] for node_stats in stats.values()]
        assert sum(sizes) == len(regions)
        assert all(size > 0 for size in sizes)

    def test_stats_report_each_nodes_own_counters(self, fleet, small_builder):
        fleet.sweep(small_builder.regions(), CAPS)
        stats = fleet.stats()
        assert sorted(stats) == [0, 1]
        pids = set()
        for node_stats in stats.values():
            for key in ("hits", "misses", "tier", "buffers", "pid"):
                assert key in node_stats
            # The client's end of each wire is reported by transport_stats.
            assert not any(key.startswith("client_") for key in node_stats)
            pids.add(node_stats["pid"])
        assert len(pids) == 2 and os.getpid() not in pids
        transport = fleet.client.transport_stats()
        assert sorted(transport["nodes"]) == [0, 1]

    def test_remote_application_error_propagates(self, fleet, small_builder):
        region = small_builder.regions()[0]
        with pytest.raises(RemoteError, match="sweep"):
            # Bad request (caps must be numbers): the node reports the
            # error instead of being treated as dead...
            fleet.sweep([region], ["not-a-cap"])
        # ...and both nodes keep serving afterwards.
        assert len(fleet.client.alive_nodes) == 2
        assert fleet.sweep([region], CAPS)[0]


class TestBufferRetention:
    def test_stats_expose_inference_buffer_sizes(self, fleet, small_builder):
        fleet.clear_caches()  # a cold sweep
        fleet.sweep(small_builder.regions(), CAPS)
        for node_stats in fleet.stats().values():
            buffers = node_stats["buffers"]
            assert buffers["programs"] >= 1
            # A sweep's arena is freed with its batch when the sweep returns.
            assert buffers["bound_plans"] == 0
            assert buffers["arena_bytes"] == 0
            assert buffers["head_workspaces"] >= 1

    def test_clear_sheds_arena_bytes_fleet_wide(self, fleet, small_builder):
        regions = small_builder.regions()
        before = fleet.sweep(regions, CAPS)
        fleet.clear_caches()
        for node_stats in fleet.stats().values():
            buffers = node_stats["buffers"]
            assert buffers["arena_bytes"] == 0
            assert buffers["head_workspaces"] == 0
            assert buffers["programs"] >= 1  # compiled programs survive
        # Buffers rebuild lazily; served bytes are unchanged.
        assert fleet.sweep(regions, CAPS) == before


class TestRebalance:
    def test_killed_node_rebalances_onto_survivor(self, fitted_tuner, small_builder):
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        with LocalFleet(fitted_tuner, num_nodes=2) as local:
            before = local.sweep(regions, CAPS)
            assert before == expected
            local.kill_node(0)
            after = local.sweep(regions, CAPS)
            assert after == expected
            assert local.client.alive_nodes == [1]

    def test_all_nodes_dead_raises(self, fitted_tuner, small_builder):
        regions = small_builder.regions()
        with LocalFleet(fitted_tuner, num_nodes=1) as local:
            local.kill_node(0)
            with pytest.raises(RuntimeError, match="all fleet nodes failed"):
                local.sweep(regions, CAPS)


class TestLifecycle:
    def test_closed_client_fails_cleanly(self, fitted_tuner):
        local = LocalFleet(fitted_tuner, num_nodes=1)
        local.close()
        with pytest.raises(RuntimeError, match="closed"):
            local.client.sweep([], CAPS)
        with pytest.raises(RuntimeError, match="closed"):
            local.client.stats()

    def test_unregistered_node_reports_clear_error(self, small_builder):
        server = NodeServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with FleetClient([server.address], connect_timeout=10.0) as client:
                with pytest.raises(RemoteError, match="no registered tuner"):
                    client.sweep(small_builder.regions()[:1], CAPS)
        finally:
            server.shutdown()
            thread.join(timeout=5.0)

    def test_client_requires_addresses(self):
        with pytest.raises(ValueError):
            FleetClient([])

    def test_fleet_requires_positive_nodes(self, fitted_tuner):
        with pytest.raises(ValueError):
            LocalFleet(fitted_tuner, num_nodes=0)

    def test_requires_fitted_tuner(self, small_database, small_builder):
        tuner = PnPTuner(
            system="haswell",
            objective="time",
            training_config=TrainingConfig(epochs=1, seed=0),
            database=small_database,
            seed=0,
        )
        with pytest.raises(RuntimeError):
            LocalFleet(tuner, num_nodes=1)


class TestFleetExhausted:
    def test_names_every_node_and_reason(self, fitted_tuner, small_builder):
        regions = small_builder.regions()
        with LocalFleet(fitted_tuner, num_nodes=2, heartbeat_interval=None) as local:
            local.kill_node(0)
            local.kill_node(1)
            with pytest.raises(FleetExhausted) as excinfo:
                local.sweep(regions, CAPS)
        error = excinfo.value
        assert "all fleet nodes failed" in str(error)
        assert "regions unserved" in str(error)
        assert sorted(error.reasons) == [0, 1]
        assert "node 0" in str(error) and "node 1" in str(error)
        assert error.unserved == len(regions)

    def test_update_weights_with_no_survivors(self, fitted_tuner, retrained_tuner):
        with LocalFleet(fitted_tuner, num_nodes=1, heartbeat_interval=None) as local:
            local.kill_node(0)
            local.probe_now(force=True)  # EOF was never seen; detect via probe
            with pytest.raises(FleetExhausted, match="all fleet nodes failed"):
                local.client.update_weights(retrained_tuner)

    def test_update_weights_requires_registration(self):
        server = NodeServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with FleetClient(
                [server.address], connect_timeout=10.0, heartbeat_interval=None
            ) as client:
                with pytest.raises(RuntimeError, match="register_tuner"):
                    client.update_weights({})
        finally:
            server.shutdown()
            thread.join(timeout=5.0)


class TestHealth:
    """LIVE → SUSPECT → DEAD → re-admitted, driven deterministically."""

    def test_paused_node_is_detected_and_inflight_sweep_rebalances(
        self, fitted_tuner, small_builder
    ):
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        with LocalFleet(
            fitted_tuner,
            num_nodes=2,
            heartbeat_interval=None,
            ping_timeout=1.0,
            dead_after=1,
        ) as local:
            local.pause_node(0)
            # The sweep blocks on the hung-but-connected node: its TCP
            # connection is alive (the kernel answers), but the process
            # never replies — the failure mode EOF detection cannot see.
            outcome = {}

            def run_sweep():
                outcome["results"] = local.sweep(regions, CAPS)

            sweeper = threading.Thread(target=run_sweep, daemon=True)
            sweeper.start()
            sweeper.join(timeout=0.5)
            assert sweeper.is_alive()  # genuinely stuck on the paused node
            # One forced heartbeat pass: the ping times out, the node goes
            # DEAD, and tearing its socket down unblocks the stuck sweep.
            states = local.probe_now(force=True)
            assert states[0] is NodeState.DEAD
            sweeper.join(timeout=30.0)
            assert not sweeper.is_alive()
            assert outcome["results"] == expected
            # Recovery: SIGCONT + one probe re-admits the node.
            local.resume_node(0)
            assert local.probe_now(force=True)[0] is NodeState.LIVE
            local.clear_caches()
            assert local.sweep(regions, CAPS) == expected
            sizes = [stats["size"] for stats in local.stats().values()]
            assert len(sizes) == 2 and all(size > 0 for size in sizes)

    def test_suspect_is_an_intermediate_state(self, fitted_tuner):
        with LocalFleet(
            fitted_tuner,
            num_nodes=2,
            heartbeat_interval=None,
            ping_timeout=1.0,
            dead_after=2,
        ) as local:
            local.pause_node(1)
            assert local.probe_now(force=True)[1] is NodeState.SUSPECT
            assert local.client.alive_nodes == [0]  # SUSPECT is not LIVE
            assert local.probe_now(force=True)[1] is NodeState.DEAD
            local.resume_node(1)
            assert local.probe_now(force=True)[1] is NodeState.LIVE
            assert local.client.alive_nodes == [0, 1]

    def test_heartbeat_thread_readmits_restarted_node(
        self, fitted_tuner, small_builder
    ):
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        with LocalFleet(
            fitted_tuner,
            num_nodes=2,
            heartbeat_interval=0.1,
            ping_timeout=2.0,
            dead_after=1,
        ) as local:
            local.kill_node(0)
            assert local.sweep(regions, CAPS) == expected  # rebalanced
            assert local.wait_for_state(0, NodeState.DEAD, timeout=30.0)
            local.restart_node(0)
            # The monitor thread re-registers and re-admits on its own.
            assert local.wait_for_state(0, NodeState.LIVE, timeout=60.0)
            local.clear_caches()
            assert local.sweep(regions, CAPS) == expected
            stats = local.stats()
            assert len(stats) == 2
            assert all(s["size"] > 0 for s in stats.values())


class TestElasticity:
    def test_add_then_remove_node(self, fitted_tuner, small_builder):
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        ids = [region.region_id for region in regions]
        with LocalFleet(fitted_tuner, num_nodes=2, heartbeat_interval=None) as local:
            baseline = local.client.assignments(ids)
            index = local.add_node()
            assert index == 2
            grown = local.client.assignments(ids)
            # The joiner only steals keys; survivors keep theirs.
            assert all(b == a for b, a in zip(baseline, grown) if a != index)
            local.clear_caches()
            assert local.sweep(regions, CAPS) == expected
            stats = local.stats()
            assert len(stats) == 3
            assert all(s["size"] > 0 for s in stats.values())
            local.remove_node(index)
            assert local.client.assignments(ids) == baseline
            assert local.sweep(regions, CAPS) == expected
            with pytest.raises(KeyError):
                local.client.remove_node(index)

    def test_added_node_is_registered_at_current_version(
        self, fitted_tuner, retrained_tuner, small_builder
    ):
        regions = small_builder.regions()
        with LocalFleet(fitted_tuner, num_nodes=1, heartbeat_interval=None) as local:
            report = local.client.update_weights(retrained_tuner)
            assert report == {"version": 2, "updated": [0]}
            index = local.add_node()
            stats = local.stats()
            assert stats[index]["version"] == 2
            expected = _serial_sweep(retrained_tuner, regions)
            assert local.sweep(regions, CAPS) == expected


class TestRollingUpdate:
    def test_update_swaps_every_node_and_stays_byte_identical(
        self, fitted_tuner, retrained_tuner, small_builder
    ):
        regions = small_builder.regions()
        with LocalFleet(
            fitted_tuner, num_nodes=2, dtypes=("float32",), heartbeat_interval=None
        ) as local:
            assert local.sweep(regions, CAPS) == _serial_sweep(fitted_tuner, regions)
            report = local.client.update_weights(retrained_tuner)
            assert report["version"] == 2
            assert report["updated"] == [0, 1]
            assert local.client.weights_version == 2
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == _serial_sweep(
                    retrained_tuner, regions, dtype=dtype
                )
            assert all(s["version"] == 2 for s in local.stats().values())

    def test_stale_version_is_rejected_by_the_node(
        self, fitted_tuner, retrained_tuner
    ):
        with LocalFleet(fitted_tuner, num_nodes=1, heartbeat_interval=None) as local:
            local.client.update_weights(retrained_tuner)  # node now at version 2
            client = local.client
            sock = rpc.connect(local.addresses[0], timeout=10.0)
            try:
                stale = ("register", client._spec, WeightsUpdate(1, client._weights), ())
                with pytest.raises(RemoteError, match="stale weights version 1"):
                    rpc.request(sock, stale)
            finally:
                sock.close()
            # The node still serves version 2 afterwards.
            assert local.stats()[0]["version"] == 2

    def test_state_dict_payload_is_accepted(
        self, fitted_tuner, retrained_tuner, small_builder
    ):
        regions = small_builder.regions()
        with LocalFleet(fitted_tuner, num_nodes=1, heartbeat_interval=None) as local:
            local.client.update_weights(retrained_tuner.state_dict())
            assert local.sweep(regions, CAPS) == _serial_sweep(
                retrained_tuner, regions
            )


class TestChaosDrill:
    """The full self-healing story in one deterministic scenario.

    Kill a node mid-service, rebalance, restart it, re-admit it through the
    heartbeat handshake (reclaiming exactly its old shard), roll the fleet
    to a new weights version, then grow the fleet — asserting byte-identity
    against the serial tuner at float64 *and* float32 after every step, and
    that each topology change moved only the bounded ~1/N of regions.
    """

    def test_kill_restart_readmit_update_join(
        self, fitted_tuner, retrained_tuner, small_builder
    ):
        regions = small_builder.regions()
        ids = [region.region_id for region in regions]
        expected_v1 = {
            dtype: _serial_sweep(fitted_tuner, regions, dtype=dtype)
            for dtype in (None, "float32")
        }
        expected_v2 = {
            dtype: _serial_sweep(retrained_tuner, regions, dtype=dtype)
            for dtype in (None, "float32")
        }
        with LocalFleet(
            fitted_tuner, num_nodes=3, dtypes=("float32",), heartbeat_interval=None
        ) as local:
            client = local.client
            baseline = client.assignments(ids)
            assert len(set(baseline)) == 3  # all three nodes serve the suite
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == expected_v1[dtype]

            # --- kill: the client discovers the death mid-sweep and
            # rebalances the dead node's share onto the survivors.
            victim = baseline[0]
            local.kill_node(victim)
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == expected_v1[dtype]
            assert client.node_states()[victim] is NodeState.DEAD
            shrunk = client.assignments(ids)
            moved = sum(a != b for a, b in zip(baseline, shrunk))
            assert moved == baseline.count(victim)  # only the victim's keys
            assert all(b == a for b, a in zip(baseline, shrunk) if b != victim)

            # --- restart + re-admit: the node comes back under the same
            # member index and reclaims exactly its old shard.
            local.restart_node(victim)
            assert local.wait_for_state(victim, NodeState.LIVE, timeout=60.0)
            assert client.assignments(ids) == baseline
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == expected_v1[dtype]

            # --- rolling update: every node swaps to version 2 atomically.
            report = client.update_weights(retrained_tuner)
            assert report["version"] == 2
            assert sorted(report["updated"]) == sorted(set(baseline))
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == expected_v2[dtype]
            assert all(s["version"] == 2 for s in local.stats().values())

            # --- join: a fourth node steals a bounded share and serves the
            # current weights version immediately.
            joined = local.add_node()
            grown = client.assignments(ids)
            moved = sum(a != b for a, b in zip(baseline, grown))
            assert moved / len(ids) <= 1 / 4 + 0.35  # 6 keys: coarse bound
            assert all(b == a for b, a in zip(baseline, grown) if a != joined)
            for dtype in (None, "float32"):
                assert local.sweep(regions, CAPS, dtype=dtype) == expected_v2[dtype]
            assert local.stats()[joined]["version"] == 2


class TestRequestDeadlines:
    """Per-call deadlines threaded through the fleet's serving paths."""

    def test_sweep_node_matches_serial(self, fleet, fitted_tuner, small_builder):
        region = small_builder.regions()[0]
        node = fleet.client.serving_nodes()[0]
        [result] = fleet.client.sweep_node(node, [region], CAPS)
        assert result == fitted_tuner.predict_sweep(region, CAPS)

    def test_sweep_node_unknown_member_raises(self, fleet, small_builder):
        with pytest.raises(KeyError, match="no fleet member"):
            fleet.client.sweep_node(99, small_builder.regions()[:1], CAPS)

    def test_sweep_node_timeout_marks_the_node_dead(
        self, fitted_tuner, small_builder
    ):
        region = small_builder.regions()[0]
        with LocalFleet(
            fitted_tuner, num_nodes=2, heartbeat_interval=None
        ) as local:
            local.pause_node(0)
            with pytest.raises(rpc.RpcTimeout):
                local.client.sweep_node(0, [region], CAPS, timeout=0.5)
            # The timed-out socket is poisoned: the node goes DEAD and the
            # heartbeat owns its re-admission.
            assert local.client.node_states()[0] is NodeState.DEAD
            assert local.client.sweep_node(1, [region], CAPS, timeout=30.0)

    def test_request_timeout_rebalances_a_hung_node_mid_sweep(
        self, fitted_tuner, small_builder
    ):
        # With a client-wide request deadline, a sweep stuck on a
        # hung-but-connected node rebalances within the deadline instead of
        # waiting for a heartbeat verdict (the monitor is off here).
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        with LocalFleet(
            fitted_tuner,
            num_nodes=2,
            heartbeat_interval=None,
            request_timeout=1.0,
        ) as local:
            local.pause_node(0)
            assert local.sweep(regions, CAPS) == expected
            assert local.client.node_states()[0] is NodeState.DEAD


class TestGracefulShutdown:
    """SIGTERM drains in-flight requests and exits 0 — no hard kills."""

    def test_sigterm_exits_zero(self, fitted_tuner):
        with LocalFleet(
            fitted_tuner, num_nodes=1, heartbeat_interval=None
        ) as local:
            process = local._processes[0]
            os.kill(process.pid, signal.SIGTERM)
            process.join(timeout=30.0)
            assert process.exitcode == 0

    def test_sigterm_mid_sweep_finishes_the_reply(self, fitted_tuner, small_builder):
        regions = small_builder.regions()
        expected = _serial_sweep(fitted_tuner, regions)
        with LocalFleet(
            fitted_tuner, num_nodes=1, heartbeat_interval=None
        ) as local:
            process = local._processes[0]
            outcome = {}

            def run_sweep():
                outcome["results"] = local.sweep(regions, CAPS)

            sweeper = threading.Thread(target=run_sweep, daemon=True)
            sweeper.start()
            time.sleep(0.2)  # let the request land on the node first
            os.kill(process.pid, signal.SIGTERM)  # drain the in-flight sweep
            sweeper.join(timeout=60.0)
            assert not sweeper.is_alive()
            assert outcome["results"] == expected
            process.join(timeout=30.0)
            assert process.exitcode == 0


class TestNodeProcess:
    def test_node_freezes_the_heap_it_inherits_before_serving(self, monkeypatch):
        import repro.serve.node as node_module

        events = []
        monkeypatch.setattr(node_module.gc, "collect", lambda: events.append("collect"))
        monkeypatch.setattr(node_module.gc, "freeze", lambda: events.append("freeze"))

        def server_that_cannot_bind(**kwargs):
            events.append("server")
            raise OSError("address in use")

        monkeypatch.setattr(node_module, "NodeServer", server_that_cannot_bind)

        class Channel:
            def send(self, message):
                events.append(message[0])

            def close(self):
                pass

        node_module.node_subprocess_main(Channel())
        assert events == ["collect", "freeze", "server", "error"]
