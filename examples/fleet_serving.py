#!/usr/bin/env python
"""Fleet serving: sweep every region of the suite, batched and sharded.

The paper's headline use-case is tuning *every* parallel region of an
application suite.  This script trains the PnP tuner once and then answers a
power-cap sweep for the whole 68-region suite three ways —

1. serially (one ``predict_sweep`` per region),
2. batched (``predict_sweep_many``: one collated GNN pass for all cache-miss
   regions, one dense-head product for all region × cap pairs),
3. fleet (``repro.serve.LocalFleet``: the same sweep over TCP
   ``NodeServer`` subprocesses — the full multi-node wire path, with the
   spec + ``.npz`` weight bytes shipped once at registration and each
   node batch-encoding its content-hash shard),

verifies that all three agree exactly, and prints the wall-clock of each.

It then runs the **self-healing churn drill** on the fleet: kill a node
mid-service (the sweep rebalances onto the survivors and still matches the
serial path byte for byte), restart it (the heartbeat handshake re-admits
it under the same member index, so it reclaims exactly its old
consistent-hash shard), and roll a weight update across the fleet one node
at a time — asserting byte-identity after every step.

It then opens the **asyncio Gateway** — the request-shaped front door
(admit -> coalesce -> dispatch -> hedge -> degrade): a burst of concurrent
single-region requests is coalesced into one batched sweep per fleet node
(a request goes at once when its node has no call in flight; otherwise it
waits for that call to return, at most 5 ms) and answered byte-identically to
the serial path, and after the whole fleet is killed the gateway keeps
answering from its rate-limited in-process fallback.

Finally it distils the GNN into the **micro tier** (``repro.distill``):
one tiny dense model per pattern family, served allocation-free behind the
unified ``Predictor`` API.  A ``TieredPredictor`` routes in-family regions
to the micro tier (microsecond single-region predicts) and everything its
trust gate rejects to the GNN fallback — byte-identical to the plain
tuner — and registering the distilled blob with a ``LocalFleet`` upgrades
every TCP node to the same two-tier stack.

Every path runs the **compiled inference runtime**: the fitted weights are
lowered once (``tuner.compile_inference()``) into a flat raw-ndarray kernel
program — no ``Tensor`` wrappers, no autograd bookkeeping — and the fleet's
nodes compile their own program from the shipped ``.npz`` weights.  The
script asserts the compiled program is bit-identical to the retained
``Module`` forward before timing anything.

Run with::

    python examples/fleet_serving.py [--epochs 10] [--nodes 2]
"""

from __future__ import annotations

import argparse
import asyncio
import time

import numpy as np

from repro.core import PnPTuner, TrainingConfig
from repro.serve import Gateway, LocalFleet, NodeState


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--system", default="haswell", choices=["haswell", "skylake"])
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--num-caps", type=int, default=16)
    parser.add_argument("--distill-epochs", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    tuner = PnPTuner(
        system=args.system,
        objective="time",
        training_config=TrainingConfig(epochs=args.epochs, optimizer="adamw", seed=args.seed),
        seed=args.seed,
    )
    print(f"Training the PnP tuner on {args.system} ({args.epochs} epochs)...")
    tuner.fit()

    regions = tuner.builder.regions()
    space = tuner.search_space
    caps = [
        float(c)
        for c in np.linspace(min(space.power_caps), max(space.power_caps), args.num_caps)
    ]

    # Lower the fitted weights to the autograd-free inference program (the
    # same cached program every predict/sweep call below executes) and prove
    # it is bit-identical to the Module forward on a real batch.
    program = tuner.compile_inference()
    from repro.nn.data import collate_graphs

    probe = collate_graphs(
        [tuner.builder.inference_sample(r, power_cap=caps[0]).sample for r in regions[:8]]
    )
    assert (
        program.encode_pooled(probe).tobytes() == tuner.model.encode_pooled(probe).tobytes()
    ), "compiled inference program must match the Module encoder bit for bit"
    print(f"Compiled inference program: {len(program.describe())} kernel steps, "
          "bit-identical to the Module path")

    print(f"Sweeping {len(regions)} regions x {len(caps)} power caps...")

    # Warm the builder's one-time memos (graphs, structural samples) so no
    # timed pass below is charged dataset-construction work.
    tuner.predict_sweep_many(regions, caps)

    tuner._embedding_cache.clear()
    start = time.perf_counter()
    serial = [tuner.predict_sweep(region, caps) for region in regions]
    serial_s = time.perf_counter() - start

    tuner._embedding_cache.clear()
    start = time.perf_counter()
    batched = tuner.predict_sweep_many(regions, caps)
    batched_s = time.perf_counter() - start

    # The multi-node wire path: N TCP NodeServer subprocesses, spec +
    # weight bytes registered once, every sweep sharded by content hash and
    # multiplexed concurrently over the node sockets.
    with LocalFleet(tuner, num_nodes=args.nodes) as local_fleet:
        fleet_results = local_fleet.sweep(regions, caps)  # nodes encode cold
        local_fleet.clear_caches()
        start = time.perf_counter()
        fleet_results = local_fleet.sweep(regions, caps)
        fleet_s = time.perf_counter() - start

    assert batched == serial, "batched sweep must match the serial path"
    assert fleet_results == serial, "fleet sweep must match the serial path"

    print(f"  serial  : {serial_s * 1e3:7.1f} ms (compiled program)")
    print(f"  batched : {batched_s * 1e3:7.1f} ms ({serial_s / batched_s:.2f}x vs serial)")
    print(
        f"  fleet   : {fleet_s * 1e3:7.1f} ms ({serial_s / fleet_s:.2f}x vs serial, "
        f"{args.nodes} TCP nodes)"
    )

    best = serial[0][0]
    print(
        f"\nAll paths agree; e.g. {best.region_id} @ "
        f"{best.power_cap:.0f}W -> {best.config.label()}"
    )

    # ------------------------------------------------- self-healing drill
    # A fresh 2-node fleet with the heartbeat monitor disabled: every health
    # transition below is driven explicitly, so the drill is deterministic.
    print("\nChurn drill (kill -> rebalance -> restart -> re-admit -> update):")
    with LocalFleet(tuner, num_nodes=2, heartbeat_interval=None) as drill:
        client = drill.client
        ids = [region.region_id for region in regions]
        before = client.assignments(ids)

        drill.kill_node(0)
        start = time.perf_counter()
        survived = drill.sweep(regions, caps)  # discovers the death mid-sweep
        failover_s = time.perf_counter() - start
        assert survived == serial, "post-kill sweep must match the serial path"
        moved = sum(a != b for a, b in zip(before, client.assignments(ids)))
        print(
            f"  killed node 0: sweep rebalanced in {failover_s * 1e3:.1f} ms, "
            f"{moved}/{len(ids)} regions moved (only the dead node's shard)"
        )

        drill.restart_node(0)
        readmitted = drill.wait_for_state(0, NodeState.LIVE, timeout=120.0)
        assert readmitted, "restarted node must be re-admitted"
        assert client.assignments(ids) == before, "rejoin reclaims the old shard"
        assert drill.sweep(regions, caps) == serial
        print("  restarted node 0: re-admitted LIVE, original assignment restored")

        report = client.update_weights(tuner.state_dict())
        assert drill.sweep(regions, caps) == serial
        print(
            f"  rolling update: fleet at weights version {report['version']}, "
            f"nodes {report['updated']} upgraded one at a time, bytes unchanged"
        )

    # ---------------------------------------------- gateway request path
    # The request-shaped front door: independent single-region requests are
    # admitted into a bounded queue, coalesced into one batched sweep per
    # fleet node (at once when the node has no call in flight; otherwise
    # when its call returns, at most the 5 ms window), hedged/retried
    # around slow or dead nodes, and — when the whole fleet is gone —
    # answered by a rate-limited in-process fallback instead of failing.
    print("\nGateway (admit -> coalesce -> dispatch -> hedge -> degrade):")

    async def gateway_demo() -> None:
        with LocalFleet(
            tuner,
            num_nodes=args.nodes,
            heartbeat_interval=0.5,
            ping_timeout=1.0,
            dead_after=1,
        ) as fleet:
            gateway = Gateway(fleet.client, window_s=0.005, default_timeout=120.0)
            async with gateway:
                sample = regions[:24]
                start = time.perf_counter()
                answers = await asyncio.gather(
                    *(gateway.predict_sweep(region, caps) for region in sample)
                )
                gather_s = time.perf_counter() - start
                assert answers == serial[: len(sample)], "gateway must match serial"
                stats = gateway.stats()
                print(
                    f"  {stats['admitted']} concurrent requests coalesced into "
                    f"batched node sweeps, answered in {gather_s * 1e3:.1f} ms, "
                    "byte-identical to serial"
                )

                for index in range(args.nodes):
                    fleet.kill_node(index)
                fallback = await gateway.predict_sweep(regions[0], caps)
                assert fallback == serial[0], "fallback must match serial"
                stats = gateway.stats()
                print(
                    "  fleet killed: answered from the in-process fallback "
                    f"(degraded={stats['degraded']}, fallbacks={stats['fallbacks']})"
                )

    asyncio.run(gateway_demo())

    # ------------------------------------------------- distilled micro tier
    # Teacher–student distillation: one tiny dense model per pattern family,
    # trained on perturbed regions labelled with the GNN's pooled embeddings,
    # then served allocation-free behind the unified Predictor API.  The
    # TieredPredictor routes in-family regions to the micro tier and
    # everything its trust gate rejects to the GNN fallback — which is the
    # tuner path itself, so fallback answers are byte-identical by
    # construction.
    print("\nDistilled micro tier (unified Predictor API):")
    from repro.distill import StudentConfig, distill, perturb_out_of_family
    from repro.serve import tiered_predictor

    start = time.perf_counter()
    model = distill(
        tuner,
        config=StudentConfig(per_region=2, epochs=args.distill_epochs, seed=args.seed),
    )
    distill_s = time.perf_counter() - start
    tiered = tiered_predictor(tuner, model)
    print(
        f"  distilled {len(model.families)} families in {distill_s:.1f} s "
        f"({args.distill_epochs} epochs/family)"
    )

    # Warm both tiers, then time the dense single-region path against the
    # GNN on a region it has never embedded (the cache-miss serving case).
    region = regions[0]
    tiered.predict(region, caps[0])
    reps = 200
    start = time.perf_counter()
    for _ in range(reps):
        micro_answer = tiered.predict(region, caps[0])
    micro_s = (time.perf_counter() - start) / reps
    gnn_reps = 10
    start = time.perf_counter()
    for _ in range(gnn_reps):
        tuner._embedding_cache.clear()
        gnn_answer = tuner.predict(region, caps[0])
    gnn_s = (time.perf_counter() - start) / gnn_reps
    if micro_answer.config == gnn_answer.config:
        picks = f"both pick {micro_answer.config.label()}"
    else:
        picks = (
            f"micro picks {micro_answer.config.label()}, "
            f"GNN picks {gnn_answer.config.label()}"
        )
    print(
        f"  warm micro predict: {micro_s * 1e6:.0f} us vs novel-region GNN "
        f"{gnn_s * 1e6:.0f} us ({gnn_s / micro_s:.1f}x); {picks} @ {caps[0]:.0f}W"
    )

    # Out-of-family inputs fail the trust gate and take the GNN fallback.
    outside = perturb_out_of_family(region)
    tuner._embedding_cache.clear()
    assert tiered.predict_sweep(outside, caps) == tuner.predict_sweep(outside, caps), (
        "fallback answers must be byte-identical to the tuner"
    )
    stats = tiered.tier_stats()
    print(
        f"  trust gate: out-of-family region routed to the GNN byte-identically "
        f"(micro_hits={stats['micro_hits']}, fallbacks={stats['fallbacks']})"
    )

    # Registering the blob with the fleet upgrades every TCP node to the
    # same two-tier stack; node stats surface the tier counters.
    with LocalFleet(tuner, num_nodes=args.nodes, distilled=model.to_blob()) as fleet:
        fleet_tiered = fleet.sweep(regions, caps)
        assert fleet_tiered == tiered.predict_sweep_many(regions, caps), (
            "fleet answers must match the in-process tiered predictor"
        )
        hits = sum(node["tier"]["micro_hits"] for node in fleet.stats().values())
        print(
            f"  fleet: {args.nodes} TCP nodes serving the tiered path, "
            f"{hits}/{len(regions)} regions answered by the micro tier"
        )


if __name__ == "__main__":
    main()
