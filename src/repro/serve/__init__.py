"""Fleet-scale serving for the PnP tuner.

The serving stack has two layers:

* **batch within a shard** — :meth:`repro.core.tuner.PnPTuner.predict_sweep_many`
  collates every cache-miss region graph of a multi-region sweep into one
  batch and encodes it with a single GNN pass;
* **shard across machines** — :class:`NodeServer` wraps a read-only
  serving tuner (rebuilt from the fitted weights, serialized once via the
  ``.npz`` round-trip, with its own pooled-embedding LRU cache) behind a
  TCP socket (self-verifying framed RPC — magic,
  protocol version, length and blake2s payload digest per frame, corrupt
  streams rejected as :exc:`~repro.serve.rpc.RpcCorruption` before any
  unpickling; :mod:`repro.serve.rpc`), and :class:`FleetClient` shards
  regions over the
  nodes with a virtual-node consistent-hash ring (:class:`HashRing`), ships
  the spec + versioned ``.npz`` weight bytes at registration, multiplexes
  per-node batched requests concurrently, and **self-heals**: a heartbeat
  monitor walks nodes through ``LIVE → SUSPECT → DEAD`` and re-admits
  recovered ones, membership grows/shrinks at runtime (moving only ~1/N of
  the regions), and :meth:`FleetClient.update_weights` rolls new weights
  across the fleet one node at a time.  :class:`LocalFleet` spins N node
  subprocesses on localhost — with kill/restart/pause failure drills — so
  the full wire path is exercisable on one machine.

Above both sits the request-shaped front door:

* **coalesce single requests into batches** — the asyncio :class:`Gateway`
  admits independent single-region predict requests, coalesces them within
  a ~5 ms deadline window into one batched sweep per node, and hardens the
  path against overload: bounded-queue admission control
  (:exc:`GatewayOverloaded`), end-to-end per-request deadlines
  (:exc:`DeadlineExceeded`, backed by :func:`repro.serve.rpc.request`'s
  per-call socket deadline and :exc:`~repro.serve.rpc.RpcTimeout`), hedged
  retries with per-node circuit breakers, and a rate-limited in-process
  fallback when the whole fleet is down.

Every layer is byte-identical to the serial per-region
``PnPTuner.predict_sweep`` path (asserted by ``tests/serve``) through kills,
recoveries, joins and rolling updates, so sharded serving — local or
multi-node, direct or gatewayed — is purely a throughput/availability
decision.

The transport is drillable at the byte level: :mod:`repro.serve.faults`
provides a seeded, fully deterministic :class:`FaultPlan` (delay / stall /
truncate / bit-flip / duplicate / reset events addressed by connection,
frame and byte offset) and a :class:`ChaosProxy` TCP man-in-the-middle
that ``LocalFleet(chaos=...)`` interposes on any node — the chaos drills
in ``tests/serve/test_chaos.py`` and the ``serve_chaos`` bench axis replay
identical corruption histories from a seed alone.

Every tier speaks the **unified Predictor API** (:mod:`repro.serve.predictor`):
``predict(region, power_cap, *, dtype=, deadline=)`` and its sweep variants.
:class:`GNNPredictor` wraps the full tuner path, :class:`MicroPredictor`
serves distilled micro-models (:mod:`repro.distill`) with a calibrated trust
gate (:exc:`UntrustedRegion`), and :class:`TieredPredictor` routes between
them — trusted regions hit the dense-only micro tier, everything else falls
back to the GNN path byte-identically.  Replicas pick their predictor
through :func:`~repro.serve.spec.build_predictor_from_update`, so shipping a
distilled blob in a :class:`~repro.serve.spec.WeightsUpdate` upgrades nodes
and the gateway fallback to tiered serving uniformly.

:func:`parallel_map` is the small deterministic process-pool primitive the
experiment runners use to shard cross-validation folds.
"""

from repro.serve.faults import ChaosProxy, FaultEvent, FaultPlan
from repro.serve.fleet import FleetClient, FleetExhausted, LocalFleet, NodeState
from repro.serve.gateway import Gateway, GatewayOverloaded
from repro.serve.node import NodeServer
from repro.serve.predictor import (
    DeadlineExceeded,
    GNNPredictor,
    MicroPredictor,
    Predictor,
    TieredPredictor,
    UntrustedRegion,
    tiered_predictor,
)
from repro.serve.rpc import RpcCorruption, RpcTimeout
from repro.serve.server import parallel_map
from repro.serve.sharding import HashRing
from repro.serve.spec import build_predictor_from_update

__all__ = [
    "ChaosProxy",
    "DeadlineExceeded",
    "FaultEvent",
    "FaultPlan",
    "FleetClient",
    "FleetExhausted",
    "GNNPredictor",
    "Gateway",
    "GatewayOverloaded",
    "HashRing",
    "LocalFleet",
    "MicroPredictor",
    "NodeServer",
    "NodeState",
    "Predictor",
    "RpcCorruption",
    "RpcTimeout",
    "TieredPredictor",
    "UntrustedRegion",
    "build_predictor_from_update",
    "parallel_map",
    "tiered_predictor",
]
