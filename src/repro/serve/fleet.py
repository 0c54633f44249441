"""Self-healing multi-node fleet serving: :class:`FleetClient` + :class:`LocalFleet`.

:class:`FleetClient` shards sweeps over an **elastic, self-healing
membership** of TCP nodes:

* **Consistent-hash routing** — regions are assigned to nodes by a
  virtual-node blake2s :class:`~repro.serve.sharding.HashRing` keyed by the
  stable member index, so a node crash, restart or join moves only ~1/N of
  the regions; every surviving node keeps its exact shard and therefore its
  warm embedding cache.
* **Heartbeats and a node lifecycle** — a background monitor pings every
  node on a bounded-timeout side connection.  A node that stops answering
  goes ``LIVE → SUSPECT → DEAD`` (never "removed forever"): DEAD nodes keep
  being probed with exponential backoff, and a node that answers again is
  **re-admitted** through a handshake (ping + re-registration whenever its
  weights version or registration is stale).  Marking a node DEAD also
  shuts its request socket down, which unblocks any sweep request stuck on
  a hung-but-connected node (e.g. a SIGSTOPped process) so the sweep
  rebalances instead of hanging.
* **Runtime elasticity** — :meth:`FleetClient.add_node` /
  :meth:`FleetClient.remove_node` grow and shrink the membership while
  serving; a joining node is registered with the current weights version
  before it takes traffic.
* **Rolling weight updates** — :meth:`FleetClient.update_weights` ships a
  new :class:`~repro.serve.spec.WeightsUpdate` (monotonic version) to one
  node at a time, so the fleet never has zero registered servers; each node
  builds the replacement tuner off-lock and swaps it atomically while its
  in-flight sweeps finish on the old version.  Nodes that are DEAD during
  the roll pick the new version up at re-admission.

Sweeps batch each live node's shard into one ``predict_sweep_many`` request,
multiplex the requests concurrently, and rebalance pending regions whenever
a node dies mid-sweep; a sweep fails only when *every* node is gone, with
:class:`FleetExhausted` naming each node and why it was lost.  Results are
reassembled in input order and are byte-identical to serial per-region
``predict_sweep`` on the registered tuner at float64 and float32 — through
kills, recoveries, joins and rolling updates (``tests/serve``); topology is
purely a throughput/availability event, never a correctness event.

:class:`LocalFleet` spins ``num_nodes`` :class:`NodeServer` subprocesses on
localhost and registers a fitted tuner with all of them, so tests, examples
and benchmarks exercise the full wire path on one machine — including the
failure drills: :meth:`LocalFleet.kill_node` (lose a machine),
:meth:`LocalFleet.restart_node` (bring it back under the same member index),
:meth:`LocalFleet.pause_node` / :meth:`LocalFleet.resume_node`
(SIGSTOP/SIGCONT — a hung-but-connected node the EOF path cannot see)::

    with LocalFleet(tuner, num_nodes=2) as fleet:
        results = fleet.sweep(regions, power_caps)   # == serial predict_sweep
        fleet.kill_node(0)
        fleet.sweep(regions, power_caps)             # rebalanced, identical
        fleet.restart_node(0)
        fleet.client.wait_for_state(0, NodeState.LIVE)
        fleet.client.update_weights(new_tuner)       # rolling, no serving gap
"""

from __future__ import annotations

import enum
import multiprocessing
import os
import signal
import socket
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.tuner import PnPTuner, TuningResult
from repro.openmp.region import RegionCharacteristics
from repro.serve import rpc
from repro.serve.faults import ChaosProxy
from repro.serve.node import node_subprocess_main
from repro.serve.sharding import shared_ring
from repro.serve.spec import (
    WeightsUpdate,
    build_predictor_from_update,
    default_start_method,
    tuner_spec,
    weights_blob,
)
from repro.utils.logging import get_logger

__all__ = ["FleetClient", "FleetExhausted", "LocalFleet", "NodeState"]

_LOG = get_logger("serve.fleet")

#: Sentinel: ``update_weights`` keeps the registered distilled blob unless
#: the caller explicitly passes bytes (roll a new tier) or None (drop it).
_KEEP_DISTILLED = object()


class NodeState(enum.Enum):
    """Lifecycle of a fleet member: LIVE → SUSPECT → DEAD → (re-admitted)."""

    LIVE = "live"
    SUSPECT = "suspect"
    DEAD = "dead"


class FleetExhausted(RuntimeError):
    """Every fleet node is unavailable; names each node and why it was lost."""

    def __init__(self, reasons: Mapping[int, str], unserved: int = 0) -> None:
        self.reasons = dict(reasons)
        self.unserved = unserved
        detail = (
            "; ".join(
                f"node {index}: {why}" for index, why in sorted(self.reasons.items())
            )
            or "the fleet has no members"
        )
        message = "all fleet nodes failed"
        if unserved:
            message += f" with {unserved} regions unserved"
        super().__init__(f"{message} ({detail})")


class _Member:
    """One fleet member: endpoint, request socket, health + probe bookkeeping."""

    def __init__(self, index: int, address: Tuple[str, int]) -> None:
        self.index = index
        self.address: Tuple[str, int] = tuple(address)
        self.sock: Optional[socket.socket] = None
        # Serializes request/reply traffic on the socket.  Health transitions
        # deliberately do NOT take this lock: disconnect() must be able to
        # shut the socket down underneath a request that is blocked on a
        # hung node, which is exactly what unblocks it.
        self.lock = threading.Lock()
        self.state = NodeState.DEAD
        self.reason = "never connected"
        self.failures = 0
        self.next_probe = 0.0
        self.probe_backoff = 0.0
        # Transport accounting (plain GIL-guarded increments, read by
        # FleetClient.transport_stats): frames from this node that failed
        # verification, DEAD transitions, and successful re-admissions.
        self.corruption = 0
        self.teardowns = 0
        self.readmissions = 0

    def request(self, payload: Tuple, timeout: Optional[float] = None):
        """One request/reply on the member socket, optionally deadline-bound.

        With a ``timeout`` the socket lock itself is acquired under the same
        budget — a request stuck behind another caller's hung conversation
        times out instead of queueing unboundedly — and the RPC round trip
        runs under a per-call socket deadline (:exc:`~repro.serve.rpc.RpcTimeout`).
        """
        if timeout is None:
            acquired = self.lock.acquire()
        else:
            acquired = self.lock.acquire(timeout=timeout)
            if not acquired:
                raise rpc.RpcTimeout(
                    f"node {self.index} request lock not acquired within "
                    f"{timeout:.3f}s (another request is stuck on the socket)"
                )
        try:
            sock = self.sock
            if sock is None:
                raise rpc.ConnectionClosed("no open connection to the node")
            try:
                return rpc.request(sock, payload, timeout=timeout)
            except rpc.RpcCorruption:
                self.corruption += 1
                raise
        finally:
            self.lock.release()

    def disconnect(self) -> None:
        """Tear the request socket down; wakes any request blocked on it."""
        sock, self.sock = self.sock, None
        if sock is None:
            return
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass


class FleetClient:
    """Sharded sweep serving over an elastic fleet of TCP :class:`NodeServer` nodes.

    Connect, register a fitted tuner once, then :meth:`sweep` any number of
    times; close explicitly or use as a context manager.  Node loss marks
    the member DEAD (its in-flight share is rebalanced onto the survivors)
    and the heartbeat monitor keeps probing it — a recovered node is
    re-admitted after a ping + re-registration handshake, reclaiming exactly
    its old consistent-hash shard.

    ``heartbeat_interval=None`` disables the background monitor thread;
    :meth:`probe_now` then drives the same health pass synchronously (the
    deterministic mode the failure-drill tests use).
    """

    #: First retry delay after a node is marked DEAD; doubles per failed
    #: probe up to :attr:`_PROBE_BACKOFF_MAX` (monitor-driven probes only —
    #: ``probe_now(force=True)`` ignores the schedule).
    _PROBE_BACKOFF_BASE = 0.5
    _PROBE_BACKOFF_MAX = 30.0

    def __init__(
        self,
        addresses: Sequence[Tuple[str, int]],
        connect_timeout: Optional[float] = 60.0,
        heartbeat_interval: Optional[float] = 2.0,
        ping_timeout: float = 5.0,
        dead_after: int = 3,
        connect_attempts: int = 5,
        request_timeout: Optional[float] = None,
    ) -> None:
        if not addresses:
            raise ValueError("a fleet needs at least one node address")
        self._connect_timeout = connect_timeout
        self._ping_timeout = ping_timeout
        self._dead_after = max(1, int(dead_after))
        self._connect_attempts = max(1, int(connect_attempts))
        #: Per-call deadline for sweep/clear/stats traffic (None = block).
        #: A request that trips it raises RpcTimeout on the caller side and
        #: marks the node DEAD (the timed-out socket is poisoned), so a
        #: hung-but-connected node stalls a sweep for at most the deadline
        #: instead of until the heartbeat monitor notices.  Registration
        #: and rolling updates use connect_timeout instead: rebuilding a
        #: tuner on the node legitimately takes seconds.
        self._request_timeout = request_timeout
        self._members: Dict[int, _Member] = {}
        self._next_index = 0
        # _state_lock guards membership + health state + the registration
        # payload; never held across network I/O.  _serving_lock serializes
        # sweeps against rolling updates, so one client never observes a
        # sweep served by mixed weight generations.
        self._state_lock = threading.RLock()
        self._serving_lock = threading.RLock()
        self._spec = None
        self._weights: Optional[bytes] = None
        self._distilled: Optional[bytes] = None
        self._dtypes: Tuple = ()
        self._version = 0
        self._closed = False
        self._monitor: Optional[threading.Thread] = None
        self._monitor_stop = threading.Event()
        self._monitor_wake = threading.Event()
        try:
            for address in addresses:
                self._add_member(tuple(address))
        except OSError:
            self.close()
            raise
        if heartbeat_interval is not None:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                args=(float(heartbeat_interval),),
                daemon=True,
                name="fleet-heartbeat",
            )
            self._monitor.start()

    # ------------------------------------------------------------- topology
    @property
    def alive_nodes(self) -> List[int]:
        """Member indices currently in the LIVE state."""
        with self._state_lock:
            return [
                index
                for index, member in sorted(self._members.items())
                if member.state is NodeState.LIVE
            ]

    def node_states(self) -> Dict[int, NodeState]:
        """The full membership with each member's lifecycle state."""
        with self._state_lock:
            return {
                index: member.state for index, member in sorted(self._members.items())
            }

    @property
    def weights_version(self) -> int:
        """The current (monotonic) registered weights generation."""
        return self._version

    def add_node(self, address: Tuple[str, int]) -> int:
        """Join a node at runtime; returns its permanent member index.

        The node is registered with the current weights version before it
        becomes routable, so a join never serves unregistered traffic; on
        the ring it steals only ≈1/(N+1) of the regions.
        """
        self._require_open()
        with self._serving_lock:
            member = self._add_member(tuple(address))
            if self._spec is not None:
                try:
                    member.request(
                        self._register_payload(), timeout=self._connect_timeout
                    )
                except (rpc.ConnectionClosed, OSError) as error:
                    self._mark_dead(member, f"registration failed: {error}")
                    raise
            _LOG.info("fleet node %d (%s:%d) joined", member.index, *member.address)
            return member.index

    def remove_node(self, index: int) -> None:
        """Administratively decommission a member (permanent, unlike DEAD)."""
        self._require_open()
        with self._state_lock:
            member = self._members.pop(index, None)
        if member is None:
            raise KeyError(f"no fleet member with index {index}")
        member.disconnect()
        _LOG.info("fleet node %d (%s:%d) removed", index, *member.address)

    def update_address(self, index: int, address: Tuple[str, int]) -> None:
        """Point a member at a new endpoint (a node restarted elsewhere).

        The member is marked DEAD and scheduled for an immediate probe; the
        heartbeat handshake re-admits it once the new endpoint answers.
        """
        with self._state_lock:
            member = self._members[index]
            member.address = tuple(address)
        self._mark_dead(member, "restarted at a new address", immediate_probe=True)

    def _add_member(self, address: Tuple[str, int]) -> _Member:
        with self._state_lock:
            index = self._next_index
            self._next_index += 1
            member = _Member(index, address)
            self._members[index] = member
        sock = rpc.connect(
            address, timeout=self._connect_timeout, attempts=self._connect_attempts
        )
        sock.settimeout(None)
        member.sock = sock
        with self._state_lock:
            member.state = NodeState.LIVE
            member.reason = ""
        return member

    def _serving_indices(self) -> List[int]:
        """Members a sweep may route to: connected and not DEAD."""
        with self._state_lock:
            return [
                index
                for index, member in sorted(self._members.items())
                if member.state is not NodeState.DEAD and member.sock is not None
            ]

    def serving_nodes(self) -> List[int]:
        """Member indices a request may currently route to (not DEAD, connected).

        Unlike :attr:`alive_nodes` this includes SUSPECT members — they are
        degraded, not lost — matching what :meth:`sweep` itself routes over.
        The gateway batches against exactly this set.
        """
        self._require_open()
        return self._serving_indices()

    def _failure_reasons(self) -> Dict[int, str]:
        with self._state_lock:
            return {
                index: (
                    f"{member.address[0]}:{member.address[1]} {member.state.value}"
                    + (f" ({member.reason})" if member.reason else "")
                )
                for index, member in self._members.items()
            }

    def assignments(self, region_ids: Sequence[str]) -> List[int]:
        """The current region → member-index routing (pure ring math).

        Deterministic given the serving membership; the tests use it to
        verify that topology changes move only ~1/N of the regions.
        """
        indices = self._serving_indices()
        if not indices:
            raise FleetExhausted(self._failure_reasons())
        return shared_ring(tuple(indices)).assignments(region_ids)

    # ------------------------------------------------------- health machine
    def _mark_dead(
        self, member: _Member, reason: str, immediate_probe: bool = False
    ) -> None:
        with self._state_lock:
            if member.state is not NodeState.DEAD:
                member.teardowns += 1
                _LOG.warning(
                    "fleet node %d (%s:%d) marked DEAD: %s",
                    member.index,
                    *member.address,
                    reason,
                )
            member.state = NodeState.DEAD
            member.reason = reason
            member.probe_backoff = 0.0 if immediate_probe else self._PROBE_BACKOFF_BASE
            member.next_probe = (
                0.0 if immediate_probe else time.monotonic() + member.probe_backoff
            )
        member.disconnect()
        self._monitor_wake.set()

    def _note_probe_failure(self, member: _Member, reason: str) -> None:
        with self._state_lock:
            member.failures += 1
            failures = member.failures
            if member.state is NodeState.LIVE and failures < self._dead_after:
                member.state = NodeState.SUSPECT
                member.reason = reason
                _LOG.warning(
                    "fleet node %d (%s:%d) SUSPECT (%d/%d failures): %s",
                    member.index,
                    *member.address,
                    failures,
                    self._dead_after,
                    reason,
                )
                return
            if member.state is NodeState.SUSPECT and failures < self._dead_after:
                member.reason = reason
                return
            if member.state is NodeState.DEAD:
                # Exponential backoff between probes of a dead node.
                member.probe_backoff = min(
                    max(member.probe_backoff * 2, self._PROBE_BACKOFF_BASE),
                    self._PROBE_BACKOFF_MAX,
                )
                member.next_probe = time.monotonic() + member.probe_backoff
                member.reason = reason
                return
        self._mark_dead(member, reason)

    def probe_now(self, force: bool = False) -> Dict[int, NodeState]:
        """One synchronous heartbeat pass over every member.

        Pings each node on a fresh bounded-timeout connection, advances the
        LIVE → SUSPECT → DEAD machine on failures, and re-admits recovered
        nodes via the handshake.  ``force=True`` ignores the exponential
        probe backoff of DEAD members.  Returns the resulting states.
        """
        now = time.monotonic()
        with self._state_lock:
            members = [m for _, m in sorted(self._members.items())]
        for member in members:
            if self._closed:
                break
            if member.state is NodeState.DEAD and not force and now < member.next_probe:
                continue
            self._probe(member)
        return self.node_states()

    def wait_for_state(
        self, index: int, state: NodeState, timeout: float = 30.0
    ) -> bool:
        """Block until member ``index`` reaches ``state`` (or timeout).

        Prompts immediate probes while waiting, so re-admission does not
        have to wait out the monitor interval or the dead-node backoff.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._state_lock:
                member = self._members.get(index)
                current = member.state if member is not None else None
                if member is not None:
                    member.next_probe = 0.0
            if current is state:
                return True
            if time.monotonic() >= deadline:
                return False
            if self._monitor is None:
                self.probe_now(force=True)
            else:
                self._monitor_wake.set()
            time.sleep(0.05)

    def _probe(self, member: _Member) -> None:
        """Ping one member on a side connection; heal or degrade its state."""
        try:
            sock = rpc.connect(member.address, timeout=self._ping_timeout, attempts=1)
        except OSError as error:
            self._note_probe_failure(member, f"ping connect failed: {error}")
            return
        try:
            sock.settimeout(self._ping_timeout)
            info = rpc.request(sock, ("ping",))
        except rpc.RpcCorruption as error:
            member.corruption += 1
            self._close_quietly(sock)
            self._note_probe_failure(member, f"ping reply corrupt: {error}")
            return
        except (rpc.RemoteError, rpc.ConnectionClosed, OSError) as error:
            self._close_quietly(sock)
            self._note_probe_failure(member, f"ping failed: {error}")
            return
        try:
            self._readmit(member, sock, info)
        except rpc.RpcCorruption as error:
            member.corruption += 1
            self._close_quietly(sock)
            self._note_probe_failure(member, f"re-admission handshake failed: {error}")
        except (rpc.RemoteError, rpc.ConnectionClosed, OSError) as error:
            self._close_quietly(sock)
            self._note_probe_failure(member, f"re-admission handshake failed: {error}")

    def _readmit(self, member: _Member, sock: socket.socket, info: Dict) -> None:
        """Second half of the handshake: re-register if stale, then go LIVE."""
        with self._state_lock:
            payload = self._register_payload() if self._spec is not None else None
            version = self._version
        needs_register = payload is not None and (
            not info.get("registered") or info.get("version") != version
        )
        if needs_register:
            # Registration rebuilds a tuner on the node — allow real time.
            sock.settimeout(self._connect_timeout)
            rpc.request(sock, payload)
        sock.settimeout(None)
        with self._state_lock:
            if self._closed or member.index not in self._members:
                adopt = False  # removed (or client closed) while probing
            elif member.sock is None:
                member.sock = sock
                adopt = True
            else:
                adopt = False  # existing request socket still healthy; keep it
            if member.index in self._members and not self._closed:
                if member.state is not NodeState.LIVE:
                    member.readmissions += 1
                    _LOG.info(
                        "fleet node %d (%s:%d) re-admitted at weights version %d",
                        member.index,
                        *member.address,
                        version,
                    )
                member.state = NodeState.LIVE
                member.reason = ""
                member.failures = 0
                member.probe_backoff = 0.0
        if not adopt:
            self._close_quietly(sock)

    @staticmethod
    def _close_quietly(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def _monitor_loop(self, interval: float) -> None:
        while True:
            self._monitor_wake.wait(timeout=interval)
            self._monitor_wake.clear()
            if self._monitor_stop.is_set() or self._closed:
                return
            try:
                self.probe_now()
            except Exception:  # noqa: BLE001 - pragma: no cover - must not die
                _LOG.exception("heartbeat pass failed")

    # --------------------------------------------------------- registration
    def _register_payload(self) -> Tuple:
        return (
            "register",
            self._spec,
            WeightsUpdate(
                version=self._version, blob=self._weights, distilled=self._distilled
            ),
            self._dtypes,
        )

    def register_tuner(
        self,
        tuner: PnPTuner,
        dtypes: Sequence[str] = (),
        distilled: Optional[bytes] = None,
    ) -> List[Dict[str, object]]:
        """Ship the tuner spec + versioned ``.npz`` weight bytes to every node.

        ``dtypes`` lists additional serving precisions every node compiles
        eagerly (e.g. ``("float32",)`` on a float64-trained tuner); the
        tuner's own dtype is always compiled.  ``distilled`` optionally
        ships a :meth:`~repro.distill.student.DistilledModel.to_blob`
        payload alongside the weights, turning every node into a tiered
        micro/GNN server.  Starts the monotonic weights version counter;
        later generations ship via :meth:`update_weights`.  Registration
        must reach every currently-connected node — a node that cannot
        register is a configuration error, not a health event.
        """
        self._require_open()
        with self._serving_lock:
            spec = tuner_spec(tuner)
            blob = weights_blob(tuner.state_dict())
            with self._state_lock:
                self._spec = spec
                self._weights = blob
                self._distilled = distilled
                self._dtypes = tuple(dtypes)
                self._version += 1
                payload = self._register_payload()
            return self._request_concurrently(
                {index: payload for index in self._serving_indices()},
                rebalance=False,
                timeout=self._connect_timeout,
            )

    def update_weights(
        self,
        weights: Union[PnPTuner, Mapping[str, "np.ndarray"]],
        dtypes: Optional[Sequence[str]] = None,
        distilled: Union[bytes, None, object] = _KEEP_DISTILLED,
    ) -> Dict[str, object]:
        """Roll new weights across the fleet one node at a time (no gap).

        ``weights`` is a fitted tuner or a ``state_dict()`` mapping for the
        registered spec.  Each node receives a
        :class:`~repro.serve.spec.WeightsUpdate` with the next version and
        swaps tuners atomically while its in-flight sweeps finish on the old
        one; because nodes upgrade sequentially, the fleet always has
        registered servers mid-roll.  A node lost during the roll is marked
        DEAD and picks the new version up at re-admission.  ``distilled``
        defaults to keeping the registered micro-model blob; pass new blob
        bytes to roll a re-distilled tier with the weights, or ``None`` to
        drop the micro tier fleet-wide.  Returns
        ``{"version": v, "updated": [indices...]}``.
        """
        self._require_open()
        if hasattr(weights, "state_dict"):
            weights = weights.state_dict()
        with self._serving_lock:
            if self._spec is None:
                raise RuntimeError("register_tuner() a fleet before update_weights()")
            blob = weights_blob(dict(weights))
            with self._state_lock:
                version = self._version + 1
                new_dtypes = tuple(dtypes) if dtypes is not None else self._dtypes
                new_distilled = (
                    self._distilled if distilled is _KEEP_DISTILLED else distilled
                )
                payload = (
                    "register",
                    self._spec,
                    WeightsUpdate(version, blob, distilled=new_distilled),
                    new_dtypes,
                )
            updated: List[int] = []
            for index in self._serving_indices():
                with self._state_lock:
                    member = self._members.get(index)
                if member is None:
                    continue
                try:
                    member.request(payload, timeout=self._connect_timeout)
                except (rpc.ConnectionClosed, OSError) as error:
                    self._mark_dead(member, f"lost during rolling update: {error}")
                    continue
                updated.append(index)
            if not updated:
                raise FleetExhausted(self._failure_reasons())
            with self._state_lock:
                self._version = version
                self._weights = blob
                self._distilled = new_distilled
                self._dtypes = new_dtypes
            _LOG.info(
                "rolling update to weights version %d reached nodes %s",
                version,
                updated,
            )
            return {"version": version, "updated": updated}

    # -------------------------------------------------------------- serving
    def sweep(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
    ) -> List[List[TuningResult]]:
        """Sweep every region across the fleet; input order preserved.

        ``results[i]`` is byte-identical to ``tuner.predict_sweep(
        regions[i], power_caps, dtype=dtype)`` on the registered tuner —
        regardless of which nodes die, recover or join mid-sweep.  Raises
        :class:`FleetExhausted` (naming every node and its failure reason)
        only when no node remains.
        """
        self._require_open()
        regions = list(regions)
        if not regions:
            return []
        caps = list(power_caps)
        with self._serving_lock:
            results: List[Optional[List[TuningResult]]] = [None] * len(regions)
            pending = list(range(len(regions)))
            while pending:
                indices = self._serving_indices()
                if not indices:
                    raise FleetExhausted(self._failure_reasons(), unserved=len(pending))
                # Consistent-hash assignment over the serving members: a
                # fixed membership always produces the same batches, and a
                # membership change re-shards only the lost/new nodes'
                # regions — survivors keep their warm caches.
                ring = shared_ring(tuple(indices))
                groups = ring.positions([regions[p].region_id for p in pending])
                requests: Dict[int, Tuple] = {}
                membership: Dict[int, List[int]] = {}
                for node_index, offsets in groups.items():
                    membership[node_index] = [pending[offset] for offset in offsets]
                    shard = [regions[p] for p in membership[node_index]]
                    requests[node_index] = ("sweep", shard, caps, dtype)
                replies = self._request_concurrently(
                    requests, rebalance=True, timeout=self._request_timeout
                )
                served = set()
                for node_index, reply in zip(sorted(requests), replies):
                    if reply is None:
                        continue  # node lost; its members stay pending
                    for position, swept in zip(membership[node_index], reply):
                        results[position] = swept
                    served.update(membership[node_index])
                pending = [position for position in pending if position not in served]
            return results  # type: ignore[return-value]

    def sweep_node(
        self,
        index: int,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> List[List[TuningResult]]:
        """One batched sweep on one *specific* node (the gateway's dispatch path).

        Unlike :meth:`sweep` this neither shards nor rebalances — the caller
        owns routing and retries.  A transport failure or per-call timeout
        (``timeout`` defaults to the client's ``request_timeout``) marks the
        node DEAD — its socket is poisoned/gone either way — and re-raises,
        leaving re-admission to the heartbeat; :class:`~repro.serve.rpc.RemoteError`
        propagates without a health event, exactly like :meth:`sweep`.
        """
        self._require_open()
        with self._state_lock:
            member = self._members.get(index)
        if member is None:
            raise KeyError(f"no fleet member with index {index}")
        if timeout is None:
            timeout = self._request_timeout
        payload = ("sweep", list(regions), [float(cap) for cap in power_caps], dtype)
        try:
            return member.request(payload, timeout=timeout)
        except rpc.RpcTimeout as error:
            self._mark_dead(member, f"sweep timed out: {error}")
            raise
        except (rpc.ConnectionClosed, OSError) as error:
            self._mark_dead(member, str(error))
            raise

    def local_fallback_predictor(self):
        """Rebuild the registered predictor in-process (the dead-fleet slow path).

        Decodes the registered spec + current weights (version
        :attr:`weights_version`) through the same
        :func:`~repro.serve.spec.build_predictor_from_update` path the nodes
        use, so the fallback serves the predictor the *nodes* serve through —
        tiered micro/GNN when the registration shipped a distilled blob,
        plain GNN otherwise — byte for byte.  Used by the gateway's
        graceful-degradation mode; requires a prior :meth:`register_tuner`.
        """
        with self._state_lock:
            spec = self._spec
            update = WeightsUpdate(
                self._version, self._weights, distilled=self._distilled
            )
            dtypes = self._dtypes
        if spec is None:
            raise RuntimeError(
                "register_tuner() a fleet before building a local fallback"
            )
        tuner, predictor = build_predictor_from_update(spec, update)
        for dtype in dtypes:
            tuner.compile_inference(dtype)
        return predictor

    def clear_caches(self) -> None:
        """Reset every serving node to the cold path (cold-path benches)."""
        self._require_open()
        self._request_concurrently(
            {index: ("clear",) for index in self._serving_indices()},
            rebalance=True,
            timeout=self._request_timeout,
        )

    def stats(self) -> Dict[int, Dict[str, object]]:
        """Each serving node's own statistics, keyed by member index.

        A node reports its cache size, hits and misses, weights version, the
        ``corrupt_frames`` it tore down, its pid, inference buffers and tier
        counters.  The client's end of each wire is :meth:`transport_stats`.
        """
        self._require_open()
        indices = self._serving_indices()
        replies = self._request_concurrently(
            {index: ("stats",) for index in indices},
            rebalance=True,
            timeout=self._request_timeout,
        )
        return {
            index: reply for index, reply in zip(indices, replies) if reply is not None
        }

    def transport_stats(self) -> Dict[str, object]:
        """Client-side transport accounting, per member and in total.

        ``corruption`` counts frames from the node that failed verification
        on this client (request sockets and heartbeat probes alike);
        ``teardowns`` counts DEAD transitions; ``readmissions`` counts
        recoveries back to LIVE.  Shape::

            {"nodes": {index: {"corruption": c, "teardowns": t,
                               "readmissions": r}, ...},
             "corruption": C, "teardowns": T, "readmissions": R}
        """
        with self._state_lock:
            nodes = {
                index: {
                    "corruption": member.corruption,
                    "teardowns": member.teardowns,
                    "readmissions": member.readmissions,
                }
                for index, member in sorted(self._members.items())
            }
        totals = {
            key: sum(counts[key] for counts in nodes.values())
            for key in ("corruption", "teardowns", "readmissions")
        }
        return {"nodes": nodes, **totals}

    # ------------------------------------------------------------ lifecycle
    def stop(self) -> None:
        """Ask every connected node to shut down (best effort), then close."""
        if not self._closed:
            with self._state_lock:
                members = list(self._members.values())
            for member in members:
                try:
                    member.request(("stop",))
                except (rpc.ConnectionClosed, rpc.RemoteError, OSError):
                    pass
        self.close()

    def close(self) -> None:
        """Stop the heartbeat and close the client's sockets; nodes keep running."""
        self._closed = True
        self._monitor_stop.set()
        self._monitor_wake.set()
        monitor = self._monitor
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=5.0)
        self._monitor = None
        with self._state_lock:
            members = list(self._members.values())
            self._members.clear()
        for member in members:
            member.disconnect()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("FleetClient is closed")

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ plumbing
    def _request_concurrently(
        self,
        requests: Dict[int, Tuple],
        rebalance: bool,
        timeout: Optional[float] = None,
    ) -> List[Optional[object]]:
        """Issue one request per member over its socket, concurrently.

        Returns the replies ordered by member index.  With ``rebalance=True``
        a transport failure (the node died, the monitor shut its socket
        down, or the per-call ``timeout`` elapsed — a timed-out socket is
        poisoned either way) yields ``None`` for that node and marks it
        DEAD; application errors (:class:`~repro.serve.rpc.RemoteError`)
        always propagate — a bad request must not masquerade as a dead node.
        """
        indices = sorted(requests)
        with self._state_lock:
            members = {index: self._members.get(index) for index in indices}
        replies: Dict[int, Optional[object]] = {}
        errors: Dict[int, BaseException] = {}

        def call(index: int) -> None:
            member = members[index]
            try:
                if member is None:
                    raise rpc.ConnectionClosed("node was removed from the fleet")
                replies[index] = member.request(requests[index], timeout=timeout)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors[index] = error

        threads = [
            threading.Thread(target=call, args=(index,), daemon=True)
            for index in indices
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for index, error in errors.items():
            transport_failure = isinstance(error, (rpc.ConnectionClosed, OSError))
            if rebalance and transport_failure:
                if members[index] is not None:
                    reason = (
                        f"request timed out: {error}"
                        if isinstance(error, rpc.RpcTimeout)
                        else str(error)
                    )
                    self._mark_dead(members[index], reason)
                replies[index] = None
            else:
                raise error
        return [replies[index] for index in indices]


class LocalFleet:
    """N :class:`NodeServer` subprocesses on localhost plus a registered client.

    The one-machine harness for the full TCP wire path: spawn the node
    processes, collect their ephemeral endpoints, connect a
    :class:`FleetClient` and register ``tuner`` with every node.  Used by
    ``tests/serve``, ``examples/fleet_serving.py`` and the benchmark's
    ``serve_warm`` and ``serve_novel`` workloads.

    Failure drills (all POSIX-signal based, for tests and chaos benches):

    * :meth:`kill_node` — hard-kill a node process (lose a machine; the
      client sees EOF and rebalances);
    * :meth:`restart_node` — start a replacement process for the same member
      index and point the client at its new endpoint (the heartbeat
      handshake re-registers and re-admits it, reclaiming its old shard);
    * :meth:`pause_node` / :meth:`resume_node` — SIGSTOP/SIGCONT the
      process: a *hung-but-connected* node that EOF-based detection cannot
      see, only the bounded-timeout heartbeat can;
    * :meth:`add_node` / :meth:`remove_node` — grow/shrink the fleet at
      runtime.

    Byte-level chaos: pass ``chaos=`` a :class:`~repro.serve.faults.FaultPlan`
    (interposed on node 0) or a mapping ``{node_index: FaultPlan}`` and the
    fleet places a :class:`~repro.serve.faults.ChaosProxy` between the
    client and each selected node — *all* of that node's traffic (sweeps,
    registrations, heartbeat probes) then flows through the proxy's fault
    schedule.  The proxy endpoint is stable across :meth:`restart_node`
    (it retargets to the replacement process), and :attr:`proxies` exposes
    the live proxies for counter inspection.
    """

    def __init__(
        self,
        tuner: PnPTuner,
        num_nodes: int = 2,
        dtypes: Sequence[str] = (),
        connect_timeout: Optional[float] = 60.0,
        heartbeat_interval: Optional[float] = 2.0,
        ping_timeout: float = 5.0,
        dead_after: int = 3,
        request_timeout: Optional[float] = None,
        chaos: Optional[object] = None,
        distilled: Optional[bytes] = None,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self._context = multiprocessing.get_context(default_start_method())
        self._processes: List[Optional[multiprocessing.process.BaseProcess]] = []
        self.addresses: List[Tuple[str, int]] = []
        #: Real node endpoints (``addresses`` holds the proxy endpoint for
        #: chaos-interposed members).
        self.node_addresses: List[Tuple[str, int]] = []
        #: ``{node_index: ChaosProxy}`` for every interposed member.
        self.proxies: Dict[int, "ChaosProxy"] = {}
        plans = self._chaos_plans(chaos, num_nodes)
        try:
            for index in range(num_nodes):
                process, address = self._spawn_node()
                self._processes.append(process)
                self.node_addresses.append(address)
                plan = plans.get(index)
                if plan is not None:
                    proxy = ChaosProxy(address, plan)
                    self.proxies[index] = proxy
                    address = proxy.address
                self.addresses.append(address)
        except BaseException:
            self._terminate()
            raise
        try:
            self.client = FleetClient(
                self.addresses,
                connect_timeout=connect_timeout,
                heartbeat_interval=heartbeat_interval,
                ping_timeout=ping_timeout,
                dead_after=dead_after,
                request_timeout=request_timeout,
            )
        except BaseException:
            self._terminate()
            raise
        try:
            self.client.register_tuner(tuner, dtypes=dtypes, distilled=distilled)
        except BaseException:
            self.client.close()
            self._terminate()
            raise

    @staticmethod
    def _chaos_plans(chaos: Optional[object], num_nodes: int) -> Dict[int, object]:
        """Normalise the ``chaos=`` argument to ``{node_index: FaultPlan}``."""
        if chaos is None:
            return {}
        if isinstance(chaos, Mapping):
            plans = {int(index): plan for index, plan in chaos.items()}
        else:
            plans = {0: chaos}  # one plan → interpose on node 0
        for index in plans:
            if not 0 <= index < num_nodes:
                raise ValueError(
                    f"chaos plan for node {index}, but the fleet has "
                    f"{num_nodes} nodes"
                )
        return plans

    def _spawn_node(self):
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=node_subprocess_main, args=(child_end,), daemon=True
        )
        process.start()
        child_end.close()
        try:
            status, payload = parent_end.recv()
        except BaseException:
            process.terminate()
            process.join(timeout=5.0)
            raise
        finally:
            parent_end.close()
        if status != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(f"fleet node failed to start:\n{payload}")
        return process, payload

    # ------------------------------------------------- delegated serving API
    def sweep(
        self,
        regions: Sequence[RegionCharacteristics],
        power_caps: Sequence[float],
        dtype: Optional[str] = None,
    ) -> List[List[TuningResult]]:
        return self.client.sweep(regions, power_caps, dtype=dtype)

    def clear_caches(self) -> None:
        self.client.clear_caches()

    def stats(self) -> Dict[int, Dict[str, object]]:
        return self.client.stats()

    def probe_now(self, force: bool = False) -> Dict[int, NodeState]:
        return self.client.probe_now(force=force)

    def wait_for_state(
        self, index: int, state: NodeState, timeout: float = 30.0
    ) -> bool:
        return self.client.wait_for_state(index, state, timeout=timeout)

    # -------------------------------------------------------- failure drills
    def kill_node(self, index: int) -> None:
        """Hard-kill one node process (simulates losing a machine)."""
        process = self._processes[index]
        process.kill()
        process.join(timeout=5.0)

    def restart_node(self, index: int) -> Tuple[str, int]:
        """Replace a (killed/paused) node's process under the same member index.

        The replacement binds a fresh ephemeral endpoint;
        :meth:`FleetClient.update_address` schedules an immediate probe and
        the heartbeat handshake re-registers + re-admits the node.  Because
        the ring is keyed by the member index, the node reclaims exactly the
        shard it served before dying.
        """
        old = self._processes[index]
        if old is not None:
            if old.is_alive():
                try:
                    os.kill(old.pid, signal.SIGCONT)  # a paused node must die
                except OSError:  # pragma: no cover - already gone
                    pass
                old.terminate()
            old.join(timeout=5.0)
            if old.is_alive():  # pragma: no cover - defensive
                old.kill()
                old.join(timeout=5.0)
        process, address = self._spawn_node()
        self._processes[index] = process
        self.node_addresses[index] = address
        proxy = self.proxies.get(index)
        if proxy is not None:
            # The proxy endpoint is the member's stable address (a VIP in
            # front of a replaced backend): repoint it at the new process
            # and re-announce the *unchanged* address, which still schedules
            # the immediate probe that re-admits the node.
            proxy.retarget(address)
            address = proxy.address
        self.addresses[index] = address
        self.client.update_address(index, address)
        return address

    def pause_node(self, index: int) -> None:
        """SIGSTOP a node: hung but connected — invisible to EOF detection."""
        os.kill(self._processes[index].pid, signal.SIGSTOP)

    def resume_node(self, index: int) -> None:
        """SIGCONT a paused node; the heartbeat re-admits it on its next pass."""
        os.kill(self._processes[index].pid, signal.SIGCONT)

    def add_node(self) -> int:
        """Spawn + join one more node at runtime; returns its member index.

        Joined nodes are never chaos-interposed — fault plans bind to the
        initial membership, keeping schedules deterministic.
        """
        process, address = self._spawn_node()
        self._processes.append(process)
        self.node_addresses.append(address)
        self.addresses.append(address)
        try:
            return self.client.add_node(address)
        except BaseException:
            process.terminate()
            process.join(timeout=5.0)
            raise

    def remove_node(self, index: int) -> None:
        """Decommission one node: remove it from the client, stop its process."""
        self.client.remove_node(index)
        proxy = self.proxies.pop(index, None)
        if proxy is not None:
            proxy.close()
        process = self._processes[index]
        if process is not None:
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGCONT)
                except OSError:  # pragma: no cover - already gone
                    pass
                process.terminate()
            process.join(timeout=5.0)
            self._processes[index] = None

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        try:
            self.client.stop()
        except Exception:  # noqa: BLE001 - shutdown is best effort
            pass
        self._terminate()

    def _terminate(self) -> None:
        for proxy in self.proxies.values():
            try:
                proxy.close()
            except Exception:  # noqa: BLE001 - teardown is best effort
                pass
        self.proxies.clear()
        for process in self._processes:
            if process is None:
                continue
            if process.is_alive():
                try:
                    os.kill(process.pid, signal.SIGCONT)  # paused nodes too
                except OSError:
                    pass
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()
                process.join(timeout=1.0)

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
