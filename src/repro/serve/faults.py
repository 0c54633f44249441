"""Deterministic byte-level fault injection for the fleet's TCP transport.

Two pieces, both seeded and fully reproducible:

:class:`FaultPlan`
    A schedule of byte-level fault events — ``delay`` / ``stall`` /
    ``truncate`` / ``bitflip`` / ``duplicate`` / ``reset`` — each addressed
    by **connection index** (accept order at the proxy), **frame index**
    (per connection, per direction) and **byte offset** within the frame.
    :meth:`FaultPlan.random` derives a whole schedule from one integer seed
    via ``random.Random`` (stable across interpreters and platforms), so a
    chaos drill replays the identical byte-level history from its seed
    alone — the transport analogue of the ``HashRing`` determinism
    guarantee.

:class:`ChaosProxy`
    A TCP man-in-the-middle: listens on an ephemeral port, forwards every
    accepted connection to the real node, and applies the plan's events to
    the forwarded byte stream.  The proxy parses *clean* frames off the
    source socket (so its own framing never desyncs) and injects faults
    only into what it forwards — flipped bits, truncated frames, mid-frame
    stalls, duplicated spans, hard resets.  :class:`~repro.serve.fleet.
    LocalFleet` interposes one per node via its ``chaos=`` argument;
    because the fleet client dials the proxy's address for *every*
    connection, sweep traffic, registrations and heartbeat probes all flow
    through it.

What each fault kind exercises (see the README's fault taxonomy):

===========  ==========================================================
kind         observable failure at the peer
===========  ==========================================================
delay        latency; nothing fails (forwarding pauses before a frame)
stall        ``RpcTimeout`` — the frame stops ``offset`` bytes in and
             resumes only after ``seconds`` (trips per-call deadlines)
truncate     ``ConnectionClosed`` — the frame ends ``offset`` bytes in
             and the connection is torn down
bitflip      ``RpcCorruption`` — one bit flipped mid-payload fails the
             blake2s digest check before any unpickling
duplicate    ``RpcCorruption`` — a duplicated span desynchronises the
             stream (digest mismatch now, bad magic on the next frame)
reset        ``ConnectionClosed`` — the connection is destroyed with
             ``SO_LINGER 0``, surfacing as a hard reset mid-stream
===========  ==========================================================

Byte offsets of ``bitflip`` and ``duplicate`` events are mapped into the
frame's *payload* region at apply time (past the 32-byte verified header).
A flip in the header's length field would make the victim wait for bytes
that never come — a hang, not a detection — whereas payload corruption is
exactly what the digest exists to catch; header corruption has its own
targeted tests in ``tests/serve/test_rpc.py``.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import rpc
from repro.utils.logging import get_logger

__all__ = ["FAULT_KINDS", "FaultEvent", "FaultPlan", "ChaosProxy"]

_LOG = get_logger("serve.faults")

#: Client → node traffic (requests) and node → client traffic (replies).
DIRECTIONS = ("request", "reply")

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("delay", "stall", "truncate", "bitflip", "duplicate", "reset")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, addressed down to the byte.

    ``connection`` counts accepted connections at the proxy (0-based, accept
    order); ``frame`` counts frames per connection *per direction*;
    ``offset`` is the byte offset within the frame where the fault applies
    (mapped into the payload region for corrupting kinds — see the module
    docstring).  ``seconds`` is the pause for ``delay``/``stall``;
    ``mask`` the XOR mask for ``bitflip``; ``span`` the number of bytes a
    ``duplicate`` repeats.
    """

    kind: str
    connection: int
    frame: int
    direction: str = "reply"
    offset: int = 0
    seconds: float = 0.0
    mask: int = 0x01
    span: int = 8

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (one of {FAULT_KINDS})")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r} (one of {DIRECTIONS})"
            )

    def describe(self) -> Tuple:
        """A stable, comparable rendering (the determinism-test currency)."""
        return (
            self.kind,
            self.connection,
            self.frame,
            self.direction,
            self.offset,
            round(self.seconds, 6),
            self.mask,
            self.span,
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of :class:`FaultEvent`\\ s, optionally seeded.

    Build one explicitly from events, or derive one deterministically from
    a seed via :meth:`random`.  Plans are read-only and therefore safe to
    share between proxies and threads.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __init__(
        self, events: Sequence[FaultEvent] = (), seed: Optional[int] = None
    ) -> None:
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "seed", seed)

    @classmethod
    def random(
        cls,
        seed: int,
        events: int = 6,
        connections: int = 3,
        frames: int = 5,
        kinds: Sequence[str] = FAULT_KINDS,
        max_seconds: float = 0.05,
    ) -> "FaultPlan":
        """Derive a schedule from one integer seed, stable across interpreters.

        Faults are bound to the first ``connections`` accepted connections
        and the first ``frames`` frames of each — so once the scheduled
        traffic has flowed, later connections are clean and the fleet is
        guaranteed a fault-free path back to all-LIVE.  ``max_seconds``
        bounds ``delay``/``stall`` pauses (keep it below the drill's
        request timeout unless timeouts are the point).
        """
        rng = random.Random(seed)
        kinds = tuple(kinds)
        schedule = []
        for _ in range(events):
            schedule.append(
                FaultEvent(
                    kind=rng.choice(kinds),
                    connection=rng.randrange(max(1, connections)),
                    frame=rng.randrange(max(1, frames)),
                    direction=rng.choice(DIRECTIONS),
                    offset=rng.randrange(1, 512),
                    seconds=rng.uniform(0.0, max_seconds),
                    mask=1 << rng.randrange(8),
                    span=rng.randrange(1, 32),
                )
            )
        return cls(events=schedule, seed=seed)

    def describe(self) -> List[Tuple]:
        """The whole schedule as stable tuples (for determinism tests/logs)."""
        return [event.describe() for event in self.events]

    def events_for(self, connection: int, frame: int, direction: str) -> List[FaultEvent]:
        """Every scheduled event matching one (connection, frame, direction)."""
        return [
            event
            for event in self.events
            if event.connection == connection
            and event.frame == frame
            and event.direction == direction
        ]

    def scoped(self, connection_offset: int) -> "FaultPlan":
        """The same schedule shifted to later connection indices (convenience)."""
        return FaultPlan(
            events=[
                replace(event, connection=event.connection + connection_offset)
                for event in self.events
            ],
            seed=self.seed,
        )


def _payload_offset(offset: int, frame_length: int) -> int:
    """Map an arbitrary offset into the frame's payload region.

    Corrupting the header's length field would hang the victim (it waits
    for bytes that never arrive) instead of exercising detection, so
    ``bitflip``/``duplicate`` offsets land past the verified header
    whenever the frame has a payload; header-only frames fall back to the
    magic bytes, which fail verification instantly.
    """
    header = rpc.HEADER_BYTES
    if frame_length > header:
        return header + offset % (frame_length - header)
    return offset % min(frame_length, len(rpc._MAGIC))


class _Pump:
    """One direction of one proxied connection: parse clean frames, fault output."""

    def __init__(
        self,
        proxy: "ChaosProxy",
        source: socket.socket,
        sink: socket.socket,
        connection: int,
        direction: str,
    ) -> None:
        self.proxy = proxy
        self.source = source
        self.sink = sink
        self.connection = connection
        self.direction = direction
        self.frame = 0

    def run(self) -> None:
        try:
            while True:
                frame = self._read_frame()
                if frame is None:
                    # Clean EOF at a frame boundary: half-close the sink so
                    # the peer still receives everything already forwarded.
                    self._half_close()
                    return
                if not self._forward(frame):
                    return
                self.frame += 1
        except OSError:
            pass  # sockets torn down (fault or shutdown); pump ends
        finally:
            self.proxy._pump_done(self)

    # ------------------------------------------------------------- plumbing
    def _read_exact(self, count: int) -> Optional[bytes]:
        chunks: List[bytes] = []
        remaining = count
        while remaining:
            chunk = self.source.recv(min(remaining, 1 << 20))
            if not chunk:
                if chunks:
                    # Source died mid-frame; forward the partial bytes so the
                    # victim observes the truncation, then stop.
                    partial = b"".join(chunks)
                    try:
                        self.sink.sendall(partial)
                    except OSError:
                        pass
                    raise OSError("source closed mid-frame")
                return None
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self) -> Optional[bytes]:
        """One whole clean frame off the source, or None on EOF."""
        head = self._read_exact(rpc._PREAMBLE.size)
        if head is None:
            return None
        if head[: len(rpc._MAGIC)] != rpc._MAGIC:
            # Unframed bytes: pass them on so the receiver rejects the bad
            # magic, then stop parsing a stream with no frame boundaries.
            self.sink.sendall(head)
            raise OSError("source sent an unframed stream")
        extent = self._read_exact(rpc._EXTENT.size)
        if extent is None:
            raise OSError("source closed mid-header")
        length, _digest = rpc._EXTENT.unpack(extent)
        body = self._read_exact(length) if length else b""
        if length and body is None:
            raise OSError("source closed mid-frame")
        return head + extent + (body or b"")

    def _half_close(self) -> None:
        try:
            self.sink.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    # ----------------------------------------------------------- fault path
    def _forward(self, frame: bytes) -> bool:
        """Apply this frame's scheduled events and forward; False ends the pump."""
        events = self.proxy.plan.events_for(self.connection, self.frame, self.direction)
        data = frame
        for event in events:
            self.proxy._count_fault(event)
            if event.kind == "delay":
                time.sleep(event.seconds)
            elif event.kind == "bitflip":
                mutable = bytearray(data)
                position = _payload_offset(event.offset, len(mutable))
                mutable[position] ^= event.mask or 0x01
                data = bytes(mutable)
            elif event.kind == "duplicate":
                position = _payload_offset(event.offset, len(data))
                span = max(1, event.span)
                data = (
                    data[:position]
                    + data[position : position + span]
                    + data[position:]
                )
            elif event.kind == "truncate":
                cut = max(1, event.offset % max(1, len(data)))
                try:
                    self.sink.sendall(data[:cut])
                except OSError:
                    pass
                self.proxy._teardown_connection(self.connection)
                return False
            elif event.kind == "stall":
                cut = max(1, event.offset % max(1, len(data)))
                try:
                    self.sink.sendall(data[:cut])
                except OSError:
                    return False
                time.sleep(event.seconds)
                data = data[cut:]
            elif event.kind == "reset":
                self.proxy._teardown_connection(self.connection, hard=True)
                return False
        try:
            self.sink.sendall(data)
        except OSError:
            return False
        self.proxy._count_frame(self.direction)
        return True


class ChaosProxy:
    """A TCP man-in-the-middle applying a :class:`FaultPlan` byte-for-byte.

    Listens on ``host`` (ephemeral port by default) and forwards every
    accepted connection to ``upstream``.  Deterministic given the plan and
    the traffic: connection indices follow accept order, frame indices
    count frames per connection per direction, and every fault application
    is counted in :meth:`stats`.

    ``retarget`` repoints future connections at a new upstream (what
    :meth:`~repro.serve.fleet.LocalFleet.restart_node` uses, so the proxy
    address stays stable across node restarts — like a stable service VIP
    in front of a replaced backend).
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        plan: Optional[FaultPlan] = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._upstream: Tuple[str, int] = tuple(upstream)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen()
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._lock = threading.Lock()
        self._closed = False
        self._next_connection = 0
        self._sockets: Dict[int, List[socket.socket]] = {}
        self._finished: Dict[int, int] = {}
        self._counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._applied: List[Tuple] = []
        self._frames: Dict[str, int] = {direction: 0 for direction in DIRECTIONS}
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name=f"chaos-proxy-{self.address[1]}"
        )
        self._accept_thread.start()

    # ------------------------------------------------------------- control
    def retarget(self, upstream: Tuple[str, int]) -> None:
        """Point future connections at a new upstream endpoint."""
        with self._lock:
            self._upstream = tuple(upstream)

    @property
    def upstream(self) -> Tuple[str, int]:
        with self._lock:
            return self._upstream

    def stats(self) -> Dict[str, object]:
        """Counters: connections seen, frames forwarded, faults applied.

        ``applied`` lists each fired event's :meth:`FaultEvent.describe`
        tuple in application order — a scheduled event only appears here if
        its addressed frame actually flowed, which is what lets drills
        assert detections against injections exactly.
        """
        with self._lock:
            return {
                "connections": self._next_connection,
                "frames": dict(self._frames),
                "faults": dict(self._counts),
                "faults_total": sum(self._counts.values()),
                "applied": list(self._applied),
            }

    def close(self) -> None:
        """Stop accepting and tear down every proxied connection."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pairs = [sock for socks in self._sockets.values() for sock in socks]
            self._sockets.clear()
        # A blocked accept() is not reliably interrupted by closing the
        # listener on Linux — wake it with a throwaway connection, which the
        # loop drops on seeing _closed.
        try:
            waker = socket.create_connection(self.address, timeout=1.0)
            waker.close()
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        for sock in pairs:
            self._close_quietly(sock)
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ChaosProxy":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ internals
    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    self._close_quietly(client)
                    return
                connection = self._next_connection
                self._next_connection += 1
                upstream_address = self._upstream
            try:
                upstream = socket.create_connection(upstream_address, timeout=10.0)
                upstream.settimeout(None)
            except OSError:
                self._close_quietly(client)
                continue
            with self._lock:
                if self._closed:
                    self._close_quietly(client)
                    self._close_quietly(upstream)
                    return
                self._sockets[connection] = [client, upstream]
            for source, sink, direction in (
                (client, upstream, "request"),
                (upstream, client, "reply"),
            ):
                pump = _Pump(self, source, sink, connection, direction)
                threading.Thread(
                    target=pump.run,
                    daemon=True,
                    name=f"chaos-pump-{connection}-{direction}",
                ).start()

    def _teardown_connection(self, connection: int, hard: bool = False) -> None:
        with self._lock:
            socks = self._sockets.pop(connection, [])
        for sock in socks:
            if hard:
                # SO_LINGER 0: closing sends RST, not FIN — the victim sees
                # ECONNRESET mid-stream rather than a clean EOF.
                try:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                except OSError:
                    pass
            self._close_quietly(sock)

    def _pump_done(self, pump: _Pump) -> None:
        # The second pump of a connection to finish closes the socket pair
        # (the first leaves its half-closed sink draining for the other).
        with self._lock:
            done = self._finished.get(pump.connection, 0) + 1
            self._finished[pump.connection] = done
            if done < 2:
                return
            socks = self._sockets.pop(pump.connection, [])
            self._finished.pop(pump.connection, None)
        for sock in socks:
            self._close_quietly(sock)

    def _count_fault(self, event: FaultEvent) -> None:
        with self._lock:
            self._counts[event.kind] += 1
            self._applied.append(event.describe())
        _LOG.debug(
            "chaos: %s on connection %d frame %d (%s)",
            event.kind,
            event.connection,
            event.frame,
            event.direction,
        )

    def _count_frame(self, direction: str) -> None:
        with self._lock:
            self._frames[direction] += 1

    @staticmethod
    def _close_quietly(sock: socket.socket) -> None:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass
