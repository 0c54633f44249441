"""Self-verifying message framing for the fleet's TCP RPC.

One message on the wire is a fixed 32-byte header followed by a pickled
Python object.  The header makes every frame *self-verifying* — a corrupt,
truncated, duplicated or misaligned byte stream is detected and rejected
**before** a single payload byte reaches ``pickle.loads``::

    offset  size  field
    ------  ----  -----------------------------------------------------
    0       4     magic  0xAB 'R' 'P' 'C'   (first byte non-zero, so a
                  bare length prefix — which always starts with four
                  zero bytes for any sane message — can never be
                  mistaken for a frame)
    4       1     protocol version (PROTOCOL_VERSION == 2)
    5       1     flags (reserved; must be zero)
    6       2     reserved (must be zero)
    8       8     payload length, big-endian (<= MAX_MESSAGE_BYTES)
    16      16    blake2s-128 digest of the payload bytes

Any header or digest violation raises :exc:`RpcCorruption` — a subclass of
:exc:`ConnectionClosed`, because the only safe reaction to a corrupt stream
is the same as to a dead peer: discard the socket (the framing is
unrecoverable) and let the fleet's health machinery tear the member down
and re-admit it on a fresh connection.  Callers that want to *count*
corruption separately (the node's accept loop, the fleet client) catch
:exc:`RpcCorruption` before :exc:`ConnectionClosed`.

The protocol on top is a small request/reply verb scheme (``register`` /
``sweep`` / ``clear`` / ``stats`` / ``ping`` / ``stop``).  Replies are
``("ok", payload)`` or ``("error", frame)`` where the error frame (built by
:func:`error_frame`) carries both a one-line exception summary and the full
formatted node-side traceback; :func:`request` sends one message, waits for
the reply and raises :class:`RemoteError` exposing both on an error reply.

Every serving socket sets ``TCP_NODELAY`` (:func:`no_delay`: the sockets
:func:`connect` returns, the connections a node accepts, both legs of the
chaos proxy).  :func:`send_message` writes a frame as two ``sendall``
calls, header then payload; without ``TCP_NODELAY``, Nagle's algorithm
(RFC 896) holds the second write until the peer's delayed ACK, about 40 ms
on Linux, and every request/reply round trip pays that stall.

Protocol v1 (a bare 8-byte big-endian length prefix with no verification)
is not spoken: a frame without the magic is corruption, so no unverified
byte ever reaches ``pickle.loads``.

Like ``multiprocessing``'s pipes, the transport trusts its peers: messages
are **pickle**, so a node must only ever be exposed to the cluster-internal
network that also ships the model weights (bind to localhost or a private
interface, never the open internet).  The digest detects *accidents* —
bit rot, kernel bugs, mis-framed streams, chaos-proxy drills — it is not an
authentication mechanism.

:exc:`ConnectionClosed` is the one failure mode callers are expected to
handle: it means the peer went away (process killed, machine lost, stream
corrupt), and the :class:`~repro.serve.fleet.FleetClient` reacts by marking
the node dead and rebalancing its regions onto the surviving nodes.
:func:`connect` is the client-side complement for the *opposite* transient:
a node that is still booting refuses connections for a moment, so
connection establishment retries with bounded, jittered exponential backoff
instead of misreporting the node as a configuration error.

:func:`request` additionally accepts a per-call ``timeout`` — a real socket
deadline spanning the whole send + receive round trip — raising the distinct
:exc:`RpcTimeout` when the peer is connected but not answering (a hung or
overloaded node).  A timed-out conversation is *poisoned*: the reply may
still arrive later and would be mis-framed as the answer to the next
request, so callers must discard the socket after an :exc:`RpcTimeout`
(the fleet client does — it marks the node DEAD, which tears the socket
down, and lets the heartbeat re-admit the node on a fresh connection).
"""

from __future__ import annotations

import hashlib
import pickle
import random
import socket
import struct
import time
import traceback
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ConnectionClosed",
    "RemoteError",
    "RpcCorruption",
    "RpcTimeout",
    "PROTOCOL_VERSION",
    "connect",
    "error_frame",
    "no_delay",
    "send_message",
    "recv_message",
    "request",
]

#: The hardened frame protocol, the only one spoken.
PROTOCOL_VERSION = 2

#: Frame magic.  The first byte is deliberately non-zero: a bare v1 length
#: prefix below :data:`MAX_MESSAGE_BYTES` always starts with four zero
#: bytes, so it can never be mistaken for a frame.
_MAGIC = b"\xabRPC"

#: blake2s digest width — 16 bytes is plenty for accident detection.
DIGEST_BYTES = 16

#: magic(4s) + version(B) + flags(B) + reserved(H); 8 bytes.
_PREAMBLE = struct.Struct(">4sBBH")

#: payload length (Q) + blake2s-128 payload digest (16s).
_EXTENT = struct.Struct(">Q16s")

#: Total v2 header size (documented in the module docstring diagram).
HEADER_BYTES = _PREAMBLE.size + _EXTENT.size

#: Upper bound on a single message (1 GiB) — a corrupt or misaligned stream
#: fails fast instead of attempting an absurd allocation.
MAX_MESSAGE_BYTES = 1 << 30

#: Transient connection-establishment failures :func:`connect` retries: the
#: peer's port is not (yet) listening or the handshake was torn down while
#: the peer (re)starts.  Anything else — unreachable host, bad address — is
#: a real configuration error and surfaces immediately.
_TRANSIENT_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionResetError,
    ConnectionAbortedError,
    TimeoutError,
)


class ConnectionClosed(ConnectionError):
    """The peer closed the connection (or died) mid-conversation."""


class RpcCorruption(ConnectionClosed):
    """The byte stream failed frame verification *before* unpickling.

    Bad magic, an unsupported protocol version, non-zero reserved bits, an
    absurd length, or a payload whose blake2s digest does not match the
    header — all raised without handing a single payload byte to
    ``pickle.loads``.  Subclasses :class:`ConnectionClosed` because the
    framing is unrecoverable past this point: the socket must be discarded,
    exactly as if the peer had died.  Catch it *before*
    :class:`ConnectionClosed` to count corruption separately.
    """


class RpcTimeout(TimeoutError):
    """A per-call deadline elapsed before the peer answered.

    Distinct from :class:`ConnectionClosed`: the peer is still *connected*
    (the kernel accepts our bytes) but not answering — a hung, paused or
    overloaded node.  The conversation is poisoned after this (a late reply
    would be mis-framed as the answer to the next request), so the socket
    must be discarded and re-established before further use.
    """


class RemoteError(RuntimeError):
    """The peer answered with an error reply.

    ``remote_exception`` is the node-side one-line summary (``"ValueError:
    ..."``) and ``remote_traceback`` the full formatted node-side traceback
    — both also appear in the exception message, so a fleet client failure
    reads like the stack trace of the node that actually raised.
    """

    def __init__(
        self,
        message: str,
        remote_exception: Optional[str] = None,
        remote_traceback: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.remote_exception = remote_exception
        self.remote_traceback = remote_traceback


def error_frame(error: BaseException) -> Dict[str, str]:
    """The wire form of a node-side failure: summary + formatted traceback."""
    return {
        "exception": f"{type(error).__name__}: {error}",
        "traceback": "".join(traceback.format_exception(error)),
    }


def no_delay(sock: socket.socket) -> socket.socket:
    """Turn off Nagle's algorithm on a TCP socket and return it.

    A request/reply protocol whose frames are small never benefits from
    Nagle's coalescing: it only holds a frame's tail until the peer's
    delayed ACK.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def connect(
    address: Tuple[str, int],
    timeout: Optional[float] = None,
    attempts: int = 5,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
) -> socket.socket:
    """Connect to a peer, retrying transient refusals with jittered backoff.

    A node that is still booting (socket not yet bound, accept loop not yet
    running) refuses connections for a moment; a bounded retry keeps that
    from being misclassified as a configuration error during registration.
    Delays double from ``base_delay`` up to ``max_delay`` with ±50 % jitter
    so a whole fleet reconnecting does not stampede one node.  After
    ``attempts`` failures the last error propagates unchanged.  The socket
    comes back with ``TCP_NODELAY`` set (:func:`no_delay`).
    """
    attempts = max(1, int(attempts))
    delay = base_delay
    for attempt in range(attempts):
        try:
            sock = socket.create_connection(tuple(address), timeout=timeout)
            return no_delay(sock)
        except _TRANSIENT_CONNECT_ERRORS:
            if attempt == attempts - 1:
                raise
            time.sleep(min(delay, max_delay) * (0.5 + random.random() / 2.0))
            delay *= 2
    raise ConnectionError("unreachable")  # pragma: no cover - loop always exits


def _digest(data: bytes) -> bytes:
    return hashlib.blake2s(data, digest_size=DIGEST_BYTES).digest()


def send_message(sock: socket.socket, payload: Any) -> None:
    """Pickle ``payload`` and send it as one verified frame (blocking).

    Header and payload go out as two ``sendall`` calls over a
    ``memoryview`` — the payload (which can be a ~1 GiB weights blob at
    registration) is never copied into a concatenated buffer.  On a
    no-delay socket (:func:`no_delay`) the second write leaves at once.
    """
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    header = _PREAMBLE.pack(_MAGIC, PROTOCOL_VERSION, 0, 0) + _EXTENT.pack(
        len(data), _digest(data)
    )
    try:
        sock.sendall(header)
        sock.sendall(memoryview(data))
    except TimeoutError:
        raise  # slow peer, not a dead one — see _recv_exact
    except (BrokenPipeError, ConnectionResetError, OSError) as error:
        raise ConnectionClosed(f"peer closed while sending: {error}") from error


def _recv_exact(
    sock: socket.socket, count: int, deadline: Optional[float] = None
) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        if deadline is not None:
            budget = deadline - time.monotonic()
            if budget <= 0:
                raise RpcTimeout(
                    f"deadline elapsed with {remaining} of {count} bytes outstanding"
                )
            # Re-armed before every chunk, so a peer trickling bytes cannot
            # stretch the overall deadline chunk by chunk.
            sock.settimeout(budget)
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except TimeoutError:
            if deadline is not None:
                raise RpcTimeout(
                    f"deadline elapsed with {remaining} of {count} bytes outstanding"
                ) from None
            # A timeout on a caller-configured socket means "slow", never
            # "dead" — surface it as-is so it is not mistaken for peer loss.
            raise
        except (ConnectionResetError, OSError) as error:
            raise ConnectionClosed(f"peer closed while receiving: {error}") from error
        if not chunk:
            raise ConnectionClosed(
                f"peer closed with {remaining} of {count} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket, deadline: Optional[float] = None) -> Any:
    """Receive one verified frame and return its unpickled payload.

    Verifies magic, version, flags, length and the payload digest before
    unpickling — any violation raises :class:`RpcCorruption` with no
    payload byte ever reaching ``pickle.loads``.

    ``deadline`` is an absolute ``time.monotonic()`` instant; when given,
    the receive raises :class:`RpcTimeout` instead of blocking past it.
    """
    head = _recv_exact(sock, _PREAMBLE.size, deadline)
    magic, version, flags, reserved = _PREAMBLE.unpack(head)
    if magic != _MAGIC:
        raise RpcCorruption(
            f"bad frame magic {magic!r}: corrupt or misaligned stream "
            f"(or a bare-prefix v1 peer, which is not spoken)"
        )
    if version != PROTOCOL_VERSION:
        raise RpcCorruption(
            f"unsupported frame protocol version {version} "
            f"(this peer speaks v{PROTOCOL_VERSION}) — corrupt stream or "
            f"incompatible peer"
        )
    if flags or reserved:
        raise RpcCorruption(
            f"non-zero reserved header bits (flags={flags:#x}, "
            f"reserved={reserved:#x}): corrupt stream"
        )
    length, digest = _EXTENT.unpack(_recv_exact(sock, _EXTENT.size, deadline))
    if length > MAX_MESSAGE_BYTES:
        raise RpcCorruption(
            f"refusing a {length}-byte frame (corrupt stream? limit is "
            f"{MAX_MESSAGE_BYTES})"
        )
    data = _recv_exact(sock, length, deadline)
    if _digest(data) != digest:
        raise RpcCorruption(
            f"payload digest mismatch over {length} bytes: corrupt frame "
            f"(refusing to unpickle)"
        )
    return pickle.loads(data)


def _command(payload: Any) -> str:
    """The request verb for error messages, tolerant of malformed payloads."""
    if isinstance(payload, (tuple, list)) and payload:
        return repr(payload[0])
    return repr(payload)


def request(
    sock: socket.socket,
    payload: Tuple,
    timeout: Optional[float] = None,
) -> Any:
    """One request/reply round trip; unwraps ``("ok", ...)`` replies.

    Raises :class:`RemoteError` (carrying the node-side exception summary
    and formatted traceback) on an ``("error", ...)`` reply and
    :class:`ConnectionClosed` when the peer vanished before answering.
    Requests must be non-empty tuples (the first element is the verb);
    anything else is rejected client-side with :class:`ValueError` before
    touching the socket.

    ``timeout`` is a per-call deadline in seconds spanning the whole send +
    receive round trip; when it elapses the call raises :class:`RpcTimeout`
    and the socket must be discarded (the late reply would desynchronise
    the framing of the next request).  ``timeout=None`` preserves the
    previous blocking behaviour and the socket's configured timeout.
    """
    if not (isinstance(payload, (tuple, list)) and len(payload) >= 1):
        raise ValueError(
            f"request payload must be a non-empty tuple (verb, ...), got "
            f"{payload!r}"
        )
    if timeout is not None:
        deadline = time.monotonic() + float(timeout)
        previous = sock.gettimeout()
        try:
            sock.settimeout(max(deadline - time.monotonic(), 1e-6))
            try:
                send_message(sock, payload)
            except TimeoutError as error:
                raise RpcTimeout(
                    f"{_command(payload)} request not sent within {timeout:.3f}s"
                ) from error
            reply = recv_message(sock, deadline=deadline)
        finally:
            try:
                sock.settimeout(previous)
            except OSError:  # pragma: no cover - socket torn down mid-call
                pass
        return _unwrap(payload, reply)
    send_message(sock, payload)
    reply = recv_message(sock)
    return _unwrap(payload, reply)


def _unwrap(payload: Tuple, reply: Any) -> Any:
    """Unwrap a ``("ok"/"error", body)`` reply; malformed shapes are typed.

    Every malformed reply — not a tuple, wrong arity, unknown status shape —
    raises :class:`RemoteError` naming the offending value, never a bare
    ``IndexError``/``TypeError`` from blind destructuring.
    """
    if not (isinstance(reply, tuple) and len(reply) == 2):
        raise RemoteError(
            f"malformed reply to {_command(payload)} request: expected a "
            f"('ok'|'error', body) pair, got {reply!r}"
        )
    status, body = reply
    if status != "ok":
        if isinstance(body, dict):
            summary = body.get("exception", "remote failure")
            remote_traceback = body.get("traceback", "")
            raise RemoteError(
                f"remote {_command(payload)} request failed: {summary}\n"
                f"--- node-side traceback ---\n{remote_traceback}",
                remote_exception=summary,
                remote_traceback=remote_traceback,
            )
        # Pre-structured peers shipped the bare traceback text.
        raise RemoteError(
            f"remote {_command(payload)} request failed:\n{body}",
            remote_traceback=str(body),
        )
    return body
