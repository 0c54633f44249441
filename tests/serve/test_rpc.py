"""Wire-format tests for the fleet's self-verifying TCP framing."""

import pickle
import queue
import random
import socket
import statistics
import struct
import threading
import time

import numpy as np
import pytest

from repro.serve import ChaosProxy, NodeServer, rpc


@pytest.fixture()
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def _v2_frame(payload) -> bytes:
    """Hand-craft a hardened frame the way send_message does."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        rpc._PREAMBLE.pack(rpc._MAGIC, rpc.PROTOCOL_VERSION, 0, 0)
        + rpc._EXTENT.pack(len(data), rpc._digest(data))
        + data
    )


class TestFraming:
    def test_roundtrip_python_objects(self, pair):
        left, right = pair
        payload = ("sweep", ["region.a", "region.b"], [40.0, 85.0], None)
        rpc.send_message(left, payload)
        assert rpc.recv_message(right) == payload

    def test_header_layout_is_32_bytes(self):
        assert rpc.HEADER_BYTES == 32
        assert rpc._PREAMBLE.size == 8  # same width as the legacy prefix
        assert rpc._EXTENT.size == 24

    def test_roundtrip_large_binary_payload(self, pair):
        left, right = pair
        blob = np.arange(1_000_000, dtype=np.float64).tobytes()

        # One side must drain while the other sends: a multi-megabyte
        # message does not fit in the socket buffers.
        received = {}
        reader = threading.Thread(
            target=lambda: received.setdefault("value", rpc.recv_message(right))
        )
        reader.start()
        rpc.send_message(left, ("register", blob))
        reader.join(timeout=30)
        assert not reader.is_alive()
        command, returned = received["value"]
        assert command == "register"
        assert returned == blob

    def test_multiple_messages_stay_aligned(self, pair):
        left, right = pair
        for index in range(5):
            rpc.send_message(left, {"index": index})
        for index in range(5):
            assert rpc.recv_message(right) == {"index": index}

    def test_payload_is_sent_uncopied(self):
        class RecordingSocket:
            def __init__(self):
                self.writes = []

            def sendall(self, data):
                self.writes.append(data)

        sock = RecordingSocket()
        payload = ("register", b"w" * 100_000)
        rpc.send_message(sock, payload)
        header, body = sock.writes
        assert len(header) == rpc.HEADER_BYTES
        # A view of the pickled bytes themselves, not a header+payload copy:
        # a weights blob is never duplicated on its way out.
        assert isinstance(body, memoryview)
        assert isinstance(body.obj, bytes)
        assert header + bytes(body) == _v2_frame(payload)


class TestFailureModes:
    def test_recv_on_closed_peer_raises_connection_closed(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(rpc.ConnectionClosed):
            rpc.recv_message(right)

    def test_recv_of_truncated_frame_raises_connection_closed(self, pair):
        left, right = pair
        frame = _v2_frame("truncate-me")
        left.sendall(frame[: rpc.HEADER_BYTES + 4])
        left.close()
        with pytest.raises(rpc.ConnectionClosed, match="outstanding"):
            rpc.recv_message(right)

    def test_absurd_length_fails_fast_before_allocation(self, pair):
        left, right = pair
        left.sendall(
            rpc._PREAMBLE.pack(rpc._MAGIC, rpc.PROTOCOL_VERSION, 0, 0)
            + rpc._EXTENT.pack(rpc.MAX_MESSAGE_BYTES + 1, b"\x00" * rpc.DIGEST_BYTES)
        )
        with pytest.raises(rpc.RpcCorruption, match="corrupt"):
            rpc.recv_message(right)

    def test_send_on_closed_socket_raises_connection_closed(self, pair):
        left, _right = pair
        left.close()
        with pytest.raises(rpc.ConnectionClosed):
            rpc.send_message(left, "anything")


class TestHardenedFrames:
    """Header and digest verification happen *before* any unpickling."""

    def test_corruption_is_a_connection_closed_subclass(self):
        # The fleet's transport-failure handling (mark DEAD, rebalance,
        # re-admit on a fresh socket) applies unchanged to corrupt streams.
        assert issubclass(rpc.RpcCorruption, rpc.ConnectionClosed)

    def test_bad_magic_raises_corruption(self, pair):
        left, right = pair
        left.sendall(b"XXXXYYYY" + b"\x00" * 24)
        with pytest.raises(rpc.RpcCorruption, match="magic"):
            rpc.recv_message(right)

    def test_unsupported_version_raises_corruption(self, pair):
        left, right = pair
        left.sendall(rpc._PREAMBLE.pack(rpc._MAGIC, 99, 0, 0))
        with pytest.raises(rpc.RpcCorruption, match="version"):
            rpc.recv_message(right)

    def test_nonzero_reserved_bits_raise_corruption(self, pair):
        left, right = pair
        left.sendall(rpc._PREAMBLE.pack(rpc._MAGIC, rpc.PROTOCOL_VERSION, 0x40, 0))
        with pytest.raises(rpc.RpcCorruption, match="reserved"):
            rpc.recv_message(right)

    def test_payload_digest_mismatch_raises_corruption(self, pair):
        left, right = pair
        frame = bytearray(_v2_frame({"verb": "sweep", "regions": ["a", "b"]}))
        frame[rpc.HEADER_BYTES + 3] ^= 0x10  # flip one payload bit
        left.sendall(frame)
        with pytest.raises(rpc.RpcCorruption, match="digest"):
            rpc.recv_message(right)

    def test_corrupt_payload_is_never_unpickled(self, pair, monkeypatch):
        left, right = pair
        frame = bytearray(_v2_frame(["payload"]))
        frame[-1] ^= 0x01
        left.sendall(frame)

        def forbidden(*_args, **_kwargs):  # pragma: no cover - must not run
            raise AssertionError("pickle.loads reached with a corrupt payload")

        monkeypatch.setattr(rpc.pickle, "loads", forbidden)
        with pytest.raises(rpc.RpcCorruption):
            rpc.recv_message(right)

    def test_legacy_prefix_without_compat_flag_is_corruption(self, pair):
        # A v1 peer's bare length prefix must not be silently accepted:
        # compat is opt-in, otherwise mis-framed streams could masquerade
        # as legacy traffic.
        left, right = pair
        data = pickle.dumps("legacy", protocol=pickle.HIGHEST_PROTOCOL)
        left.sendall(struct.pack(">Q", len(data)) + data)
        with pytest.raises(rpc.RpcCorruption, match="magic"):
            rpc.recv_message(right)


class TestReceiveFuzz:
    """Seeded garbage never unpickles, never hangs — it raises, typed.

    The property the hardened framing guarantees: whatever bytes arrive,
    ``recv_message`` either returns a frame that verified end-to-end or
    raises ``ConnectionClosed``/``RpcCorruption``/``RpcTimeout``.  Payload
    bytes only reach ``pickle.loads`` after the digest matched.
    """

    def _recv_must_raise(self, stream: bytes, monkeypatch) -> None:
        left, right = socket.socketpair()
        try:
            unpickled = []
            real_loads = pickle.loads
            monkeypatch.setattr(
                rpc.pickle,
                "loads",
                lambda data: (unpickled.append(data), real_loads(data))[1],
            )
            left.sendall(stream)
            left.close()
            deadline = time.monotonic() + 10.0  # never hang: bounded receive
            with pytest.raises((rpc.ConnectionClosed, rpc.RpcTimeout)):
                rpc.recv_message(right, deadline=deadline)
            assert not unpickled, "corrupt stream reached pickle.loads"
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_always_raise(self, seed, monkeypatch):
        rng = random.Random(1000 + seed)
        stream = rng.randbytes(rng.randint(1, 4096))
        # Random bytes matching the 4-byte magic are a ~2**-32 accident per
        # stream; with fixed seeds this is fully deterministic anyway.
        self._recv_must_raise(stream, monkeypatch)

    @pytest.mark.parametrize("seed", range(8))
    def test_truncations_of_a_valid_frame_always_raise(self, seed, monkeypatch):
        frame = _v2_frame({"verb": "sweep", "regions": list(range(64))})
        rng = random.Random(2000 + seed)
        cut = rng.randint(1, len(frame) - 1)
        self._recv_must_raise(frame[:cut], monkeypatch)

    @pytest.mark.parametrize("seed", range(16))
    def test_single_bit_flips_always_raise(self, seed, monkeypatch):
        # A flip anywhere — magic, version, flags, length, digest, payload —
        # must surface as corruption (or as a short read when the length
        # field shrank/grew), never as silently different data.
        frame = bytearray(_v2_frame({"verb": "sweep", "caps": [40.0, 85.0]}))
        rng = random.Random(3000 + seed)
        position = rng.randrange(len(frame))
        frame[position] ^= 1 << rng.randrange(8)
        self._recv_must_raise(bytes(frame), monkeypatch)

    def test_duplicated_frame_bytes_desynchronise_loudly(self, monkeypatch):
        frame = _v2_frame("once")
        middle = len(frame) // 2
        doubled = frame[:middle] + frame[:middle] + frame[middle:]
        left, right = socket.socketpair()
        try:
            left.sendall(doubled)
            left.close()
            deadline = time.monotonic() + 10.0
            with pytest.raises((rpc.ConnectionClosed, rpc.RpcTimeout)):
                # First frame may still parse if the duplication landed
                # after its end; the stream must fail loudly within the
                # first two receives either way.
                rpc.recv_message(right, deadline=deadline)
                rpc.recv_message(right, deadline=deadline)
        finally:
            left.close()
            right.close()


class TestRequest:
    def _serve_one(self, sock, reply):
        def run():
            rpc.recv_message(sock)
            rpc.send_message(sock, reply)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_ok_reply_is_unwrapped(self, pair):
        left, right = pair
        self._serve_one(right, ("ok", {"answer": 42}))
        assert rpc.request(left, ("stats",)) == {"answer": 42}

    def test_error_reply_raises_remote_error_with_traceback(self, pair):
        left, right = pair
        self._serve_one(right, ("error", "Traceback: boom"))
        with pytest.raises(rpc.RemoteError, match="boom"):
            rpc.request(left, ("sweep",))

    def test_malformed_reply_raises_remote_error(self, pair):
        left, right = pair
        self._serve_one(right, "not-a-tuple")
        with pytest.raises(rpc.RemoteError, match="malformed"):
            rpc.request(left, ("ping",))

    def test_wrong_arity_reply_raises_remote_error(self, pair):
        left, right = pair
        self._serve_one(right, ("ok", "extra", "elements"))
        with pytest.raises(rpc.RemoteError, match="malformed"):
            rpc.request(left, ("ping",))

    def test_single_element_reply_raises_remote_error(self, pair):
        left, right = pair
        self._serve_one(right, ("ok",))
        with pytest.raises(rpc.RemoteError, match="malformed"):
            rpc.request(left, ("ping",))

    def test_empty_request_payload_is_rejected_client_side(self, pair):
        left, _right = pair
        with pytest.raises(ValueError, match="non-empty tuple"):
            rpc.request(left, ())

    def test_non_tuple_request_payload_is_rejected_client_side(self, pair):
        left, _right = pair
        with pytest.raises(ValueError, match="non-empty tuple"):
            rpc.request(left, "ping")

    def test_dead_peer_raises_connection_closed(self, pair):
        left, right = pair
        right.close()
        with pytest.raises(rpc.ConnectionClosed):
            rpc.request(left, ("ping",))


class TestErrorFrames:
    def _raise_and_frame(self):
        try:
            raise ValueError("boom at depth")
        except ValueError as error:
            return rpc.error_frame(error)

    def test_frame_carries_summary_and_traceback(self):
        frame = self._raise_and_frame()
        assert frame["exception"] == "ValueError: boom at depth"
        assert "Traceback (most recent call last)" in frame["traceback"]
        assert "raise ValueError" in frame["traceback"]

    def test_structured_frame_surfaces_node_traceback(self, pair):
        left, right = pair
        frame = self._raise_and_frame()

        def run():
            rpc.recv_message(right)
            rpc.send_message(right, ("error", frame))

        threading.Thread(target=run, daemon=True).start()
        with pytest.raises(rpc.RemoteError) as excinfo:
            rpc.request(left, ("sweep",))
        error = excinfo.value
        assert error.remote_exception == "ValueError: boom at depth"
        assert "raise ValueError" in error.remote_traceback
        # The client-side message itself reads like the node's stack trace.
        assert "node-side traceback" in str(error)
        assert "raise ValueError" in str(error)

    def test_legacy_bare_string_frame_still_raises(self, pair):
        left, right = pair

        def run():
            rpc.recv_message(right)
            rpc.send_message(right, ("error", "Traceback: legacy boom"))

        threading.Thread(target=run, daemon=True).start()
        with pytest.raises(rpc.RemoteError, match="legacy boom") as excinfo:
            rpc.request(left, ("sweep",))
        assert excinfo.value.remote_traceback == "Traceback: legacy boom"


class TestConnectRetry:
    def test_connects_first_try_to_a_listener(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        try:
            sock = rpc.connect(listener.getsockname(), timeout=5.0)
            sock.close()
        finally:
            listener.close()

    def test_retries_until_listener_appears(self):
        """A node that is still booting must not read as a config error."""
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()  # port currently refuses connections

        listener = socket.socket()

        def bind_late():
            time.sleep(0.3)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            listener.listen()

        opener = threading.Thread(target=bind_late, daemon=True)
        opener.start()
        try:
            sock = rpc.connect(
                address, timeout=5.0, attempts=20, base_delay=0.05, max_delay=0.2
            )
            sock.close()
        finally:
            opener.join()
            listener.close()

    def test_exhausted_attempts_raise_the_refusal(self):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError):
            rpc.connect(address, attempts=3, base_delay=0.01, max_delay=0.02)
        assert time.monotonic() - start < 5.0

    def test_single_attempt_raises_immediately(self):
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        address = placeholder.getsockname()
        placeholder.close()
        with pytest.raises(ConnectionRefusedError):
            rpc.connect(address, attempts=1)


class TestPerCallDeadline:
    """`request(timeout=)`: a real socket deadline over send + receive."""

    def test_silent_peer_raises_rpc_timeout_fast(self, pair):
        left, _right = pair
        start = time.monotonic()
        with pytest.raises(rpc.RpcTimeout):
            rpc.request(left, ("ping",), timeout=0.2)
        assert time.monotonic() - start < 2.0

    def test_rpc_timeout_is_distinct_from_connection_closed(self):
        assert issubclass(rpc.RpcTimeout, TimeoutError)
        assert not issubclass(rpc.RpcTimeout, rpc.ConnectionClosed)

    def test_answer_within_deadline_is_served(self, pair):
        left, right = pair

        def serve():
            rpc.recv_message(right)
            time.sleep(0.05)
            rpc.send_message(right, ("ok", "pong"))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        assert rpc.request(left, ("ping",), timeout=5.0) == "pong"
        server.join(timeout=5.0)

    def test_trickling_peer_cannot_stretch_the_deadline(self, pair):
        # The deadline is absolute: a peer dripping one byte per re-armed
        # socket timeout must still fail at the original deadline.
        left, right = pair

        def trickle():
            rpc.recv_message(right)
            right.sendall(
                rpc._PREAMBLE.pack(rpc._MAGIC, rpc.PROTOCOL_VERSION, 0, 0)
                + rpc._EXTENT.pack(100, b"\x00" * rpc.DIGEST_BYTES)
            )
            for _ in range(10):
                time.sleep(0.1)
                try:
                    right.sendall(b"x")
                except OSError:
                    return

        dripper = threading.Thread(target=trickle, daemon=True)
        dripper.start()
        start = time.monotonic()
        with pytest.raises(rpc.RpcTimeout, match="outstanding"):
            rpc.request(left, ("ping",), timeout=0.3)
        assert time.monotonic() - start < 1.5

    def test_socket_timeout_is_restored_after_the_call(self, pair):
        left, _right = pair
        left.settimeout(None)
        with pytest.raises(rpc.RpcTimeout):
            rpc.request(left, ("ping",), timeout=0.1)
        assert left.gettimeout() is None

    def test_no_timeout_preserves_blocking_behaviour(self, pair):
        left, right = pair

        def serve():
            rpc.recv_message(right)
            rpc.send_message(right, ("ok", 7))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        assert rpc.request(left, ("stats",)) == 7
        server.join(timeout=5.0)


def _no_delay(sock) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


@pytest.fixture()
def node():
    server = NodeServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    thread.join(timeout=5.0)


class TestNoDelayWire:
    """Every serving socket is no-delay: no frame waits on Nagle's algorithm."""

    def test_connect_returns_a_no_delay_socket(self, node):
        with rpc.connect(node.address, timeout=5.0) as sock:
            assert _no_delay(sock)

    def test_node_accepts_no_delay_connections(self, node, monkeypatch):
        accepted = queue.Queue()
        recv_message = rpc.recv_message

        def spy(sock, *args, **kwargs):
            if sock.getsockname() == node.address:  # the node's end
                accepted.put(_no_delay(sock))
            return recv_message(sock, *args, **kwargs)

        monkeypatch.setattr(rpc, "recv_message", spy)
        with rpc.connect(node.address, timeout=5.0) as sock:
            assert rpc.request(sock, ("ping",), timeout=5.0)["version"] == 0
        assert accepted.get(timeout=5.0) is True

    def test_both_chaos_proxy_legs_are_no_delay(self, node):
        with ChaosProxy(node.address) as proxy:
            with rpc.connect(proxy.address, timeout=5.0) as sock:
                # A round trip through the proxy means both legs are up.
                rpc.request(sock, ("ping",), timeout=5.0)
                client_leg, upstream_leg = proxy._sockets[0]
                assert _no_delay(client_leg)
                assert _no_delay(upstream_leg)

    def test_ping_round_trip_does_not_stall(self, node):
        # Nagle's algorithm holding a frame's second write for the peer's
        # delayed ACK costs about 40 ms per round trip on Linux.
        with rpc.connect(node.address, timeout=5.0) as sock:
            trips = []
            for _ in range(20):
                start = time.perf_counter()
                rpc.request(sock, ("ping",), timeout=5.0)
                trips.append(time.perf_counter() - start)
        assert statistics.median(trips) < 0.020
